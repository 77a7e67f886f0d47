// Census walk + JSON rendering.  KiWiMap::Census() lives here (not in
// src/core/) for the same reason as DebugReport: core objects must carry no
// obs references, so a KIWI_STATS=OFF build keeps its symbol set clean.
#include "obs/census.h"

#include <chrono>

#include "core/kiwi_map.h"
#include "core/rebalance_object.h"
#include "obs/render.h"

namespace kiwi::obs {

namespace {

// "<name>":[d0,...,d9], — trailing comma included.
void AppendHist(std::string& out, const char* name,
                const std::array<std::uint64_t, ChunkCensus::kDecileBuckets>&
                    hist) {
  Append(out, "\"%s\":[", name);
  for (const std::uint64_t bucket : hist) {
    Append(out, "%llu,", (unsigned long long)bucket);
  }
  out.back() = ']';
  out += ',';
}

}  // namespace

std::string ChunkCensus::ToJson() const {
  std::string out = "{";
#define KIWI_OBS_EMIT_CENSUS(name) \
  Append(out, "\"%s\":%llu,", #name, (unsigned long long)name);
  KIWI_OBS_CENSUS_FIELDS(KIWI_OBS_EMIT_CENSUS)
#undef KIWI_OBS_EMIT_CENSUS
  Append(out,
         "\"avg_fill\":%.17g,\"batched_ratio\":%.17g,\"age_mean_ns\":%.17g,",
         avg_fill, batched_ratio, age_mean_ns);
  AppendHist(out, "fill_hist", fill_hist);
  AppendHist(out, "batched_hist", batched_hist);
  AppendHist(out, "arena_hist", arena_hist);
  out.back() = '}';
  return out;
}

}  // namespace kiwi::obs

namespace kiwi::core {

template <typename Layout>
obs::ChunkCensus KiWiMapT<Layout>::Census() {
  obs::ChunkCensus census;
  const std::uint64_t now_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
  // The guard pins every chunk we can reach; concurrent rebalances may
  // splice sectors mid-walk, so the numbers are a consistent-enough estimate
  // (exact when quiescent).
  reclaim::EbrGuard guard(ebr_);
  double age_sum = 0;
  double fill_sum = 0;
  double batched_sum = 0;
  for (Chunk* c = sentinel_->Next(); c != nullptr; c = c->Next()) {
    census.chunks++;
    switch (c->status.load(std::memory_order_acquire)) {
      case Chunk::Status::kInfant: census.infant++; break;
      case Chunk::Status::kNormal: census.normal++; break;
      case Chunk::Status::kFrozen: census.frozen++; break;
      case Chunk::Status::kSentinel: break;  // unreachable: walk skips it
    }
    if (auto* ro = c->ro.load(std::memory_order_acquire)) {
      if (!ro->done.load(std::memory_order_acquire)) census.engaged++;
    }
    const std::uint64_t allocated = c->AllocatedCells();
    census.allocated_cells += allocated;
    census.batched_cells += c->batched_count;
    census.slab_bytes += c->MemoryFootprint();
    const double fill =
        c->capacity > 0 ? static_cast<double>(allocated) / c->capacity : 0;
    census.fill_hist[obs::ChunkCensus::DecileFor(fill)]++;
    fill_sum += fill;
    const double batched_ratio =
        allocated > 0 ? static_cast<double>(c->batched_count) / allocated : 1.0;
    census.batched_hist[obs::ChunkCensus::DecileFor(batched_ratio)]++;
    batched_sum += batched_ratio;
    if (c->arena_capacity > 0) {  // arena-bearing (byte-layout) chunks only
      const std::uint64_t used = c->ArenaUsed();
      census.arena_used_bytes += used;
      census.arena_capacity_bytes += c->arena_capacity;
      census.arena_hist[obs::ChunkCensus::DecileFor(
          static_cast<double>(used) / c->arena_capacity)]++;
    }
    const std::uint64_t age = now_ns > c->birth_ns ? now_ns - c->birth_ns : 0;
    if (census.chunks == 1 || age < census.age_min_ns) {
      census.age_min_ns = age;
    }
    if (age > census.age_max_ns) census.age_max_ns = age;
    age_sum += static_cast<double>(age);
  }
  if (census.chunks > 0) {
    const double chunks = static_cast<double>(census.chunks);
    census.avg_fill = fill_sum / chunks;
    census.batched_ratio = batched_sum / chunks;
    census.age_mean_ns = age_sum / chunks;
  }
  return census;
}

// The core TU's `template class KiWiMapT<...>` skips members whose
// definitions are not visible there; these member instantiations are what
// links the obs-bound symbols, keeping core objects obs-free.
template obs::ChunkCensus KiWiMapT<Int64Layout>::Census();
template obs::ChunkCensus KiWiMapT<ByteLayout>::Census();

}  // namespace kiwi::core
