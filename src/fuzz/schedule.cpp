#include "fuzz/schedule.h"

#include <atomic>
#include <chrono>
#include <sstream>
#include <thread>

#include "common/assert.h"
#include "common/random.h"

namespace kiwi::fuzz {

namespace {

std::atomic<PerturbationEngine*> g_engine{nullptr};

/// Deterministic per-thread ordinal: the Nth thread to fire any hook gets
/// ordinal N.  Thread creation order is stable under a fixed harness, so
/// the per-thread RNG streams replay with the seed.
std::atomic<std::uint64_t> g_thread_ordinal{0};

struct ThreadRng {
  Xoshiro256 rng;
  std::uint64_t seeded_for = ~std::uint64_t{0};
};

ThreadRng& LocalRng(std::uint64_t seed) {
  thread_local ThreadRng tl;
  if (tl.seeded_for != seed) {
    const std::uint64_t ordinal =
        g_thread_ordinal.fetch_add(1, std::memory_order_relaxed);
    tl.rng = Xoshiro256(seed ^ (0x9e3779b97f4a7c15ULL * (ordinal + 1)));
    tl.seeded_for = seed;
  }
  return tl;
}

void SpinPause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

void FireEngine(TestHooks::Site site) {
  if (PerturbationEngine* engine = g_engine.load(std::memory_order_acquire)) {
    engine->Fire(site);
  }
}

}  // namespace

const char* ActionName(SiteAction a) {
  switch (a) {
    case SiteAction::kOff: return "off";
    case SiteAction::kYield: return "yield";
    case SiteAction::kSleep: return "sleep";
    case SiteAction::kSpin: return "spin";
  }
  return "?";
}

Schedule Schedule::FromSeed(std::uint64_t seed) {
  Schedule s;
  s.seed = seed;
  Xoshiro256 rng(seed);
  for (SiteConfig& site : s.sites) {
    // ~1/4 of sites stay off so rounds explore different site subsets; the
    // rest draw an action, a firing probability and a strength.
    if (rng.NextBounded(4) == 0) continue;
    switch (rng.NextBounded(3)) {
      case 0: site.action = SiteAction::kYield; break;
      case 1: site.action = SiteAction::kSleep; break;
      default: site.action = SiteAction::kSpin; break;
    }
    site.probability_pct =
        static_cast<std::uint8_t>(5 + rng.NextBounded(76));  // 5-80%
    switch (site.action) {
      case SiteAction::kYield:
        site.intensity = 1 + static_cast<std::uint32_t>(rng.NextBounded(4));
        break;
      case SiteAction::kSleep:  // 1-200us: wide enough to cross a rebalance
        site.intensity = 1 + static_cast<std::uint32_t>(rng.NextBounded(200));
        break;
      case SiteAction::kSpin:  // 64-16k pause steps
        site.intensity =
            64 + static_cast<std::uint32_t>(rng.NextBounded(16 * 1024));
        break;
      case SiteAction::kOff:
        break;
    }
  }
  return s;
}

std::uint64_t Schedule::ActiveMask() const {
  std::uint64_t mask = 0;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (sites[i].action != SiteAction::kOff) mask |= std::uint64_t{1} << i;
  }
  return mask;
}

Schedule Schedule::WithActiveMask(std::uint64_t mask) const {
  Schedule s = *this;
  for (std::size_t i = 0; i < s.sites.size(); ++i) {
    if (((mask >> i) & 1) == 0) s.sites[i] = SiteConfig{};
  }
  return s;
}

std::string Schedule::Describe() const {
  std::ostringstream os;
  os << "seed=0x" << std::hex << seed << std::dec << " sites:";
  bool any = false;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    if (sites[i].action == SiteAction::kOff) continue;
    any = true;
    os << " " << TestHooks::kSiteNames[i] << "="
       << ActionName(sites[i].action) << "(p"
       << static_cast<int>(sites[i].probability_pct) << ",i"
       << sites[i].intensity << ")";
  }
  if (!any) os << " (none)";
  return os.str();
}

PerturbationEngine::PerturbationEngine(const Schedule& schedule)
    : schedule_(schedule) {
  PerturbationEngine* expected = nullptr;
  const bool won = g_engine.compare_exchange_strong(
      expected, this, std::memory_order_acq_rel);
  KIWI_ASSERT(won, "only one PerturbationEngine may be live at a time");
  for (std::size_t i = 0; i < TestHooks::kSiteCount; ++i) {
    if (schedule_.sites[i].action != SiteAction::kOff) {
      TestHooks::hooks[i].store(&FireEngine, std::memory_order_release);
    }
  }
}

PerturbationEngine::~PerturbationEngine() {
  for (auto& hook : TestHooks::hooks) {
    hook.store(nullptr, std::memory_order_release);
  }
  g_engine.store(nullptr, std::memory_order_release);
}

void PerturbationEngine::Fire(TestHooks::Site site) {
  const SiteConfig& cfg = schedule_.sites[site];
  if (cfg.action == SiteAction::kOff) return;
  ThreadRng& tl = LocalRng(schedule_.seed);
  if (tl.rng.NextBounded(100) >= cfg.probability_pct) return;
  switch (cfg.action) {
    case SiteAction::kYield:
      for (std::uint32_t i = 0; i < cfg.intensity; ++i) {
        std::this_thread::yield();
      }
      break;
    case SiteAction::kSleep:
      std::this_thread::sleep_for(std::chrono::microseconds(cfg.intensity));
      break;
    case SiteAction::kSpin:
      for (std::uint32_t i = 0; i < cfg.intensity; ++i) SpinPause();
      break;
    case SiteAction::kOff:
      break;
  }
}

}  // namespace kiwi::fuzz
