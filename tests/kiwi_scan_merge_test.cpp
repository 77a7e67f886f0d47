// The scan emit loop (KiWiMapT::EmitChunkRange) at each position where its
// streams meet: `from` on a key whose version run a Snapshot retains,
// bounds on stored keys and on tombstones, and versioned pending puts (PPA
// entries whose puts have not linked yet) below, between, on and after a
// chunk's list keys.  Every case reads through Scan and ScanFrom, on the
// int64 and the byte layout, and checks against a std::map model.  Byte
// keys are 16 bytes sharing their first 8, so every compare goes past the
// cell prefix to the bytes 8-15 word.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "api/byte_map.h"
#include "common/test_hooks.h"
#include "core/kiwi_map.h"

namespace kiwi::core {
namespace {

/// A model key maps to its value; scans read back as ascending rows.
using Model = std::map<int, int>;
using Rows = std::vector<std::pair<int, int>>;

struct Int64Keys {
  using Map = KiWiMap;
  static Key KeyOf(int key) { return key; }
  static Value ValueOf(int value) { return value; }
  static int ModelKey(Key key) { return static_cast<int>(key); }
  static int ModelValue(Value value) { return static_cast<int>(value); }
};

struct ByteKeys {
  using Map = api::KiWiByteMap;
  static std::string KeyOf(int key) {
    std::string out = "scanmrg:";
    for (int shift = 56; shift >= 0; shift -= 8) {
      out.push_back(static_cast<char>(
          (static_cast<std::uint64_t>(key) >> shift) & 0xff));
    }
    return out;
  }
  static std::string ValueOf(int value) {
    return std::string("v").append(std::to_string(value));
  }
  static int ModelKey(std::string_view key) {
    std::uint64_t out = 0;
    for (const char c : key.substr(8)) {
      out = (out << 8) | static_cast<unsigned char>(c);
    }
    return static_cast<int>(out);
  }
  static int ModelValue(std::string_view value) {
    return std::stoi(std::string(value.substr(1)));
  }
};

Rows Expected(const Model& model, int from, std::optional<int> to) {
  Rows rows;
  for (auto it = model.lower_bound(from);
       it != model.end() && (!to || it->first <= *to); ++it) {
    rows.emplace_back(*it);
  }
  return rows;
}

template <typename K>
class ScanMerge : public ::testing::Test {
 protected:
  using Map = typename K::Map;
  using Entry = typename Map::Entry;

  static std::unique_ptr<Map> Load(const Model& model,
                                   std::uint32_t chunk_capacity) {
    std::vector<Entry> entries;
    for (const auto& [key, value] : model) {
      entries.emplace_back(K::KeyOf(key), K::ValueOf(value));
    }
    KiWiConfig config;
    config.chunk_capacity = chunk_capacity;
    return std::make_unique<Map>(std::span<const Entry>(entries), config);
  }

  static void Put(Map& map, Model& model, int key, int value) {
    map.Put(K::KeyOf(key), K::ValueOf(value));
    model[key] = value;
  }
  static void Remove(Map& map, Model& model, int key) {
    map.Remove(K::KeyOf(key));
    model.erase(key);
  }

  /// Rows a scan yields; `scan` is called with the collecting callback.
  template <typename ScanCall>
  static Rows Read(ScanCall scan) {
    Rows rows;
    scan([&rows](typename Map::KeyView key, typename Map::ValueView value) {
      rows.emplace_back(K::ModelKey(key), K::ModelValue(value));
    });
    return rows;
  }

  static Rows ReadFrom(Map& map, int from) {
    return Read([&](const auto& yield) { map.ScanFrom(K::KeyOf(from), yield); });
  }

  /// Scan [from, to] and ScanFrom(from) both match the model.
  static void ExpectScans(Map& map, const Model& model, int from, int to) {
    EXPECT_EQ(Read([&](const auto& yield) {
                map.Scan(K::KeyOf(from), K::KeyOf(to), yield);
              }),
              Expected(model, from, to))
        << "Scan [" << from << ", " << to << "]";
    EXPECT_EQ(ReadFrom(map, from), Expected(model, from, std::nullopt))
        << "ScanFrom " << from;
  }

  static void ExpectSnapshotScan(typename Map::Snapshot& snapshot,
                                 const Model& model, int from, int to) {
    EXPECT_EQ(Read([&](const auto& yield) {
                snapshot.Scan(K::KeyOf(from), K::KeyOf(to), yield);
              }),
              Expected(model, from, to))
        << "Snapshot::Scan [" << from << ", " << to << "]";
  }
};

// gtest numbers the types in this order: ScanMerge/0.* runs the int64
// map, ScanMerge/1.* the byte map (the filter CI's bytes legs use).
using Layouts = ::testing::Types<Int64Keys, ByteKeys>;
TYPED_TEST_SUITE(ScanMerge, Layouts);

// Small chunks, so bounds land on chunk edges too.  Bounds step by 5 over
// keys stored at multiples of 10: every pair of stored, removed and absent
// keys is tried as [from, to], through the map and through a Snapshot
// whose removed keys the map has since re-put and vice versa.
TYPED_TEST(ScanMerge, EveryBoundPairMatchesTheModel) {
  Model model;
  for (int key = 10; key <= 200; key += 10) model[key] = key;
  auto map = this->Load(model, /*chunk_capacity=*/8);
  for (int key = 30; key <= 200; key += 30) this->Remove(*map, model, key);
  this->Put(*map, model, 40, 41);
  this->Put(*map, model, 100, 101);
  const Model before = model;
  typename TestFixture::Map::Snapshot snapshot(*map);
  this->Put(*map, model, 30, 31);
  this->Remove(*map, model, 40);
  this->Put(*map, model, 100, 102);
  this->Remove(*map, model, 200);
  for (int from = 5; from <= 205; from += 5) {
    for (int to = from - 5; to <= 205; to += 5) {
      this->ExpectScans(*map, model, from, to);
      this->ExpectSnapshotScan(snapshot, before, from, to);
    }
  }
}

// A Snapshot keeps key 40's old versions.  A bulk PutBatch rebuilds the
// chunk, so the run sits in the sorted prefix; two later overwrites link
// newer versions ahead of it.  Overwrites that no scan or Snapshot open
// separates share a version and replace the value in place, hence the
// scans between them.  Scans from, to and around 40 open the run at its
// newest cell; each view reads the version at its own read point.
TYPED_TEST(ScanMerge, FromInsideARetainedVersionRun) {
  Model model;
  for (int key = 10; key <= 160; key += 10) model[key] = key;
  auto map = this->Load(model, /*chunk_capacity=*/64);
  auto& m = *map;
  this->Put(m, model, 40, 401);
  const Model first = model;
  typename TestFixture::Map::Snapshot first_view(m);
  this->Put(m, model, 40, 402);
  this->ExpectScans(m, model, 40, 40);  // a scan bumps the global version
  this->Put(m, model, 40, 403);
  // Eight keys past 40 reach the bulk threshold (capacity / 8).
  std::vector<typename TestFixture::Entry> batch;
  for (int key = 41; key <= 48; ++key) {
    batch.emplace_back(TypeParam::KeyOf(key), TypeParam::ValueOf(key));
    model[key] = key;
  }
  m.PutBatch(batch);
  this->ExpectScans(m, model, 40, 48);
  this->Put(m, model, 40, 404);
  const Model second = model;
  typename TestFixture::Map::Snapshot second_view(m);
  this->Put(m, model, 40, 405);
  for (const int from : {30, 39, 40, 41}) {
    for (const int to : {40, 41, 48, 160}) {
      this->ExpectScans(m, model, from, to);
      this->ExpectSnapshotScan(first_view, first, from, to);
      this->ExpectSnapshotScan(second_view, second, from, to);
    }
  }
}

// Puts stall after publishing in the PPA, before their version CAS.
std::atomic<int> g_stalled{0};
std::atomic<bool> g_release{false};

void StallHook(TestHooks::Site) {
  g_stalled.fetch_add(1, std::memory_order_acq_rel);
  while (!g_release.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
}

// Stalled puts at 15 (below the first list key at or above `from` = 11),
// 25 (between list keys), 30 (a list key holding an older version) and 165
// (after the chunk's last list key 160), and a stalled remove at 50.  A
// first ScanFrom helps them all, assigning versions above its own read
// point, so it reads none of them; every later scan reads them through the
// pending stream until the puts link, then through the list.
TYPED_TEST(ScanMerge, PendingPutsMergeAtEveryListPosition) {
  Model model;
  for (int key = 10; key <= 160; key += 10) model[key] = key;
  // One chunk: sixteen keys fill a quarter of it, so the stalled writes
  // trip no rebalance that would freeze their PPA slots.
  auto map = this->Load(model, /*chunk_capacity=*/64);
  auto& m = *map;
  const Model loaded = model;
  const std::vector<std::pair<int, std::optional<int>>> writes = {
      {15, 1015}, {25, 1025}, {30, 1030}, {165, 1165}, {50, std::nullopt}};
  g_stalled.store(0);
  g_release.store(false);
  std::vector<std::thread> writers;
  {
    TestHooks::Scoped stall(TestHooks::kPutBeforeVersionCas, StallHook);
    for (const auto& write : writes) {
      writers.emplace_back([&m, write] {
        if (write.second) {
          m.Put(TypeParam::KeyOf(write.first),
                TypeParam::ValueOf(*write.second));
        } else {
          m.Remove(TypeParam::KeyOf(write.first));
        }
      });
      if (write.second) {
        model[write.first] = *write.second;
      } else {
        model.erase(write.first);
      }
    }
    while (g_stalled.load(std::memory_order_acquire) <
           static_cast<int>(writes.size())) {
      std::this_thread::yield();
    }
    EXPECT_EQ(this->ReadFrom(m, 1), Expected(loaded, 1, std::nullopt))
        << "the helping scan orders before the stalled writes";
    const auto check_all = [&] {
      for (const auto& [from, to] : std::vector<std::pair<int, int>>{
               {11, 170}, {15, 165}, {1, 200}, {16, 30}, {26, 50},
               {31, 164}, {50, 50}, {11, 49}, {160, 170}}) {
        this->ExpectScans(m, model, from, to);
      }
    };
    check_all();
    g_release.store(true, std::memory_order_release);
    for (std::thread& writer : writers) writer.join();
    check_all();
  }
}

}  // namespace
}  // namespace kiwi::core
