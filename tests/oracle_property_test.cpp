// Cross-structure property tests: every map in the repository, driven
// through the uniform interface, must agree with std::map on randomized
// operation sequences — parameterized over (map kind × seed) so each
// instantiation explores a different interleaving of inserts, overwrites,
// deletes, point reads and range reads.
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "api/map_interface.h"
#include "common/random.h"

namespace kiwi::api {
namespace {

using Param = std::tuple<MapKind, std::uint64_t /*seed*/>;

class OracleProperty : public ::testing::TestWithParam<Param> {};

TEST_P(OracleProperty, RandomOpsAgreeWithStdMap) {
  const auto [kind, seed] = GetParam();
  core::KiWiConfig config;
  config.chunk_capacity = 64;  // stress rebalancing in the KiWi instance
  auto map = MakeMap(kind, config);
  std::map<Key, Value> oracle;
  Xoshiro256 rng(seed);
  std::vector<IOrderedMap::Entry> out;

  for (int i = 0; i < 12000; ++i) {
    const Key key = static_cast<Key>(rng.NextBounded(1200));
    switch (rng.NextBounded(100) / 10) {
      default:  // 0-49: put
        map->Put(key, i);
        oracle[key] = i;
        break;
      case 5: case 6:  // 50-69: remove
        map->Remove(key);
        oracle.erase(key);
        break;
      case 7: case 8: {  // 70-89: get
        const auto got = map->Get(key);
        const auto it = oracle.find(key);
        if (it == oracle.end()) {
          ASSERT_FALSE(got.has_value()) << "phantom key " << key;
        } else {
          ASSERT_EQ(got.value_or(-1), it->second);
        }
        break;
      }
      case 9: {  // 90-99: range scan
        const Key to = key + static_cast<Key>(rng.NextBounded(150));
        map->Scan(key, to, out);
        auto it = oracle.lower_bound(key);
        std::size_t index = 0;
        for (; it != oracle.end() && it->first <= to; ++it, ++index) {
          ASSERT_LT(index, out.size());
          ASSERT_EQ(out[index].first, it->first);
          ASSERT_EQ(out[index].second, it->second);
        }
        ASSERT_EQ(out.size(), index);
        break;
      }
    }
  }
  // Final full comparison.
  map->Scan(kMinUserKey, kMaxUserKey, out);
  ASSERT_EQ(out.size(), oracle.size());
  auto it = oracle.begin();
  for (const auto& [k, v] : out) {
    ASSERT_EQ(k, it->first);
    ASSERT_EQ(v, it->second);
    ++it;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMaps, OracleProperty,
    ::testing::Combine(::testing::Values(MapKind::kKiWi, MapKind::kSkipList,
                                         MapKind::kKaryTree,
                                         MapKind::kSnapTree, MapKind::kCtrie,
                                         MapKind::kLockedMap),
                       ::testing::Values(1u, 2u, 3u, 4u, 5u)),
    [](const auto& info) {
      return std::string(KindName(std::get<0>(info.param))) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

TEST(MapTraitsTable, MatchesPaperTable1) {
  // KiWi: the only row with every property.
  const MapTraits kiwi = TraitsOf(MapKind::kKiWi);
  EXPECT_TRUE(kiwi.atomic_scans && kiwi.multiple_scans && kiwi.partial_scans &&
              kiwi.wait_free_scans && kiwi.balanced && kiwi.fast_puts);
  // Skiplist scans are not atomic.
  EXPECT_FALSE(TraitsOf(MapKind::kSkipList).atomic_scans);
  // k-ary scans restart (not wait-free) and the tree is unbalanced.
  EXPECT_FALSE(TraitsOf(MapKind::kKaryTree).wait_free_scans);
  EXPECT_FALSE(TraitsOf(MapKind::kKaryTree).balanced);
  // SnapTree's puts are hampered by snapshots.
  EXPECT_FALSE(TraitsOf(MapKind::kSnapTree).fast_puts);
  // Ctrie has no partial snapshots and its puts pay for live snapshots.
  EXPECT_FALSE(TraitsOf(MapKind::kCtrie).partial_scans);
  EXPECT_FALSE(TraitsOf(MapKind::kCtrie).fast_puts);
}

TEST(MapFactory, RoundTripsNames) {
  for (MapKind kind : {MapKind::kKiWi, MapKind::kSkipList, MapKind::kKaryTree,
                       MapKind::kSnapTree, MapKind::kCtrie,
                       MapKind::kLockedMap}) {
    auto map = MakeMap(kind);
    ASSERT_NE(map, nullptr);
    EXPECT_EQ(map->Name(), KindName(kind));
    MapKind parsed;
    ASSERT_TRUE(ParseMapKind(map->Name(), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  MapKind parsed;
  EXPECT_FALSE(ParseMapKind("nonsense", &parsed));
}

}  // namespace
}  // namespace kiwi::api
