// Parameterized k-ary tree sweeps: the oracle property and structural
// behaviours across arities (the paper uses k = 64; correctness must hold
// for any k >= 2, and the degeneration factor varies with k).
#include <gtest/gtest.h>

#include <map>

#include "baselines/kary/kary_tree.h"
#include "common/random.h"

namespace kiwi::baselines {
namespace {

class KaryArity : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(KaryArity, OracleAgreement) {
  KaryTree tree(GetParam());
  std::map<Key, Value> oracle;
  Xoshiro256 rng(GetParam() * 1000003 + 5);
  for (int i = 0; i < 8000; ++i) {
    const Key key = static_cast<Key>(rng.NextBounded(800));
    if (rng.NextBool(0.3)) {
      tree.Remove(key);
      oracle.erase(key);
    } else {
      tree.Put(key, i);
      oracle[key] = i;
    }
  }
  std::vector<KaryTree::Entry> out;
  tree.Scan(0, 800, out);
  ASSERT_EQ(out.size(), oracle.size());
  auto it = oracle.begin();
  for (const auto& [k, v] : out) {
    ASSERT_EQ(k, it->first);
    ASSERT_EQ(v, it->second);
    ++it;
  }
}

TEST_P(KaryArity, SplitChainsKeepAllKeys) {
  // Keys arriving in an order that repeatedly splits the same leaf.
  KaryTree tree(GetParam());
  constexpr Key kCount = 3000;
  for (Key k = 0; k < kCount; ++k) tree.Put(k, k + 1);
  EXPECT_EQ(tree.Size(), static_cast<std::size_t>(kCount));
  for (Key k = 0; k < kCount; k += 17) {
    ASSERT_EQ(tree.Get(k).value_or(-1), k + 1);
  }
}

TEST_P(KaryArity, DepthGrowsFasterWithSmallerArity) {
  KaryTree tree(GetParam());
  for (Key k = 0; k < 5000; ++k) tree.Put(k, k);
  // Ordered insertion: depth is ~n/k; verify the inverse relation loosely.
  const std::size_t depth = tree.Depth();
  EXPECT_GE(depth, 5000 / GetParam() / 4) << "suspiciously shallow";
  EXPECT_LE(depth, 5000 * 4 / GetParam() + 8) << "suspiciously deep";
}

TEST_P(KaryArity, EmptyAndSingletonEdgeCases) {
  KaryTree tree(GetParam());
  std::vector<KaryTree::Entry> out;
  EXPECT_EQ(tree.Scan(kMinUserKey, kMaxUserKey, out), 0u);
  EXPECT_EQ(tree.Size(), 0u);
  tree.Put(7, 70);
  EXPECT_EQ(tree.Scan(kMinUserKey, kMaxUserKey, out), 1u);
  tree.Remove(7);
  EXPECT_EQ(tree.Scan(kMinUserKey, kMaxUserKey, out), 0u);
  // Remove on empty tree and re-insert after emptying.
  tree.Remove(7);
  tree.Put(7, 71);
  EXPECT_EQ(tree.Get(7).value_or(-1), 71);
}

INSTANTIATE_TEST_SUITE_P(Arities, KaryArity,
                         ::testing::Values(2u, 4u, 16u, 64u),
                         [](const auto& info) {
                           return std::string("k").append(
                               std::to_string(info.param));
                         });

}  // namespace
}  // namespace kiwi::baselines
