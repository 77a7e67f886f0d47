// Unit tests for the rebalance policy (paper §3.3.1, tuning §6.1).
#include <gtest/gtest.h>

#include "core/policy.h"

namespace kiwi::core {
namespace {

TEST(Policy, FullChunkAlwaysTriggers) {
  KiWiConfig config;
  config.chunk_capacity = 128;
  RebalancePolicy policy(config);
  Xoshiro256 rng(1);
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(policy.ShouldTrigger(128, 128, rng));
    EXPECT_TRUE(policy.ShouldTrigger(500, 0, rng));
  }
}

TEST(Policy, BalancedChunkNeverTriggers) {
  KiWiConfig config;
  config.chunk_capacity = 128;
  RebalancePolicy policy(config);
  Xoshiro256 rng(2);
  // Batched prefix covers >= 62.5% of allocated cells: never rebalance.
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(policy.ShouldTrigger(100, 100, rng));
    EXPECT_FALSE(policy.ShouldTrigger(100, 63, rng));
  }
}

TEST(Policy, UnbalancedChunkTriggersProbabilistically) {
  KiWiConfig config;
  config.chunk_capacity = 1024;
  config.rebalance_probability = 0.15;
  RebalancePolicy policy(config);
  Xoshiro256 rng(3);
  int triggered = 0;
  constexpr int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    // Prefix is 10% of the list: well below the 0.625 threshold.
    triggered += policy.ShouldTrigger(1000, 100, rng);
  }
  EXPECT_NEAR(triggered, kTrials * 0.15, kTrials * 0.02);
}

TEST(Policy, EngageMergesUnderUtilizedNeighbors) {
  KiWiConfig config;
  config.chunk_capacity = 1024;  // new chunks hold 512
  RebalancePolicy policy(config);
  // One engaged chunk with 100 cells, neighbor with 100: one 200-cell chunk
  // replaces... projected = 1 <= 1 engaged: merge reduces count.
  EXPECT_TRUE(policy.ShouldEngageNext(1, 100, 100));
  // Neighbor nearly full: projected 2 chunks from 2 engaged — no gain, but
  // allowed (<=).  A clearly bad merge must be refused:
  EXPECT_FALSE(policy.ShouldEngageNext(1, 512, 512));  // 1024/512=2 > 1
}

TEST(Policy, EngageRespectsMaxWidth) {
  KiWiConfig config;
  config.max_engaged_chunks = 4;
  RebalancePolicy policy(config);
  EXPECT_FALSE(policy.ShouldEngageNext(4, 10, 10));
  EXPECT_TRUE(policy.ShouldEngageNext(3, 10, 10));
}

TEST(Policy, ConfigDefaultsMatchPaper) {
  const KiWiConfig config;
  EXPECT_EQ(config.chunk_capacity, 1024u);
  EXPECT_DOUBLE_EQ(config.rebalance_probability, 0.15);
  EXPECT_DOUBLE_EQ(config.batched_prefix_min_ratio, 0.625);
  EXPECT_DOUBLE_EQ(kFillRatio, 0.5);
  EXPECT_DOUBLE_EQ(kSparseRatio, 0.25);
  EXPECT_EQ(kMaxEntryBytes, 4096u);
}

}  // namespace
}  // namespace kiwi::core
