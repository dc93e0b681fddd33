#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/stats.hpp"

namespace aria {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a{123}, b{123};
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ZeroSeedIsValid) {
  Rng r{0};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 100; ++i) seen.insert(r.next_u64());
  EXPECT_GT(seen.size(), 90u);  // not stuck in a tiny cycle
}

TEST(Rng, ForkDecorrelates) {
  Rng parent{42};
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1.next_u64() == c2.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsDeterministic) {
  Rng p1{42}, p2{42};
  Rng c1 = p1.fork(7), c2 = p2.fork(7);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(c1.next_u64(), c2.next_u64());
}

TEST(Rng, ForkTableSlotIsTheParentsForkInAnyFillOrder) {
  // Slot i is parent.fork(i) whichever slots were filled first, so the
  // order in which per-node streams are first used cannot change them.
  const Rng parent{99};
  ForkTable ascending{parent};
  ForkTable descending{parent};
  for (const std::uint32_t i : {1u, 5u, 200u}) ascending.at(i);
  for (const std::uint32_t i : {200u, 5u, 1u}) descending.at(i);
  for (const std::uint32_t i : {1u, 5u, 200u}) {
    Rng expected = Rng{parent}.fork(i);
    for (int k = 0; k < 10; ++k) {
      const std::uint64_t want = expected.next_u64();
      EXPECT_EQ(ascending.at(i).next_u64(), want) << i;
      EXPECT_EQ(descending.at(i).next_u64(), want) << i;
    }
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng r{5};
  for (int i = 0; i < 10000; ++i) {
    const double d = r.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, UniformIntRespectsBoundsInclusive) {
  Rng r{9};
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform_int(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng r{11};
  for (int i = 0; i < 10; ++i) EXPECT_EQ(r.uniform_int(5, 5), 5);
}

TEST(Rng, UniformIntIsRoughlyUniform) {
  Rng r{13};
  std::vector<int> counts(10, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    ++counts[static_cast<std::size_t>(r.uniform_int(0, 9))];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / 10, kDraws / 10 * 0.1);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng r{17};
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
    EXPECT_FALSE(r.bernoulli(-0.5));
    EXPECT_TRUE(r.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng r{19};
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (r.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(Rng, NormalMatchesMoments) {
  Rng r{23};
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(stats.mean(), 10.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(Rng, TruncatedNormalStaysInBounds) {
  Rng r{29};
  for (int i = 0; i < 10000; ++i) {
    const double v = r.truncated_normal(150.0, 75.0, 60.0, 240.0);
    ASSERT_GE(v, 60.0);
    ASSERT_LE(v, 240.0);
  }
}

TEST(Rng, TruncatedNormalClampsMassAtBounds) {
  // With a wide stddev a visible fraction of draws must sit exactly on the
  // bounds (clamping, not rejection — the paper bounds "extreme cases").
  Rng r{31};
  int at_bounds = 0;
  for (int i = 0; i < 10000; ++i) {
    const double v = r.truncated_normal(0.0, 10.0, -5.0, 5.0);
    if (v == -5.0 || v == 5.0) ++at_bounds;
  }
  EXPECT_GT(at_bounds, 1000);
}

TEST(Rng, WeightedIndexFrequencies) {
  Rng r{37};
  std::vector<double> weights{70.0, 20.0, 10.0};
  std::vector<int> counts(3, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[r.weighted_index(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(kDraws), 0.7, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kDraws), 0.2, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(kDraws), 0.1, 0.01);
}

TEST(Rng, WeightedIndexSkipsZeroWeights) {
  Rng r{41};
  std::vector<double> weights{0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(r.weighted_index(weights), 1u);
}

TEST(Rng, UniformDurationWithinBounds) {
  Rng r{43};
  const Duration lo = Duration::seconds(10);
  const Duration hi = Duration::seconds(20);
  for (int i = 0; i < 1000; ++i) {
    const Duration d = r.uniform_duration(lo, hi);
    ASSERT_GE(d, lo);
    ASSERT_LE(d, hi);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng r{47};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  r.shuffle(shuffled);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), shuffled.begin()));
}

TEST(Rng, SampleDrawsDistinctElements) {
  Rng r{53};
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const auto s = r.sample(v, 4);
  EXPECT_EQ(s.size(), 4u);
  std::set<int> unique(s.begin(), s.end());
  EXPECT_EQ(unique.size(), 4u);
  for (int x : s) EXPECT_TRUE(std::find(v.begin(), v.end(), x) != v.end());
}

TEST(Rng, SampleMoreThanAvailableReturnsAll) {
  Rng r{59};
  std::vector<int> v{1, 2, 3};
  const auto s = r.sample(v, 10);
  EXPECT_EQ(s.size(), 3u);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), s.begin()));
}

}  // namespace
}  // namespace aria
