#include "sim/rng.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace hcs::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 3.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, UniformMeanApproximatesHalf) {
  Rng rng(11);
  double acc = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) acc += rng.uniform();
  EXPECT_NEAR(acc / n, 0.5, 0.01);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  Rng rng(13);
  const int n = 200000;
  double sum = 0, sq = 0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sq / n, 1.0, 0.03);
}

TEST(Rng, NormalScaleAndShift) {
  Rng rng(17);
  const int n = 100000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.05);
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(19);
  const int n = 200000;
  double sum = 0;
  for (int i = 0; i < n; ++i) sum += rng.exponential(3.0);
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

TEST(Rng, ExponentialNonNegative) {
  Rng rng(23);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(rng.exponential(1.0), 0.0);
}

TEST(Rng, ExponentialZeroMeanReturnsZero) {
  Rng rng(29);
  EXPECT_EQ(rng.exponential(0.0), 0.0);
  EXPECT_EQ(rng.exponential(-1.0), 0.0);
}

TEST(Rng, BernoulliProbabilityRespected) {
  Rng rng(31);
  const int n = 100000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(Rng, UniformIndexBounds) {
  Rng rng(37);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 50000; ++i) ++counts[rng.uniform_index(5)];
  for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(41);
  Rng child = a.split();
  // Child differs from the parent's continued stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == child.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Splitmix, KnownFirstValueStable) {
  std::uint64_t s1 = 0, s2 = 0;
  EXPECT_EQ(splitmix64(s1), splitmix64(s2));
  EXPECT_EQ(s1, s2);
}

// Differential check of the flat channel table against the per-sender
// std::map it replaced: the same seed derivation, so every stream, and every
// draw from it, must be identical whatever order channels are created in.
TEST(ChannelStreams, MatchesPerSenderMapReference) {
  constexpr int kRanks = 4096;
  constexpr std::uint64_t kSeed = 0x6a09e667f3bcc909ULL;
  ChannelStreams table(kSeed, kRanks);
  std::vector<std::map<int, Rng>> reference(kRanks);
  auto reference_at = [&](int src, int dst) -> Rng& {
    auto& per_src = reference[static_cast<std::size_t>(src)];
    auto it = per_src.find(dst);
    if (it == per_src.end()) {
      std::uint64_t state = kSeed ^
                            (0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(src) + 1)) ^
                            (0xd1b54a32d192ed03ULL * (static_cast<std::uint64_t>(dst) + 1));
      it = per_src.emplace(dst, Rng(splitmix64(state))).first;
    }
    return it->second;
  };
  Rng pick(2024);
  std::size_t channels = 0;
  for (int i = 0; i < 120000; ++i) {
    const int src = static_cast<int>(pick.uniform_index(kRanks));
    // Half the requests revisit a small neighbourhood (hits), half roam the
    // whole machine (new channels inserted anywhere in the sorted table).
    const int dst = pick.bernoulli(0.5)
                        ? (src + 1 + static_cast<int>(pick.uniform_index(8))) % kRanks
                        : static_cast<int>(pick.uniform_index(kRanks));
    Rng& got = table.at(src, dst);
    Rng& want = reference_at(src, dst);
    if (i % 3 == 0) {
      ASSERT_EQ(got.normal(), want.normal()) << src << " -> " << dst;  // exercises the spare
    } else {
      ASSERT_EQ(got.next_u64(), want.next_u64()) << src << " -> " << dst;
    }
  }
  for (const auto& per_src : reference) channels += per_src.size();
  EXPECT_GT(channels, 60000u);  // the table grew well past its first slots
  // Every stream's state survived all the insertions around it.
  for (int src = 0; src < kRanks; ++src) {
    for (auto& [dst, want] : reference[static_cast<std::size_t>(src)]) {
      ASSERT_EQ(table.at(src, dst).next_u64(), want.next_u64()) << src << " -> " << dst;
    }
  }
}

TEST(ChannelStreams, OtherSendersNeverMoveAStream) {
  ChannelStreams table(7, 4);
  Rng& held = table.at(0, 1);
  for (int dst = 0; dst < 1000; ++dst) {
    table.at(1, dst);
    table.at(2, dst);
  }
  EXPECT_EQ(&held, &table.at(0, 1));
}

}  // namespace
}  // namespace hcs::sim
