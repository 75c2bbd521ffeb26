// Tests for the ping-pong burst fast path, including its statistical
// equivalence with an explicit message-level ping-pong (DESIGN.md §4.3).
#include <gtest/gtest.h>

#include "util/vec.hpp"

#include <algorithm>
#include <cmath>

#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"
#include "topology/presets.hpp"
#include "util/stats.hpp"
#include "vclock/global_clock.hpp"

namespace hcs::simmpi {
namespace {

TEST(Burst, ProducesRequestedExchanges) {
  World w(topology::testbox(2, 1), 5);
  BurstResult client_result, ref_result;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    auto res = co_await ctx.comm_world().pingpong_burst(1 - ctx.rank(), ctx.rank() == 1, *clk, 25);
    if (ctx.rank() == 1) client_result = std::move(res);
    else ref_result = std::move(res);
  });
  EXPECT_EQ(client_result.samples.size(), 25u);
  EXPECT_EQ(ref_result.samples.size(), 25u);  // both sides observe the same schedule
}

TEST(Burst, TimestampsAreOrderedPerExchange) {
  World w(topology::testbox(2, 1), 7);
  BurstResult result;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    auto res = co_await ctx.comm_world().pingpong_burst(1 - ctx.rank(), ctx.rank() == 1, *clk, 50);
    if (ctx.rank() == 1) result = std::move(res);
  });
  for (const PingSample& s : result.samples) {
    // The client's receive strictly follows its send (same clock).
    EXPECT_GT(s.client_recv, s.client_send);
  }
}

TEST(Burst, RttConsistentWithNetworkModel) {
  const auto machine = topology::testbox(2, 1);
  World w(machine, 9);
  BurstResult result;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    auto res = co_await ctx.comm_world().pingpong_burst(1 - ctx.rank(), ctx.rank() == 1, *clk, 200);
    if (ctx.rank() == 1) result = std::move(res);
  });
  std::vector<double> rtts;
  for (const PingSample& s : result.samples) rtts.push_back(s.client_recv - s.client_send);
  // RTT >= 2 * (base one-way) + turnaround overheads.
  const double floor = 2 * machine.net.inter_node.base_latency;
  EXPECT_GT(util::min(rtts), floor);
  EXPECT_LT(util::mean(rtts), floor + 10e-6);
}

TEST(Burst, AdvancesSimulationTimeForBothSides) {
  World w(topology::testbox(2, 1), 11);
  sim::Time client_end = 0, ref_end = 0;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    co_await ctx.comm_world().pingpong_burst(1 - ctx.rank(), ctx.rank() == 1, *clk, 100);
    if (ctx.rank() == 1) client_end = ctx.sim().now();
    else ref_end = ctx.sim().now();
  });
  EXPECT_GT(client_end, 100 * 2 * 1.0e-6);  // 100 round trips
  EXPECT_GT(client_end, ref_end);           // ref finishes at its last reply
}

TEST(Burst, BackToBackBurstsWork) {
  World w(topology::testbox(2, 1), 13);
  int client_total = 0;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    for (int i = 0; i < 10; ++i) {
      auto res =
          co_await ctx.comm_world().pingpong_burst(1 - ctx.rank(), ctx.rank() == 1, *clk, 5);
      if (ctx.rank() == 1) client_total += static_cast<int>(res.samples.size());
    }
  });
  EXPECT_EQ(client_total, 50);
}

TEST(Burst, ConcurrentPairsDoNotInterfere) {
  World w(topology::testbox(2, 2), 15);  // ranks 0,1 on node 0; 2,3 on node 1
  std::vector<int> counts(4, 0);
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    const int partner = ctx.rank() ^ 2;  // pairs (0,2) and (1,3)
    auto res = co_await ctx.comm_world().pingpong_burst(partner, ctx.rank() >= 2, *clk, 20);
    counts[static_cast<std::size_t>(ctx.rank())] = static_cast<int>(res.samples.size());
  });
  for (int c : counts) EXPECT_EQ(c, 20);
}

TEST(Burst, MismatchedRolesRejected) {
  World w(topology::testbox(2, 1), 17);
  w.launch([](RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    // Both claim to be the client.
    co_await ctx.comm_world().pingpong_burst(1 - ctx.rank(), true, *clk, 5);
  });
  EXPECT_THROW(w.run(), std::logic_error);
}

// Intra-node pairing: both partners share a node, so the second arriver
// finds the first in its pairing slot and synthesizes the burst inline.
TEST(Burst, MismatchedRolesRejectedOnOneNode) {
  World w(topology::testbox(1, 2), 17);
  w.launch([](RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    co_await ctx.comm_world().pingpong_burst(1 - ctx.rank(), true, *clk, 5);
  });
  EXPECT_THROW(w.run(), std::logic_error);
}

TEST(Burst, ThirdRankWaitsWhileItsPartnerIsParkedForAnother) {
  // Rank 0 parks first, waiting for rank 1; rank 2 then asks rank 0 and
  // must park on its own rather than pair with 0's open burst.  Once 1
  // arrives and 0 finishes, 0's burst with 2 pairs from 2's slot.
  World w(topology::testbox(1, 3), 23);
  std::vector<std::size_t> samples;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    Comm& comm = ctx.comm_world();
    if (ctx.rank() == 0) {
      auto with1 = co_await comm.pingpong_burst(1, /*i_am_client=*/false, *clk, 7);
      auto with2 = co_await comm.pingpong_burst(2, /*i_am_client=*/false, *clk, 9);
      samples.push_back(with1.samples.size());
      samples.push_back(with2.samples.size());
    } else {
      co_await ctx.sim().delay(ctx.rank() == 1 ? 1e-3 : 0.5e-3);
      const int nexchanges = ctx.rank() == 1 ? 7 : 9;
      auto res = co_await comm.pingpong_burst(0, /*i_am_client=*/true, *clk, nexchanges);
      samples.push_back(res.samples.size());
    }
  });
  std::sort(samples.begin(), samples.end());
  EXPECT_EQ(samples, (std::vector<std::size_t>{7, 7, 9, 9}));
}

// Both sides read one synthesized schedule: the reference's samples are the
// client's, on the intra-node path (one shared state) and the cross-node one.
TEST(Burst, ReferenceGetsTheClientsSamples) {
  for (const auto& machine : {topology::testbox(1, 2), topology::testbox(2, 1)}) {
    World w(machine, 29);
    BurstResult client_result, ref_result;
    w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
      auto clk = ctx.base_clock();
      auto res =
          co_await ctx.comm_world().pingpong_burst(1 - ctx.rank(), ctx.rank() == 1, *clk, 12);
      if (ctx.rank() == 1) client_result = std::move(res);
      else ref_result = std::move(res);
    });
    ASSERT_EQ(client_result.samples.size(), 12u);
    ASSERT_EQ(ref_result.samples.size(), 12u);
    for (std::size_t i = 0; i < 12; ++i) {
      EXPECT_EQ(ref_result.samples[i].client_send, client_result.samples[i].client_send);
      EXPECT_EQ(ref_result.samples[i].ref_reply, client_result.samples[i].ref_reply);
      EXPECT_EQ(ref_result.samples[i].client_recv, client_result.samples[i].client_recv);
    }
    EXPECT_EQ(ref_result.requested, client_result.requested);
  }
}

TEST(Burst, RefTimestampReflectsRefClockOffset) {
  // Give the two nodes' clocks wildly different offsets; t_last must live on
  // the reference's clock, so (t_last - client mid-time) ~ ref-client offset.
  auto machine = topology::testbox(2, 1);
  machine.clocks.initial_offset_abs = 50e-3;
  machine.clocks.base_skew_abs = 0.0;
  machine.clocks.skew_walk_sd = 0.0;
  machine.clocks.read_noise_sd = 0.0;
  World w(machine, 19);
  const double off0 = w.base_clock(0)->at_exact(0.0);
  const double off1 = w.base_clock(1)->at_exact(0.0);
  BurstResult result;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    auto clk = ctx.base_clock();
    auto res = co_await ctx.comm_world().pingpong_burst(1 - ctx.rank(), ctx.rank() == 1, *clk, 30);
    if (ctx.rank() == 1) result = std::move(res);
  });
  std::vector<double> observed;
  for (const PingSample& s : result.samples) {
    observed.push_back(s.ref_reply - 0.5 * (s.client_send + s.client_recv));
  }
  EXPECT_NEAR(util::median(observed), off0 - off1, 5e-6);
}

// Statistical equivalence with an explicit message-level ping-pong.
TEST(Burst, MatchesMessageLevelPingPongDistribution) {
  const auto machine = topology::testbox(2, 1);

  // Message-level RTTs.
  std::vector<double> msg_rtts;
  {
    World w(machine, 21);
    w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
      Comm& comm = ctx.comm_world();
      auto clk = ctx.base_clock();
      for (int i = 0; i < 400; ++i) {
        if (ctx.rank() == 1) {
          const double t0 = clk->now();
          co_await comm.send(0, i, util::vec(t0));
          co_await comm.recv(0, 10000 + i);
          msg_rtts.push_back(clk->now() - t0);
        } else {
          co_await comm.recv(1, i);
          co_await comm.send(1, 10000 + i, util::vec(clk->now()));
        }
      }
    });
  }

  // Burst RTTs.
  std::vector<double> burst_rtts;
  {
    World w(machine, 22);
    w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
      auto clk = ctx.base_clock();
      auto res =
          co_await ctx.comm_world().pingpong_burst(1 - ctx.rank(), ctx.rank() == 1, *clk, 400);
      if (ctx.rank() == 1) {
        for (const PingSample& s : res.samples) burst_rtts.push_back(s.client_recv - s.client_send);
      }
    });
  }

  ASSERT_EQ(msg_rtts.size(), 400u);
  ASSERT_EQ(burst_rtts.size(), 400u);
  // Means within 15% and medians within 15%: same latency model.
  EXPECT_NEAR(util::mean(burst_rtts) / util::mean(msg_rtts), 1.0, 0.15);
  EXPECT_NEAR(util::median(burst_rtts) / util::median(msg_rtts), 1.0, 0.15);
}

}  // namespace
}  // namespace hcs::simmpi
