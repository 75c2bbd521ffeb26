// Conservative-PDES engine (docs/parallel-simulation.md): window scheduler
// lookahead math, shard partitioning, cross-shard mailbox ordering, and the
// headline guarantee — bit-identical results for any shard count, clean and
// under fault/crash plans.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "clocksync/factory.hpp"
#include "fault/fault_plan.hpp"
#include "sim/simulation.hpp"
#include "simmpi/comm.hpp"
#include "topology/presets.hpp"
#include "util/vec.hpp"

namespace hcs::simmpi {
namespace {

fault::FaultPlan plan_of(const std::vector<std::string>& specs) {
  fault::FaultPlan plan;
  for (const std::string& s : specs) plan.add(s);
  return plan;
}

// ------------------------------------------------------- window scheduler --

TEST(Lookahead, IsTheInterNodeBaseLatency) {
  const auto machine = topology::testbox(4, 2);
  World w(machine, 7, {}, 4);
  EXPECT_EQ(w.lookahead(), machine.net.inter_node.base_latency);
  EXPECT_GT(w.lookahead(), 0.0);
}

TEST(Lookahead, IndependentOfShardCount) {
  const auto machine = topology::testbox(4, 2);
  EXPECT_EQ(World(machine, 7, {}, 1).lookahead(), World(machine, 7, {}, 4).lookahead());
}

TEST(RunWindow, ProcessesStrictlyBelowTheBoundary) {
  sim::Simulation s;
  int fired_early = 0, fired_late = 0;
  s.spawn([](sim::Simulation& sim, int& early, int& late) -> sim::Task<void> {
    co_await sim.delay(1.0);
    ++early;
    co_await sim.delay(1.0);  // resumes at exactly t = 2.0
    ++late;
  }(s, fired_early, fired_late));
  s.run_window(2.0);  // the t == 2.0 event must stay queued
  EXPECT_EQ(fired_early, 1);
  EXPECT_EQ(fired_late, 0);
  ASSERT_FALSE(s.idle());
  EXPECT_EQ(s.next_event_time(), 2.0);
  s.run_window(3.0);
  EXPECT_EQ(fired_late, 1);
  EXPECT_TRUE(s.idle());
}

TEST(RunWindow, ParksErrorsForTakeError) {
  sim::Simulation s;
  s.spawn([](sim::Simulation& sim) -> sim::Task<void> {
    co_await sim.delay(1.0);
    throw std::runtime_error("boom");
  }(s));
  s.run_window(2.0);  // must not throw across a shard barrier
  const std::exception_ptr error = s.take_error();
  ASSERT_TRUE(error);
  EXPECT_THROW(std::rethrow_exception(error), std::runtime_error);
  EXPECT_TRUE(s.idle());                 // take_error drops queued events
  EXPECT_EQ(s.take_error(), nullptr);    // one-shot
}

TEST(RunWindow, BudgetGuardCountsLifetimeEvents) {
  sim::Simulation s;
  s.spawn([](sim::Simulation& sim) -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) co_await sim.delay(1.0);
  }(s));
  s.run_window(100.0, 3);
  EXPECT_TRUE(s.take_error());  // fourth event would exceed the cap of 3
}

// ------------------------------------------------------------ partitioning --

TEST(ShardPartition, NodeAlignedContiguousAndComplete) {
  const auto machine = topology::testbox(8, 2);
  for (const int shards : {1, 2, 3, 8}) {
    World w(machine, 5, {}, shards);
    ASSERT_EQ(w.shards(), shards);
    int prev = 0;
    std::vector<bool> used(static_cast<std::size_t>(shards), false);
    for (int r = 0; r < w.size(); ++r) {
      const int s = w.shard_of_rank(r);
      ASSERT_GE(s, prev);  // contiguous node ranges
      ASSERT_LT(s, shards);
      used[static_cast<std::size_t>(s)] = true;
      prev = s;
      // Node-aligned: a co-located rank lands in the same shard.
      EXPECT_EQ(s, w.shard_of_rank(r - (r % 2)));
    }
    for (const bool u : used) EXPECT_TRUE(u);  // no empty shard
  }
}

TEST(ShardPartition, ClampsToNodeCount) {
  World w(topology::testbox(3, 2), 5, {}, 64);
  EXPECT_EQ(w.shards(), 3);
  EXPECT_EQ(World(topology::testbox(3, 2), 5, {}, -4).shards(), 1);
}

TEST(ShardPartition, RanksOnSameNodeShareTheSimulation) {
  World w(topology::testbox(4, 2), 5, {}, 4);
  EXPECT_EQ(&w.sim_of(0), &w.sim_of(1));
  EXPECT_NE(&w.sim_of(0), &w.sim_of(2));
  EXPECT_EQ(&w.sim_of(0), &w.sim());  // rank 0 lives in shard 0
}

// ------------------------------------------------- cross-shard transport --

// All-to-one across node boundaries with channel sequencing active (any net
// fault plan turns it on): per-channel FIFO must survive the window-boundary
// outbox merge — including dropped-and-retransmitted messages — at every
// shard count.
TEST(CrossShardMailbox, PerChannelFifoAcrossWindows) {
  for (const int shards : {1, 2, 4}) {
    World w(topology::testbox(4, 1), 11, plan_of({"drop:p=0.1"}), shards);
    const int p = w.size();
    const int dst = p - 1;
    constexpr int kMsgs = 20;
    bool fifo_ok = true;
    w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
      auto& comm = ctx.comm_world();
      if (ctx.rank() == dst) {
        for (int src = 0; src + 1 < p; ++src) {
          for (int i = 0; i < kMsgs; ++i) {
            const Message m = co_await comm.recv(src, 7);
            if (m.data[0] != static_cast<double>(i)) fifo_ok = false;
          }
        }
      } else {
        for (int i = 0; i < kMsgs; ++i) {
          co_await comm.send(dst, 7, util::vec(static_cast<double>(i)));
        }
      }
    });
    EXPECT_TRUE(fifo_ok) << "shards=" << shards;
  }
}

// Fault-free the transport promises no total FIFO (wire jitter may reorder
// same-channel messages) — but the timeline it produces must be the SAME at
// every shard count.  All-to-one maximizes merge pressure on the receiving
// NIC; the recorded post-recv timestamps observe every ingress-admission
// decision, so any shard-dependent merge would shift them.
TEST(CrossShardMailbox, MergeOrderMatchesUnshardedEngine) {
  auto arrival_times = [](int shards) {
    World w(topology::testbox(4, 1), 11, {}, shards);
    const int p = w.size();
    const int dst = p - 1;
    constexpr int kMsgs = 20;
    std::vector<double> times;
    w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
      auto& comm = ctx.comm_world();
      if (ctx.rank() == dst) {
        for (int i = 0; i < kMsgs; ++i) {
          for (int src = 0; src + 1 < p; ++src) {
            const Message m = co_await comm.recv(src, i);
            times.push_back(m.arrived_at);
            times.push_back(ctx.sim().now());
          }
        }
      } else {
        for (int i = 0; i < kMsgs; ++i) {
          co_await comm.send(dst, i, util::vec(static_cast<double>(ctx.rank() * 100 + i)));
        }
      }
    });
    return times;
  };
  const std::vector<double> base = arrival_times(1);
  for (const int shards : {2, 4}) {
    EXPECT_EQ(base, arrival_times(shards)) << "shards=" << shards;
  }
}

// Transport-level determinism fixture: a ring of cross-node exchanges whose
// per-rank completion times and payload checksums must match bit-for-bit at
// every shard count.
std::vector<double> ring_trace(int shards, const fault::FaultPlan& plan) {
  World w(topology::testbox(4, 2), 42, plan, shards);
  const int p = w.size();
  std::vector<double> out(static_cast<std::size_t>(2 * p), 0.0);
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    auto& comm = ctx.comm_world();
    const int me = ctx.rank();
    const int next = (me + 2) % p;      // always a different node (2 cores/node)
    const int prev = (me + p - 2) % p;
    for (int i = 0; i < 6; ++i) {
      co_await comm.send(next, i, util::vec(static_cast<double>(me * 100 + i)));
      const Message m = co_await comm.recv(prev, i);
      out[static_cast<std::size_t>(2 * me)] += m.data[0] + ctx.sim().now();
    }
    out[static_cast<std::size_t>(2 * me) + 1] = ctx.sim().now();
  });
  return out;
}

TEST(ShardDeterminism, RingTraceBitIdenticalCleanAndFaulted) {
  const std::vector<fault::FaultPlan> plans = {
      {},
      plan_of({"drop:p=0.1", "duplicate:p=0.05"}),
      plan_of({"crash:rank=3,at=0.0005s"}),
  };
  for (const auto& plan : plans) {
    const std::vector<double> base = ring_trace(1, plan);
    for (const int shards : {2, 4}) {
      EXPECT_EQ(base, ring_trace(shards, plan)) << "shards=" << shards;
    }
  }
}

// End-to-end determinism: a full hierarchical sync (ping-pong bursts, fits,
// collectives) must produce bit-identical per-rank corrections at every
// shard count — the unit-level version of the bench golden gates.
std::vector<double> sync_trace(int shards, const fault::FaultPlan& plan) {
  World w(topology::testbox(4, 2), 9, plan, shards);
  const int p = w.size();
  std::vector<double> out(static_cast<std::size_t>(2 * p), 0.0);
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    auto sync = clocksync::make_sync("hca2/recompute_intercept/20/skampi_offset/5");
    const auto clock = co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    const std::size_t me = static_cast<std::size_t>(ctx.rank());
    out[2 * me] = clock->at_exact(0.5);
    out[2 * me + 1] = ctx.sim().now();
  });
  return out;
}

TEST(ShardDeterminism, FullSyncBitIdenticalCleanAndFaulted) {
  const std::vector<fault::FaultPlan> plans = {
      {},
      plan_of({"drop:p=0.02", "clockstep:rank=3,at=0.01s,step=50us"}),
      plan_of({"crash:rank=5,at=0.01s"}),
  };
  for (const auto& plan : plans) {
    const std::vector<double> base = sync_trace(1, plan);
    for (const int shards : {2, 4}) {
      EXPECT_EQ(base, sync_trace(shards, plan)) << "shards=" << shards;
    }
  }
}

// Window-boundary ordering: the boundary only fills each destination shard's
// lists, and the shard applies them on its own thread — deliveries in the
// global merge order, then burst resumes in (key, role) order.  One program
// mixes inter-node p2p traffic (duplicated and reordered by the fault plan)
// with cross-node bursts, so deliveries and resumes reach the same queues at
// the same boundaries.  Single-exchange bursts let a reference finish inside
// the window it joined, so several resumes tie at the window end and their
// (key, role) order shows.  It also pins the boundary's clock: a delivery
// time computed from the destination shard's own clock rounds differently
// per layout and moves a window end by an ulp.  Every rank's observations
// must match at 1, 2, 3 and 4 shards (3 splits the four nodes 2 + 1 + 1, 4
// puts one node per shard).
std::vector<double> mixed_trace(int shards) {
  World w(topology::testbox(4, 4), 5,
          plan_of({"duplicate:p=0.2", "reorder:p=0.2,delay=20us"}), shards);
  const int p = w.size();
  std::vector<std::vector<double>> per_rank(static_cast<std::size_t>(p));
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    auto& comm = ctx.comm_world();
    const int me = ctx.rank();
    // Every node hears from both neighbouring nodes, so at 2+ shards its
    // NIC admits messages from two senders' outboxes in one merge.
    const int right = (me + 4) % p;
    const int left = (me + p - 4) % p;
    const int partner = me ^ 4;  // bursts with the paired node
    const vclock::ClockPtr clock = ctx.base_clock();
    std::vector<double>& out = per_rank[static_cast<std::size_t>(me)];
    for (int i = 0; i < 8; ++i) {
      co_await ctx.sim().delay(1e-6 * ((me + i) % 3));
      const SendRequest to_right = comm.isend(right, i, util::vec(me * 100.0 + i));
      const SendRequest to_left = comm.isend(left, 100 + i, util::vec(me * 100.0 - i));
      const BurstResult burst = co_await comm.pingpong_burst(partner, me < partner, *clock, 1);
      out.push_back(ctx.sim().now());
      for (const PingSample& ps : burst.samples) {
        out.insert(out.end(), {ps.client_send, ps.ref_reply, ps.client_recv});
      }
      const Message from_left = co_await comm.recv(left, i);
      const Message from_right = co_await comm.recv(right, 100 + i);
      out.insert(out.end(), {from_left.data[0], from_left.arrived_at, from_right.data[0],
                             from_right.arrived_at, ctx.sim().now()});
      co_await comm.wait(to_right);
      co_await comm.wait(to_left);
    }
  });
  std::vector<double> flat;
  for (const auto& rank_trace : per_rank) {
    flat.insert(flat.end(), rank_trace.begin(), rank_trace.end());
  }
  return flat;
}

TEST(ShardDeterminism, BoundaryListsKeepDeliveriesAndResumesInGlobalOrder) {
  const std::vector<double> base = mixed_trace(1);
  ASSERT_GE(base.size(), 16u * 8u * 6u);  // two times, two receives per round, plus samples
  for (const int shards : {2, 3, 4}) {
    EXPECT_EQ(base, mixed_trace(shards)) << "shards=" << shards;
  }
}

// ----------------------------------------------------- engine error paths --

TEST(ShardedEngine, DeadlockStillDetected) {
  World w(topology::testbox(2, 1), 3, {}, 2);
  w.launch([](RankCtx& ctx) -> sim::Task<void> {
    if (ctx.rank() == 0) (void)co_await ctx.comm_world().recv(1, 0);  // never sent
    co_return;
  });
  try {
    w.run();
    FAIL() << "expected a deadlock error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlock"), std::string::npos);
  }
}

TEST(ShardedEngine, EventBudgetSurfacesFromRun) {
  for (const int shards : {1, 2}) {
    World w(topology::testbox(2, 1), 3, {}, shards);
    w.launch([](RankCtx& ctx) -> sim::Task<void> {
      for (;;) co_await ctx.sim().delay(1e-9);
    });
    EXPECT_THROW(w.run(500), std::runtime_error) << "shards=" << shards;
  }
}

TEST(ShardedEngine, RankErrorPropagatesFromWorkerShard) {
  World w(topology::testbox(4, 1), 3, {}, 4);
  w.launch([](RankCtx& ctx) -> sim::Task<void> {
    co_await ctx.sim().delay(1e-6);
    if (ctx.rank() == 3) throw std::logic_error("rank 3 exploded");
    co_await ctx.sim().delay(1.0);
  });
  EXPECT_THROW(w.run(), std::logic_error);
}

}  // namespace
}  // namespace hcs::simmpi
