// World-level semantics: rank contexts, clock sharing, launch/run lifecycle,
// plus a randomized soak test of the transport (no message loss, per-flow
// FIFO, determinism under load).
#include <gtest/gtest.h>

#include <map>

#include "simmpi/comm.hpp"
#include "topology/presets.hpp"
#include "util/vec.hpp"

namespace hcs::simmpi {
namespace {

TEST(World, SizeMatchesTopology) {
  World w(topology::testbox(3, 4), 1);
  EXPECT_EQ(w.size(), 12);
  EXPECT_EQ(w.machine().name, "Testbox");
}

TEST(World, RanksOnSameNodeShareHardwareClock) {
  World w(topology::testbox(2, 3), 1);  // per-node time source
  EXPECT_EQ(w.base_clock(0).get(), w.base_clock(2).get());
  EXPECT_NE(w.base_clock(0).get(), w.base_clock(3).get());
}

TEST(World, PerCoreScopeGivesDistinctClocks) {
  auto m = topology::testbox(1, 4).with_time_source(topology::TimeSourceScope::kPerCore);
  World w(m, 1);
  for (int a = 0; a < 4; ++a) {
    for (int b = a + 1; b < 4; ++b) {
      EXPECT_NE(w.base_clock(a).get(), w.base_clock(b).get());
    }
  }
}

TEST(World, CtxExposesRankAndWorldComm) {
  World w(topology::testbox(1, 3), 1);
  for (int r = 0; r < 3; ++r) {
    RankCtx& ctx = w.ctx(r);
    EXPECT_EQ(ctx.rank(), r);
    EXPECT_EQ(ctx.comm_world().rank(), r);
    EXPECT_EQ(ctx.comm_world().size(), 3);
    EXPECT_EQ(&ctx.world(), &w);
  }
}

TEST(World, RunAllCompletesAllProcesses) {
  World w(topology::testbox(2, 2), 1);
  int completed = 0;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    co_await ctx.sim().delay(1e-6 * (ctx.rank() + 1));
    ++completed;
  });
  EXPECT_EQ(completed, 4);
  EXPECT_EQ(w.sim().processes_finished(), w.sim().processes_spawned());
}

TEST(World, EventBudgetSurfacesFromRun) {
  World w(topology::testbox(1, 1), 1);
  w.launch([](RankCtx& ctx) -> sim::Task<void> {
    for (;;) co_await ctx.sim().delay(1e-9);
  });
  EXPECT_THROW(w.run(500), std::runtime_error);
}

// Randomized soak: every rank fires a random schedule of messages at random
// peers; every message must arrive exactly once, in per-(src,tag) FIFO order.
TEST(World, RandomTrafficSoak) {
  World w(topology::testbox(3, 3), 99);
  const int p = w.size();
  constexpr int kPerRank = 120;
  // expected[dst][src] = number of messages.
  std::vector<std::vector<int>> sent(static_cast<std::size_t>(p),
                                     std::vector<int>(static_cast<std::size_t>(p), 0));
  // Precompute the schedule deterministically so senders and receivers agree.
  sim::Rng plan(1234);
  std::vector<std::vector<int>> targets(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    for (int i = 0; i < kPerRank; ++i) {
      int dst = static_cast<int>(plan.uniform_index(static_cast<std::uint64_t>(p - 1)));
      if (dst >= r) ++dst;  // never self
      targets[static_cast<std::size_t>(r)].push_back(dst);
      ++sent[static_cast<std::size_t>(dst)][static_cast<std::size_t>(r)];
    }
  }
  std::vector<std::vector<double>> received_seqs(static_cast<std::size_t>(p * p));
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm& comm = ctx.comm_world();
    const int me = ctx.rank();
    // Post all my irecvs up front (tag = source rank).
    std::vector<std::vector<RecvRequest>> reqs(static_cast<std::size_t>(p));
    for (int src = 0; src < p; ++src) {
      for (int i = 0; i < sent[static_cast<std::size_t>(me)][static_cast<std::size_t>(src)];
           ++i) {
        reqs[static_cast<std::size_t>(src)].push_back(comm.irecv(src, src));
      }
    }
    // Fire my sends with random gaps; payload carries a per-flow sequence no.
    sim::Rng gaps(static_cast<std::uint64_t>(me) + 1);
    std::map<int, int> seq;
    for (int dst : targets[static_cast<std::size_t>(me)]) {
      co_await ctx.sim().delay(gaps.exponential(2e-6));
      co_await comm.send(dst, me, util::vec(static_cast<double>(seq[dst]++)));
    }
    // Drain.
    for (int src = 0; src < p; ++src) {
      for (auto& req : reqs[static_cast<std::size_t>(src)]) {
        const Message m = co_await comm.wait(std::move(req));
        received_seqs[static_cast<std::size_t>(me * p + src)].push_back(m.data.at(0));
      }
    }
  });
  // Exactly-once, FIFO per flow.
  for (int dst = 0; dst < p; ++dst) {
    for (int src = 0; src < p; ++src) {
      const auto& seqs = received_seqs[static_cast<std::size_t>(dst * p + src)];
      ASSERT_EQ(static_cast<int>(seqs.size()),
                sent[static_cast<std::size_t>(dst)][static_cast<std::size_t>(src)]);
      for (std::size_t i = 0; i < seqs.size(); ++i) {
        EXPECT_DOUBLE_EQ(seqs[i], static_cast<double>(i)) << "flow " << src << "->" << dst;
      }
    }
  }
}

TEST(World, SoakIsDeterministic) {
  auto run_once = [] {
    World w(topology::testbox(2, 2), 77);
    sim::Time end = 0;
    w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
      Comm& comm = ctx.comm_world();
      const int p = comm.size();
      sim::Rng gaps(static_cast<std::uint64_t>(ctx.rank()) + 1);
      for (int i = 0; i < 40; ++i) {
        const int dist = 1 + i % (p - 1);
        const int right = (ctx.rank() + dist) % p;
        const int left = (ctx.rank() - dist + p) % p;
        RecvRequest req = comm.irecv(left, i);
        co_await comm.send(right, i, util::vec(1.0));
        (void)co_await comm.wait(std::move(req));
        co_await ctx.sim().delay(gaps.exponential(1e-6));
      }
      end = std::max(end, ctx.sim().now());
    });
    return std::make_pair(end, w.sim().events_processed());
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace hcs::simmpi
