// Communicator and channel state representations: the world communicator
// and every all-up view are the identity (no member list), views under churn
// share one World-owned list per membership epoch, and the sparse channel
// sequence maps repair duplicate/reorder faults exactly as before.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fault/fault_plan.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/world.hpp"
#include "topology/presets.hpp"
#include "trace/metrics.hpp"

namespace hcs::simmpi {
namespace {

void expect_identity(const Comm& comm, int world_size) {
  EXPECT_TRUE(comm.valid());
  EXPECT_EQ(comm.members(), nullptr);
  ASSERT_EQ(comm.size(), world_size);
  for (int i = 0; i < world_size; ++i) EXPECT_EQ(comm.world_rank(i), i);
}

TEST(CommState, WorldCommIsTheIdentity) {
  World w(topology::testbox(3, 4), 7);
  for (int r = 0; r < w.size(); ++r) {
    const Comm comm = Comm::world_comm(w, r);
    expect_identity(comm, w.size());
    EXPECT_EQ(comm.rank(), r);
    EXPECT_EQ(comm.my_world_rank(), r);
  }
  const Comm null_comm;
  EXPECT_FALSE(null_comm.valid());
  EXPECT_EQ(null_comm.size(), 0);
}

// An all-up view at epoch 0 is indistinguishable from the world communicator
// (same context, so the same tags), with or without an armed churn plan.
// (coll_seq << 16) ^ phase stays injective only below 2^16: a larger phase
// would alias the next collective's tags, so it is refused.
TEST(CommState, CollectivePhaseOutsideSixteenBitsThrows) {
  World w(topology::testbox(1, 2), 7);
  const Comm comm = Comm::world_comm(w, 0);
  EXPECT_NO_THROW(comm.collective_tag(0));
  EXPECT_NO_THROW(comm.collective_tag(65535));
  EXPECT_THROW(comm.collective_tag(65536), std::length_error);
  EXPECT_THROW(comm.collective_tag(20000 + 45536), std::length_error)
      << "ring allreduce's allgather pass on 45 538 ranks";
  EXPECT_THROW(comm.collective_tag(-1), std::length_error);
}

TEST(CommState, EpochZeroViewMatchesWorldComm) {
  fault::FaultPlan armed;
  armed.add("leave:rank=3,at=1e6s");
  armed.add("rejoin:rank=3,at=2e6s");
  for (const fault::FaultPlan& plan : {fault::FaultPlan{}, armed}) {
    World w(topology::testbox(2, 4), 7, plan);
    for (int r = 0; r < w.size(); ++r) {
      const Comm world = Comm::world_comm(w, r);
      const Comm view = Comm::view_comm(w, r, 0.0);
      expect_identity(view, w.size());
      EXPECT_EQ(view.rank(), r);
      EXPECT_EQ(view.view_epoch(), 0u);
      EXPECT_EQ(view.collective_tag(5), world.collective_tag(5));
    }
  }
}

// The per-epoch lists reproduce the fault plan's is_down at every instant,
// including transition instants, simultaneous transitions, and a rank that
// is down from t = 0 (no transition of its own).
TEST(CommState, ViewMembersFollowIsDownAtEveryInstant) {
  fault::FaultPlan plan;
  plan.add("join:rank=3,at=1ms");
  plan.add("leave:rank=1,at=2ms");
  plan.add("rejoin:rank=1,at=4ms");
  plan.add("crash:rank=6,at=2ms");
  plan.add("crash:rank=7,at=0s");
  World w(topology::testbox(2, 4), 7, plan);
  const fault::FaultInjector* fault = w.fault_injector();
  ASSERT_NE(fault, nullptr);
  std::vector<sim::Time> probes = {0.0, 0.5e-3, 1e-3, 1.5e-3, 2e-3, 3e-3, 4e-3, 5e-3, 1.0};
  for (const sim::Time t : std::vector<sim::Time>(probes)) {
    if (t > 0.0) probes.push_back(std::nextafter(t, 0.0));
  }
  for (const sim::Time t : probes) {
    std::vector<int> expected;
    for (int r = 0; r < w.size(); ++r) {
      if (!fault->is_down(r, t)) expected.push_back(r);
    }
    const auto members = w.view_members(w.membership_epoch(t));
    std::vector<int> got(static_cast<std::size_t>(w.size()));
    std::iota(got.begin(), got.end(), 0);
    if (members) got = *members;
    EXPECT_EQ(got, expected) << "t=" << t;
  }
}

// Under churn every rank's view at the same instant shares the World's one
// list, and a restarted rank's reset world communicator is the identity.
TEST(CommState, ChurnViewsShareOneListAndRestartsResetToIdentity) {
  constexpr sim::Time kAt = 2e-3;
  fault::FaultPlan plan;
  plan.add("leave:rank=2,at=1ms");
  plan.add("rejoin:rank=2,at=3ms");
  World w(topology::testbox(2, 4), 7, plan);
  const int p = w.size();
  std::vector<const std::vector<int>*> lists(static_cast<std::size_t>(p), nullptr);
  std::vector<int> view_sizes(static_cast<std::size_t>(p), -1);
  std::vector<int> incarnations(static_cast<std::size_t>(p), 0);
  std::vector<bool> world_identity(static_cast<std::size_t>(p), true);
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    const int me = ctx.rank();
    const Comm& world = ctx.comm_world();
    ++incarnations[static_cast<std::size_t>(me)];
    bool identity = world.members() == nullptr && world.size() == p;
    for (int i = 0; i < world.size(); ++i) identity = identity && world.world_rank(i) == i;
    world_identity[static_cast<std::size_t>(me)] =
        world_identity[static_cast<std::size_t>(me)] && identity;
    sim::Simulation& s = ctx.sim();
    if (s.now() < kAt) co_await s.delay(kAt - s.now());
    ctx.world().check_crash(me);
    if (ctx.world().fault_injector()->is_down(me, kAt)) co_return;  // restarted after kAt
    const Comm view = Comm::view_comm(ctx.world(), me, kAt);
    lists[static_cast<std::size_t>(me)] = view.members();
    view_sizes[static_cast<std::size_t>(me)] = view.size();
    EXPECT_EQ(view.my_world_rank(), me);
  });
  const auto shared = w.view_members(w.membership_epoch(kAt));
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(*shared, (std::vector<int>{0, 1, 3, 4, 5, 6, 7}));
  for (int r = 0; r < p; ++r) {
    EXPECT_TRUE(world_identity[static_cast<std::size_t>(r)]) << "rank " << r;
    if (r == 2) {
      EXPECT_EQ(incarnations[2], 2) << "rank 2 must run again after its restart";
      EXPECT_EQ(lists[2], nullptr);
      continue;
    }
    EXPECT_EQ(lists[static_cast<std::size_t>(r)], shared.get()) << "rank " << r;
    EXPECT_EQ(view_sizes[static_cast<std::size_t>(r)], p - 1);
  }
  // After the rejoin everyone is up again: the identity, under the new epoch.
  const Comm later = Comm::view_comm(w, 0, 3.5e-3);
  expect_identity(later, p);
  EXPECT_EQ(later.view_epoch(), 2u);
  EXPECT_NE(later.collective_tag(0), Comm::world_comm(w, 0).collective_tag(0));
}

// Channel repair at scale: a 4 096-rank ring under duplicate + reorder
// faults absorbs exactly the duplicates it always did and delivers the same
// messages at the same instants (values captured from the dense-table
// implementation the sparse per-channel maps replaced).
TEST(CommState, DuplicateReorderRunAt4096RanksIsUnchanged) {
  fault::FaultPlan plan;
  plan.add("duplicate:p=0.05");
  plan.add("reorder:p=0.05,delay=20us");
  trace::MetricsRegistry registry;
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  {
    const trace::ScopedMetrics install(&registry);
    World world(topology::titan().with_nodes(256), 11, plan, 1);
    std::vector<std::vector<double>> arrivals(static_cast<std::size_t>(world.size()));
    world.run_all([&](RankCtx& ctx) -> sim::Task<void> {
      Comm& comm = ctx.comm_world();
      const int p = comm.size();
      const int r = comm.rank();
      for (int round = 0; round < 4; ++round) {
        std::vector<double> right(2, static_cast<double>(r));
        std::vector<double> left(2, static_cast<double>(r));
        right[1] = round;
        left[1] = -round;
        co_await comm.send((r + 1) % p, round, std::move(right));
        co_await comm.send((r + p - 1) % p, round, std::move(left));
        for (int side = 0; side < 2; ++side) {
          const int src = side == 0 ? (r + p - 1) % p : (r + 1) % p;
          const Message m = co_await comm.recv(src, round);
          auto& mine = arrivals[static_cast<std::size_t>(r)];
          mine.push_back(m.arrived_at);
          mine.insert(mine.end(), m.data.begin(), m.data.end());
        }
      }
    });
    for (const std::vector<double>& per_rank : arrivals) {
      for (const double v : per_rank) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        digest = (digest ^ bits) * 0x100000001b3ULL;
      }
    }
  }
  EXPECT_EQ(registry.counter("fault.net.dup_absorbed").value(), 1620u);
  EXPECT_EQ(digest, 0x6a0e002ee0fe4a94ULL);
}

}  // namespace
}  // namespace hcs::simmpi
