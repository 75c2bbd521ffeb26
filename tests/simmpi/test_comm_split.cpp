#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "util/vec.hpp"

#include "simmpi/collectives.hpp"
#include "simmpi/comm.hpp"
#include "topology/presets.hpp"

namespace hcs::simmpi {
namespace {

TEST(CommSplit, EvenOddSplit) {
  World w(topology::testbox(2, 3), 7);  // 6 ranks
  std::vector<int> sizes(6), ranks(6);
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm sub = co_await ctx.comm_world().split(ctx.rank() % 2, ctx.rank());
    sizes[static_cast<std::size_t>(ctx.rank())] = sub.size();
    ranks[static_cast<std::size_t>(ctx.rank())] = sub.rank();
  });
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(sizes[static_cast<std::size_t>(r)], 3);
    EXPECT_EQ(ranks[static_cast<std::size_t>(r)], r / 2);
  }
}

TEST(CommSplit, KeyOrdersNewRanks) {
  World w(topology::testbox(1, 4), 7);
  std::vector<int> new_rank(4);
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    // Reverse order: highest key to rank 0 ... lowest key gets highest rank.
    Comm sub = co_await ctx.comm_world().split(0, -ctx.rank());
    new_rank[static_cast<std::size_t>(ctx.rank())] = sub.rank();
  });
  EXPECT_EQ(new_rank, (std::vector<int>{3, 2, 1, 0}));
}

TEST(CommSplit, UndefinedColorYieldsInvalidComm) {
  World w(topology::testbox(1, 4), 7);
  std::vector<bool> valid(4, true);
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    const int color = (ctx.rank() == 0) ? 0 : Comm::kUndefined;
    Comm sub = co_await ctx.comm_world().split(color, 0);
    valid[static_cast<std::size_t>(ctx.rank())] = sub.valid();
  });
  EXPECT_TRUE(valid[0]);
  EXPECT_FALSE(valid[1]);
  EXPECT_FALSE(valid[2]);
  EXPECT_FALSE(valid[3]);
}

TEST(CommSplit, SharedNodeSplit) {
  World w(topology::testbox(3, 4), 7);  // 3 nodes x 4
  std::vector<int> sizes(12), local(12);
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm node = co_await ctx.comm_world().split_shared_node();
    sizes[static_cast<std::size_t>(ctx.rank())] = node.size();
    local[static_cast<std::size_t>(ctx.rank())] = node.rank();
  });
  for (int r = 0; r < 12; ++r) {
    EXPECT_EQ(sizes[static_cast<std::size_t>(r)], 4);
    EXPECT_EQ(local[static_cast<std::size_t>(r)], r % 4);
  }
}

TEST(CommSplit, SharedSocketSplit) {
  topology::MachineConfig m = topology::jupiter().with_nodes(2);  // 2 x 2 x 8
  World w(m, 7);
  std::vector<int> sizes(32);
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm sock = co_await ctx.comm_world().split_shared_socket();
    sizes[static_cast<std::size_t>(ctx.rank())] = sock.size();
  });
  for (int s : sizes) EXPECT_EQ(s, 8);
}

TEST(CommSplit, CollectivesWorkInsideSubcomm) {
  World w(topology::testbox(2, 4), 7);  // 8 ranks, split by node
  std::vector<double> sums(8, 0);
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm node = co_await ctx.comm_world().split_shared_node();
    auto out = co_await allreduce(node, util::vec(static_cast<double>(ctx.rank())), ReduceOp::kSum,
                                  AllreduceAlgo::kRecursiveDoubling);
    sums[static_cast<std::size_t>(ctx.rank())] = out.at(0);
  });
  // Node 0: ranks 0..3 sum to 6; node 1: ranks 4..7 sum to 22.
  for (int r = 0; r < 4; ++r) EXPECT_DOUBLE_EQ(sums[static_cast<std::size_t>(r)], 6.0);
  for (int r = 4; r < 8; ++r) EXPECT_DOUBLE_EQ(sums[static_cast<std::size_t>(r)], 22.0);
}

TEST(CommSplit, ConcurrentCollectivesOnSiblingCommsDontCrosstalk) {
  World w(topology::testbox(2, 4), 7);
  std::vector<double> results(8, 0);
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm node = co_await ctx.comm_world().split_shared_node();
    // Both node communicators run a sequence of collectives concurrently.
    for (int i = 0; i < 5; ++i) {
      auto out = co_await allreduce(node, util::vec(1.0), ReduceOp::kSum);
      results[static_cast<std::size_t>(ctx.rank())] += out.at(0);
    }
  });
  for (double v : results) EXPECT_DOUBLE_EQ(v, 20.0);  // 5 rounds x 4 ranks
}

TEST(CommSplit, NestedSplit) {
  World w(topology::testbox(2, 4), 7);
  std::vector<int> leader_comm_size(8, -1);
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm node = co_await ctx.comm_world().split_shared_node();
    // Leaders-only communicator, built from the world comm (Alg. 4 pattern).
    const int color = (node.rank() == 0) ? 0 : Comm::kUndefined;
    Comm leaders = co_await ctx.comm_world().split(color, ctx.rank());
    if (leaders.valid()) {
      leader_comm_size[static_cast<std::size_t>(ctx.rank())] = leaders.size();
    }
  });
  EXPECT_EQ(leader_comm_size[0], 2);
  EXPECT_EQ(leader_comm_size[4], 2);
  EXPECT_EQ(leader_comm_size[1], -1);
}

TEST(CommSplit, WorldRankMappingPreserved) {
  World w(topology::testbox(2, 2), 7);
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    Comm node = co_await ctx.comm_world().split_shared_node();
    EXPECT_EQ(node.my_world_rank(), ctx.rank());
    EXPECT_EQ(node.world_rank(node.rank()), ctx.rank());
  });
}

// The World's split board builds one list per color: every member of a color
// holds the same list, in (key, parent rank) order, and no member of another
// color or with an undefined color sees it.
TEST(CommSplit, EachColorSharesOneList) {
  World w(topology::testbox(2, 4), 7);  // 8 ranks
  std::vector<const std::vector<int>*> lists(8, nullptr);
  std::vector<std::vector<int>> members(8);
  std::vector<std::shared_ptr<const std::vector<int>>> keep_alive;
  w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
    const int color = ctx.rank() == 7 ? Comm::kUndefined : ctx.rank() % 2;
    Comm sub = co_await ctx.comm_world().split(color, -(ctx.rank() / 2));
    if (!sub.valid()) co_return;
    lists[static_cast<std::size_t>(ctx.rank())] = sub.members();
    members[static_cast<std::size_t>(ctx.rank())] = *sub.members();
  });
  EXPECT_EQ(members[0], (std::vector<int>{6, 4, 2, 0}));
  EXPECT_EQ(members[1], (std::vector<int>{5, 3, 1}));
  for (int r : {2, 4, 6}) EXPECT_EQ(lists[static_cast<std::size_t>(r)], lists[0]);
  for (int r : {3, 5}) EXPECT_EQ(lists[static_cast<std::size_t>(r)], lists[1]);
  EXPECT_NE(lists[0], lists[1]);
  EXPECT_EQ(lists[7], nullptr);
}

// Split boards are written from every shard's thread; the outcome (member
// lists, new ranks, and the simulated time the split completes at) is the
// same for any shard count.
TEST(CommSplit, ShardedSplitMatchesUnsharded) {
  auto run = [](int shards) {
    World w(topology::testbox(4, 4), 7, {}, shards);  // 16 ranks
    std::vector<std::vector<int>> out(16);
    w.run_all([&](RankCtx& ctx) -> sim::Task<void> {
      Comm node = co_await ctx.comm_world().split_shared_node();
      const int color = node.rank() == 0 ? 0 : Comm::kUndefined;
      Comm leaders = co_await ctx.comm_world().split(color, ctx.rank());
      std::vector<int>& mine = out[static_cast<std::size_t>(ctx.rank())];
      mine = *node.members();
      mine.push_back(node.rank());
      if (leaders.valid()) {
        mine.insert(mine.end(), leaders.members()->begin(), leaders.members()->end());
      }
      mine.push_back(static_cast<int>(ctx.sim().now() * 1e9));
    });
    return out;
  };
  const auto serial = run(1);
  EXPECT_EQ(serial[5], (std::vector<int>{4, 5, 6, 7, 1, serial[5].back()}));
  EXPECT_EQ(serial[4], (std::vector<int>{4, 5, 6, 7, 0, 0, 4, 8, 12, serial[4].back()}));
  EXPECT_EQ(run(2), serial);
  EXPECT_EQ(run(4), serial);
}

}  // namespace
}  // namespace hcs::simmpi
