// Complexity-regression gate: a World's peak heap footprint must grow
// linearly with its rank count.  Every allocation made through the global
// operator new is counted (the replacement below forwards to malloc/free, so
// sanitizers still see each block); a Titan World runs the same program — a
// ring exchange, or an H2HCA sync with its two communicator splits — at
// 1 024 and at 4 096 ranks, and the peak live bytes may grow by at most 4.5x
// for the 4x rank count.  A per-rank O(p) structure — the p^2 member lists,
// channel tables, view lists and split exchange buffers this gate was
// written against — shows up as a ~10-16x ratio.
//
// A second gate holds a sharded World to its serial footprint: every
// coroutine frame must die on the thread that allocated it, or the frame
// pool's per-thread caches keep carving fresh slabs for the allocating
// thread while the freeing one hoards the old blocks.
//
// Every World runs in a forked child: the coroutine frame arena keeps its
// slabs until process exit, so a World run earlier in the same process
// would lend the measured one its frames uncounted.
#include <gtest/gtest.h>

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "clocksync/factory.hpp"
#include "fault/fault_plan.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/world.hpp"
#include "topology/presets.hpp"

namespace {

std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};

void count_alloc(void* p) {
  const auto n = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live = g_live.fetch_add(n) + n;
  std::int64_t peak = g_peak.load();
  while (live > peak && !g_peak.compare_exchange_weak(peak, live)) {
  }
}

}  // namespace

void* operator new(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  count_alloc(p);
  return p;
}

// GCC flags free() inside a replacement operator delete as a new/free
// mismatch; here the matching operator new above is what called malloc.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)));
  std::free(p);
}
#pragma GCC diagnostic pop

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace hcs {
namespace {

constexpr double kMaxGrowth = 4.5;  // allowed peak ratio for 4x the ranks
constexpr double kMaxShardedOverhead = 1.15;  // allowed 2-shard / 1-shard peak ratio

// Ring exchange: every rank sends to its right neighbour and receives from
// its left one, so every mailbox (and every channel table) is exercised.
sim::Task<void> ring_exchange(simmpi::Comm comm, int rounds) {
  const int p = comm.size();
  const int r = comm.rank();
  for (int round = 0; round < rounds; ++round) {
    std::vector<double> payload(1, static_cast<double>(r));
    co_await comm.send((r + 1) % p, round, std::move(payload));
    co_await comm.recv((r + p - 1) % p, round);
  }
}

// Under churn every rank waits for the view instant, then exchanges on the
// membership view (ranks down at that instant unwind via check_crash).
constexpr sim::Time kViewAt = 0.002;

sim::Task<void> view_ring(simmpi::RankCtx& ctx) {
  sim::Simulation& s = ctx.sim();
  if (s.now() < kViewAt) co_await s.delay(kViewAt - s.now());
  ctx.world().check_crash(ctx.rank());
  co_await ring_exchange(simmpi::Comm::view_comm(ctx.world(), ctx.rank(), kViewAt), 2);
}

// H2HCA as the paper runs it: a node split and a leaders split inside the
// sync, HCA-3 among the node leaders, clock propagation within each node.
sim::Task<void> h2hca_sync(simmpi::RankCtx& ctx) {
  const auto sync = clocksync::make_sync("top/hca3/10/skampi_offset/4/bottom/clockpropagation");
  co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
}

enum class Program { kRing, kViewRing, kH2hca };

// Peak live heap bytes, above those live before, while one World runs.
std::int64_t peak_bytes(int nodes, const fault::FaultPlan& plan, Program program, int shards) {
  const topology::MachineConfig machine = topology::titan().with_nodes(nodes);
  const std::int64_t base = g_live.load();
  g_peak.store(base);
  {
    simmpi::World world(machine, 7, plan, shards);
    world.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
      switch (program) {
        case Program::kRing: co_await ring_exchange(ctx.comm_world(), 2); break;
        case Program::kViewRing: co_await view_ring(ctx); break;
        case Program::kH2hca: co_await h2hca_sync(ctx); break;
      }
    });
  }
  return g_peak.load() - base;
}

// peak_bytes in a forked child (fresh frame arena); -1 if the child failed.
std::int64_t peak_bytes_in_child(int nodes, const fault::FaultPlan& plan, Program program,
                                 int shards = 1) {
  int fds[2] = {-1, -1};
  if (pipe(fds) != 0) return -1;
  const pid_t pid = fork();
  if (pid == 0) {
    close(fds[0]);
    std::int64_t peak = -1;
    try {
      peak = peak_bytes(nodes, plan, program, shards);
    } catch (...) {
    }
    const bool sent = write(fds[1], &peak, sizeof(peak)) == static_cast<ssize_t>(sizeof(peak));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  std::int64_t peak = -1;
  if (pid < 0 || read(fds[0], &peak, sizeof(peak)) != static_cast<ssize_t>(sizeof(peak))) {
    peak = -1;
  }
  close(fds[0]);
  int status = 0;
  if (pid > 0) waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? peak : -1;
}

void expect_linear_growth(const fault::FaultPlan& plan, Program program) {
  const std::int64_t small = peak_bytes_in_child(64, plan, program);
  const std::int64_t large = peak_bytes_in_child(256, plan, program);
  ASSERT_GT(small, 0);
  ASSERT_GT(large, 0);
  const double ratio = static_cast<double>(large) / static_cast<double>(small);
  ::testing::Test::RecordProperty("peak_bytes_1024", std::to_string(small));
  ::testing::Test::RecordProperty("peak_bytes_4096", std::to_string(large));
  EXPECT_LE(ratio, kMaxGrowth) << "peak live bytes: " << small << " at 1024 ranks, " << large
                               << " at 4096 ranks (" << ratio << "x for 4x the ranks)";
}

TEST(MemoryGrowth, FaultFreeWorldIsLinear) { expect_linear_growth({}, Program::kRing); }

TEST(MemoryGrowth, NetworkFaultWorldIsLinear) {
  fault::FaultPlan plan;
  plan.add("drop:p=0.02");
  plan.add("duplicate:p=0.05");
  plan.add("reorder:p=0.05,delay=20us");
  expect_linear_growth(plan, Program::kRing);
}

TEST(MemoryGrowth, ChurnViewWorldIsLinear) {
  fault::FaultPlan plan;
  plan.add("leave:rank=5,at=1ms");
  plan.add("leave:rank=9,at=1.5ms");
  expect_linear_growth(plan, Program::kViewRing);
}

// Comm::split must not leave every rank holding all members' (color, key).
TEST(MemoryGrowth, H2hcaSplitWorldIsLinear) { expect_linear_growth({}, Program::kH2hca); }

// Inter-node deliveries and burst resumes cross shards at every window
// boundary; the frames they spawn must be born on the destination shard's
// thread, where they die, so a second shard adds next to no heap.
TEST(MemoryGrowth, ShardedWorldKeepsFramesOnTheirShard) {
  const std::int64_t serial = peak_bytes_in_child(64, {}, Program::kH2hca, 1);
  const std::int64_t sharded = peak_bytes_in_child(64, {}, Program::kH2hca, 2);
  ASSERT_GT(serial, 0);
  ASSERT_GT(sharded, 0);
  const double ratio = static_cast<double>(sharded) / static_cast<double>(serial);
  ::testing::Test::RecordProperty("peak_bytes_shards1", std::to_string(serial));
  ::testing::Test::RecordProperty("peak_bytes_shards2", std::to_string(sharded));
  EXPECT_LE(ratio, kMaxShardedOverhead)
      << "peak live bytes: " << serial << " at 1 shard, " << sharded << " at 2 shards (" << ratio
      << "x)";
}

}  // namespace
}  // namespace hcs
