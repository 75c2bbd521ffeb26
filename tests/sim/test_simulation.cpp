#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <vector>

#include "sim/rng.hpp"

namespace hcs::sim {
namespace {

TEST(Simulation, StartsAtTimeZero) {
  Simulation sim;
  EXPECT_EQ(sim.now(), 0.0);
}

TEST(Simulation, DelayAdvancesVirtualTime) {
  Simulation sim;
  Time observed = -1;
  sim.spawn([](Simulation& s, Time* out) -> Task<void> {
    co_await s.delay(1.5);
    *out = s.now();
  }(sim, &observed));
  sim.run();
  EXPECT_DOUBLE_EQ(observed, 1.5);
}

TEST(Simulation, SequentialDelaysAccumulate) {
  Simulation sim;
  Time observed = -1;
  sim.spawn([](Simulation& s, Time* out) -> Task<void> {
    co_await s.delay(1.0);
    co_await s.delay(2.0);
    co_await s.delay(0.25);
    *out = s.now();
  }(sim, &observed));
  sim.run();
  EXPECT_DOUBLE_EQ(observed, 3.25);
}

TEST(Simulation, NegativeDelayThrows) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<void> { co_await s.delay(-1.0); }(sim));
  EXPECT_THROW(sim.run(), std::invalid_argument);
}

TEST(Simulation, ProcessesInterleaveByTime) {
  Simulation sim;
  std::vector<int> order;
  auto proc = [](Simulation& s, std::vector<int>* order, int id, Time step) -> Task<void> {
    for (int i = 0; i < 3; ++i) {
      co_await s.delay(step);
      order->push_back(id);
    }
  };
  sim.spawn(proc(sim, &order, 1, 1.0));  // fires at 1, 2, 3
  sim.spawn(proc(sim, &order, 2, 0.4));  // fires at 0.4, 0.8, 1.2
  sim.run();
  const std::vector<int> expected = {2, 2, 1, 2, 1, 1};
  EXPECT_EQ(order, expected);
}

TEST(Simulation, ZeroDelayPreservesFifoOrder) {
  Simulation sim;
  std::vector<int> order;
  auto proc = [](Simulation& s, std::vector<int>* order, int id) -> Task<void> {
    co_await s.delay(0.0);
    order->push_back(id);
  };
  for (int id = 0; id < 5; ++id) sim.spawn(proc(sim, &order, id));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Simulation, CountsProcesses) {
  Simulation sim;
  auto noop = [](Simulation& s) -> Task<void> { co_await s.delay(0.1); };
  sim.spawn(noop(sim));
  sim.spawn(noop(sim));
  sim.run();
  EXPECT_EQ(sim.processes_spawned(), 2u);
  EXPECT_EQ(sim.processes_finished(), 2u);
}

TEST(Simulation, EventBudgetGuardsRunaway) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<void> {
    for (;;) co_await s.delay(0.001);
  }(sim));
  EXPECT_THROW(sim.run(1000), std::runtime_error);
}

TEST(Simulation, EventBudgetMessageNamesTheBudget) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<void> {
    for (;;) co_await s.delay(0.001);
  }(sim));
  try {
    sim.run(1000);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "Simulation::run: event budget exceeded (1000 events)");
  }
  EXPECT_EQ(sim.events_processed(), 1000u);
}

TEST(Simulation, EventsProcessedCounted) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<void> {
    co_await s.delay(0.1);
    co_await s.delay(0.1);
  }(sim));
  sim.run();
  EXPECT_EQ(sim.events_processed(), 2u);
}

TEST(Simulation, ExceptionInProcessSurfacesFromRun) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<void> {
    co_await s.delay(0.5);
    throw std::logic_error("process failed");
  }(sim));
  EXPECT_THROW(sim.run(), std::logic_error);
}

// spawn() starts a process eagerly, so it can fail before its first
// suspension, with nothing queued; run() must still surface that error.
TEST(Simulation, FailureBeforeFirstSuspensionSurfacesFromRun) {
  Simulation sim;
  sim.spawn([](Simulation& s) -> Task<void> {
    throw std::logic_error("failed at spawn");
    co_await s.delay(1.0);
  }(sim));
  EXPECT_TRUE(sim.idle());
  EXPECT_THROW(sim.run(), std::logic_error);
  EXPECT_NO_THROW(sim.run());  // the error is reported once
}

// A failed run() drops every still-queued event, so the Simulation can be
// driven again from a clean queue.
TEST(Simulation, RunAfterFailureStartsFromCleanQueue) {
  Simulation sim;
  bool survivor_resumed = false;
  sim.spawn([](Simulation& s, bool* resumed) -> Task<void> {
    co_await s.delay(10.0);
    *resumed = true;
  }(sim, &survivor_resumed));
  sim.spawn([](Simulation& s) -> Task<void> {
    co_await s.delay(0.5);
    throw std::logic_error("process failed");
  }(sim));
  EXPECT_THROW(sim.run(), std::logic_error);
  EXPECT_TRUE(sim.idle());
  EXPECT_DOUBLE_EQ(sim.now(), 0.5);

  Time observed = -1;
  sim.spawn([](Simulation& s, Time* out) -> Task<void> {
    co_await s.delay(1.0);
    *out = s.now();
  }(sim, &observed));
  sim.run();
  EXPECT_DOUBLE_EQ(observed, 1.5);
  EXPECT_FALSE(survivor_resumed);
}

// run() is one window ending at kTimeInfinity; any finite event time, however
// far out, is strictly before it and must fire.
TEST(Simulation, RunDrainsEventsAtHugeFiniteTimes) {
  Simulation sim;
  Time observed = -1;
  sim.spawn([](Simulation& s, Time* out) -> Task<void> {
    co_await s.delay(1e300);
    *out = s.now();
  }(sim, &observed));
  sim.run();
  EXPECT_DOUBLE_EQ(observed, 1e300);
  EXPECT_TRUE(sim.idle());
}

TEST(Simulation, DeterministicTwoRunsSameSchedule) {
  auto run_once = [](std::uint64_t seed) {
    Simulation sim;
    Rng rng(seed);
    std::vector<double> trace;
    sim.spawn([](Simulation& s, Rng& rng, std::vector<double>* trace) -> Task<void> {
      for (int i = 0; i < 50; ++i) {
        co_await s.delay(rng.exponential(1e-3));
        trace->push_back(s.now());
      }
    }(sim, rng, &trace));
    sim.run();
    return trace;
  };
  EXPECT_EQ(run_once(99), run_once(99));
  EXPECT_NE(run_once(99), run_once(100));
}

TEST(Simulation, SpawnInsideRunningProcess) {
  Simulation sim;
  int children_done = 0;
  sim.spawn([](Simulation& s, int* done) -> Task<void> {
    co_await s.delay(1.0);
    for (int i = 0; i < 3; ++i) {
      s.spawn([](Simulation& s2, int* d) -> Task<void> {
        co_await s2.delay(0.5);
        ++*d;
      }(s, done));
    }
  }(sim, &children_done));
  sim.run();
  EXPECT_EQ(children_done, 3);
  EXPECT_EQ(sim.processes_finished(), 4u);
}

TEST(Simulation, TenThousandProcessesFinishInAnyOrder) {
  // Regression guard for the live-roots bookkeeping: finishing used to do a
  // linear scan over all live roots, making a p-process run O(p^2) in the
  // teardown phase.  With swap-and-pop it is O(p) total; at p = 10000 the
  // quadratic version takes seconds while this runs in milliseconds.  The
  // staggered delays make processes finish in an order different from spawn
  // order, exercising the swap (not just the pop-last fast path).
  Simulation sim;
  int done = 0;
  constexpr int kProcs = 10000;
  // hcs-lint: allow-next-line(wall-clock) — measures real host time on purpose
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < kProcs; ++i) {
    sim.spawn([](Simulation& s, int* done, int i) -> Task<void> {
      // Earlier spawns finish later: reverse completion order.
      co_await s.delay(1.0 + static_cast<Time>(kProcs - i) * 1e-6);
      ++*done;
    }(sim, &done, i));
  }
  sim.run();
  // hcs-lint: allow-next-line(wall-clock) — perf guard, not simulated time
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(done, kProcs);
  EXPECT_EQ(sim.processes_finished(), static_cast<std::size_t>(kProcs));
  // Generous bound (quadratic teardown alone needs multiple seconds).
  EXPECT_LT(std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count(), 2000);
}

TEST(Simulation, AbandonedBlockedProcessIsReclaimed) {
  // A process that waits forever is destroyed with the Simulation; the
  // ASAN/valgrind cleanliness of this test is the assertion.
  auto sim = std::make_unique<Simulation>();
  sim->spawn([](Simulation& s) -> Task<void> { co_await s.delay(1e9); }(*sim));
  // Do not run to completion; destroy with the event pending.
  sim.reset();
  SUCCEED();
}

}  // namespace
}  // namespace hcs::sim
