#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <vector>

namespace hcs::sim {
namespace {

// The queue stores raw handles; for ordering tests a tag pointer works.
std::coroutine_handle<> tag(std::uintptr_t v) {
  return std::coroutine_handle<>::from_address(reinterpret_cast<void*>(v));
}

// What a queue went through before a test starts using it.  Simulation reuses
// one queue for a whole run: run_window drains it window by window (pops walk
// the backing storage down and leave the tie-break sequence far from zero)
// and take_error() clears it.  The (time, seq) contract must not depend on
// that history, so every ordering test runs from each of them.
enum class History { kFresh, kCleared, kDrained };

std::string history_name(History h) {
  switch (h) {
    case History::kFresh: return "Fresh";
    case History::kCleared: return "Cleared";
    case History::kDrained: return "Drained";
  }
  return "Unknown";
}

// Enough events to pass the 4096-slot shrink threshold, so a drain actually
// shrinks and a clear actually releases a grown buffer.
constexpr std::size_t kHistoryEvents = 10000;

class EventQueueHistories : public ::testing::TestWithParam<History> {
 protected:
  EventQueue make() const {
    EventQueue q;
    if (GetParam() == History::kFresh) return q;
    std::mt19937_64 rng(5);
    std::uniform_real_distribution<double> time_dist(0.0, 100.0);
    for (std::size_t i = 0; i < kHistoryEvents; ++i) q.push(time_dist(rng), tag(i + 1));
    if (GetParam() == History::kCleared) {
      q.clear();
    } else {
      while (!q.empty()) q.pop();
    }
    EXPECT_TRUE(q.empty());
    return q;
  }
};

INSTANTIATE_TEST_SUITE_P(Histories, EventQueueHistories,
                         ::testing::Values(History::kFresh, History::kCleared,
                                           History::kDrained),
                         [](const auto& info) { return history_name(info.param); });

TEST_P(EventQueueHistories, PopsInTimeOrder) {
  EventQueue q = make();
  q.push(3.0, tag(3));
  q.push(1.0, tag(1));
  q.push(2.0, tag(2));
  EXPECT_EQ(q.pop().time, 1.0);
  EXPECT_EQ(q.pop().time, 2.0);
  EXPECT_EQ(q.pop().time, 3.0);
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueHistories, TiesBreakByInsertionOrder) {
  EventQueue q = make();
  q.push(1.0, tag(10));
  q.push(1.0, tag(20));
  q.push(1.0, tag(30));
  EXPECT_EQ(q.pop().handle.address(), tag(10).address());
  EXPECT_EQ(q.pop().handle.address(), tag(20).address());
  EXPECT_EQ(q.pop().handle.address(), tag(30).address());
}

TEST_P(EventQueueHistories, NextTimePeeksWithoutPopping) {
  EventQueue q = make();
  q.push(5.0, tag(1));
  q.push(2.0, tag(2));
  EXPECT_EQ(q.next_time(), 2.0);
  EXPECT_EQ(q.size(), 2u);
}

TEST_P(EventQueueHistories, SizeTracksPushPop) {
  EventQueue q = make();
  EXPECT_EQ(q.size(), 0u);
  q.push(1.0, tag(1));
  q.push(2.0, tag(2));
  EXPECT_EQ(q.size(), 2u);
  q.pop();
  EXPECT_EQ(q.size(), 1u);
}

TEST_P(EventQueueHistories, ClearDropsEverything) {
  EventQueue q = make();
  q.push(1.0, tag(1));
  q.push(2.0, tag(2));
  q.clear();
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueHistories, InterleavedPushPopKeepsOrder) {
  EventQueue q = make();
  q.push(4.0, tag(4));
  q.push(1.0, tag(1));
  EXPECT_EQ(q.pop().time, 1.0);
  q.push(2.0, tag(2));
  q.push(0.5, tag(5));
  EXPECT_EQ(q.pop().time, 0.5);
  EXPECT_EQ(q.pop().time, 2.0);
  EXPECT_EQ(q.pop().time, 4.0);
}

TEST_P(EventQueueHistories, ManyEventsSorted) {
  EventQueue q = make();
  for (int i = 999; i >= 0; --i) q.push(static_cast<Time>(i % 97), tag(1));
  Time last = -1;
  while (!q.empty()) {
    const Time t = q.pop().time;
    EXPECT_GE(t, last);
    last = t;
  }
}

// The ordering contract the simulator depends on: among equal timestamps,
// pops come in push order (FIFO), even when pushes at that timestamp are
// interleaved with pushes and pops at other timestamps.
TEST_P(EventQueueHistories, InterleavedEqualTimesStayFifo) {
  EventQueue q = make();
  q.push(2.0, tag(1));
  q.push(1.0, tag(9));
  q.push(2.0, tag(2));
  EXPECT_EQ(q.pop().handle.address(), tag(9).address());
  q.push(2.0, tag(3));
  q.push(3.0, tag(8));
  q.push(2.0, tag(4));
  for (std::uintptr_t expected = 1; expected <= 4; ++expected) {
    const EventQueue::Event ev = q.pop();
    EXPECT_EQ(ev.time, 2.0);
    EXPECT_EQ(ev.handle.address(), tag(expected).address());
  }
  EXPECT_EQ(q.pop().handle.address(), tag(8).address());
}

// Randomized check against a reference sort by (time, push order): the heap
// must produce exactly the stable order, whatever the sift details.
TEST_P(EventQueueHistories, RandomizedMatchesStableOrder) {
  std::mt19937_64 rng(42);
  // Few distinct timestamps => many ties, stressing the seq tiebreak.
  std::uniform_int_distribution<int> time_dist(0, 20);
  for (int round = 0; round < 20; ++round) {
    EventQueue q = make();
    struct Ref {
      Time time;
      std::uintptr_t id;
    };
    std::vector<Ref> ref;
    for (std::uintptr_t i = 1; i <= 500; ++i) {
      const Time t = static_cast<Time>(time_dist(rng));
      q.push(t, tag(i));
      ref.push_back({t, i});
    }
    std::stable_sort(ref.begin(), ref.end(),
                     [](const Ref& a, const Ref& b) { return a.time < b.time; });
    for (const Ref& expected : ref) {
      ASSERT_FALSE(q.empty());
      const EventQueue::Event ev = q.pop();
      EXPECT_EQ(ev.time, expected.time);
      EXPECT_EQ(ev.handle.address(), tag(expected.id).address());
    }
    EXPECT_TRUE(q.empty());
  }
}

// clear() must also reset the tiebreak sequence so a reused queue orders
// exactly like a fresh one.
TEST_P(EventQueueHistories, ReuseAfterClearKeepsFifoTies) {
  EventQueue q = make();
  q.push(1.0, tag(1));
  q.push(1.0, tag(2));
  q.clear();
  q.push(5.0, tag(3));
  q.push(5.0, tag(4));
  q.push(5.0, tag(5));
  EXPECT_EQ(q.pop().handle.address(), tag(3).address());
  EXPECT_EQ(q.pop().handle.address(), tag(4).address());
  EXPECT_EQ(q.pop().handle.address(), tag(5).address());
}

// A drained burst must not pin its peak memory: the pop-shrink policy has to
// walk the backing capacity back down below kShrinkMinCapacity (4096 slots)
// once the events are gone.
TEST_P(EventQueueHistories, DrainedBurstReleasesCapacity) {
  EventQueue q = make();
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> time_dist(0.0, 1000.0);
  constexpr std::size_t kBurst = 200000;
  for (std::size_t i = 0; i < kBurst; ++i) q.push(time_dist(rng), tag(1));
  EXPECT_GE(q.backing_capacity(), kBurst);
  Time last = -1.0;
  while (!q.empty()) {
    const Time t = q.pop().time;
    ASSERT_GE(t, last);
    last = t;
  }
  EXPECT_LT(q.backing_capacity(), 4096u);
}

// clear() restarts the tie-break sequence at zero, while draining by pops
// keeps counting: seq is a per-queue push counter, never reused within one
// run of pushes.
TEST(EventQueue, ClearRestartsSequenceDrainKeepsCounting) {
  EventQueue q;
  q.push(1.0, tag(1));
  q.push(2.0, tag(2));
  EXPECT_EQ(q.pop().seq, 0u);
  EXPECT_EQ(q.pop().seq, 1u);
  q.push(3.0, tag(3));
  EXPECT_EQ(q.pop().seq, 2u);
  q.push(4.0, tag(4));
  q.clear();
  q.push(5.0, tag(5));
  EXPECT_EQ(q.pop().seq, 0u);
}

}  // namespace
}  // namespace hcs::sim
