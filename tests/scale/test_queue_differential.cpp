// Differential test for the event queue: the 4-ary heap and an ordered
// reference (std::set keyed by (time, push sequence)) run the exact same
// randomized mixed push/pop workload — over a million operations, with heavy
// equal-timestamp ties and +inf sentinels — and must produce identical pop
// sequences, because (time, seq) is a total order.  This is the
// machine-checked form of the ordering contract that keeps bench goldens
// byte-identical.
#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <set>
#include <utility>

namespace hcs::sim {
namespace {

std::coroutine_handle<> tag(std::uintptr_t v) {
  return std::coroutine_handle<>::from_address(reinterpret_cast<void*>(v));
}

class QueueDifferential : public ::testing::Test {
 protected:
  // The queue numbers pushes 0, 1, 2, ...; the reference mirrors that count
  // and tags each handle with seq + 1.
  void push_both(Time t) {
    queue_.push(t, tag(next_seq_ + 1));
    ref_.emplace(t, next_seq_);
    ++next_seq_;
  }

  // Pops from both and asserts the results are identical.
  void pop_both() {
    ASSERT_FALSE(ref_.empty());
    const EventQueue::Event ev = queue_.pop();
    const auto [time, seq] = *ref_.begin();
    ref_.erase(ref_.begin());
    ASSERT_EQ(ev.time, time);
    ASSERT_EQ(ev.seq, seq);
    ASSERT_EQ(ev.handle.address(), tag(seq + 1).address());
    ASSERT_EQ(queue_.size(), ref_.size());
    // Pops are nondecreasing except across a +inf sentinel: once the queue
    // momentarily holds only "never" events, later finite pushes legally pop
    // below the inf that preceded them.
    if (last_time_ < kTimeInfinity) {
      ASSERT_GE(ev.time, last_time_);
    }
    last_time_ = ev.time;
  }

  void check_peek() {
    if (ref_.empty()) return;
    ASSERT_EQ(queue_.next_time(), ref_.begin()->first);
  }

  EventQueue queue_;
  std::set<std::pair<Time, std::uint64_t>> ref_;
  std::uint64_t next_seq_ = 0;
  Time last_time_ = -1e300;
};

// A simulator-shaped workload: timestamps advance with the drain frontier
// (events schedule in the future of "now"), sizes grow into six figures,
// ties are frequent.  >1M mixed operations total.
TEST_F(QueueDifferential, MillionMixedOpsMatchOrderedReference) {
  std::mt19937_64 rng(2026);
  std::uniform_real_distribution<double> dt_dist(0.0, 10.0);
  std::uniform_int_distribution<int> tie_dist(0, 50);
  std::uniform_int_distribution<int> coin(0, 99);
  Time now = 0.0;

  auto random_time = [&] {
    const int c = coin(rng);
    if (c < 30) return now + static_cast<Time>(tie_dist(rng));  // heavy ties
    if (c < 32) return kTimeInfinity;  // "never" sentinels ride along
    return now + dt_dist(rng);
  };

  // Phase 1: grow to 300k pending with occasional pops advancing the
  // frontier.
  while (queue_.size() < 300000) {
    push_both(random_time());
    if (coin(rng) < 10 && !queue_.empty()) {
      pop_both();
      now = last_time_;
    }
  }

  // Phase 2: steady-state churn at large size.
  for (int i = 0; i < 400000; ++i) {
    if (coin(rng) < 50) {
      push_both(random_time());
    } else {
      pop_both();
      if (last_time_ < kTimeInfinity) now = last_time_;
    }
    if (coin(rng) < 2) check_peek();
  }

  // Phase 3: drain to empty, still comparing every pop.
  while (!queue_.empty()) {
    pop_both();
    if (last_time_ < kTimeInfinity) now = last_time_;
    if (coin(rng) < 5) push_both(now + dt_dist(rng));
  }
  EXPECT_TRUE(ref_.empty());
  // The pop-shrink policy must have walked the 300k-event peak back down.
  EXPECT_LT(queue_.backing_capacity(), 4096u);
}

// All-equal timestamps at scale: pure seq-order FIFO territory.
TEST_F(QueueDifferential, MassiveEqualTimestampBurstStaysFifo) {
  for (int i = 0; i < 100000; ++i) push_both(1.0);
  while (!queue_.empty()) pop_both();  // the reference pops in push order
  EXPECT_EQ(next_seq_, 100000u);
}

// Pushes just above the drain frontier, under a large far-future population.
TEST_F(QueueDifferential, NearFrontierPushesStayOrdered) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> far(100.0, 200.0);
  std::uniform_real_distribution<double> eps(0.0, 1e-6);
  for (int i = 0; i < 100000; ++i) push_both(far(rng));
  for (int i = 0; i < 100000; ++i) {
    pop_both();
    push_both(last_time_ + eps(rng));  // barely-future event
  }
  while (!queue_.empty()) pop_both();
}

}  // namespace
}  // namespace hcs::sim
