// Time-ordered event queue: a 4-ary implicit min-heap.
//
// Events at equal timestamps fire in insertion order (sequence-number
// tie-break) so runs are bit-deterministic.  Compared with a binary heap the
// 4-ary layout halves the tree depth, so a push/pop pair touches fewer cache
// lines and sift-down decides among four children that share one or two
// lines (an Event is 24 bytes).  Pops use the bottom-up heapsort trick.
// O(log n) per op; docs/performance.md has the end-to-end measurements that
// keep this one engine even at 100k+ pending events.
// bench_micro_sim (BM_EventQueueEngine*) measures it from 1k to 10M pending
// events; tests/sim/test_event_queue.cpp asserts the ordering contract and
// tests/scale/test_queue_differential.cpp diffs the pop sequence against an
// ordered reference over millions of randomized mixed operations.
#pragma once

#include <coroutine>
#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace hcs::sim {

class EventQueue {
 public:
  struct Event {
    Time time;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
  };

  // push/pop are defined inline: they sit on the simulator's per-event hot
  // path and must inline into Simulation::run_window and the delay awaiter.
  void push(Time time, std::coroutine_handle<> handle) {
    // Sift up with a moving hole: write the new event only once, into its
    // final slot, instead of swapping down the path.  The no-move case (new
    // event belongs at the end — always true for a near-empty queue) keeps
    // the single store done by push_back.
    const Event ev{time, next_seq_++, handle};
    std::size_t hole = heap_.size();
    heap_.push_back(ev);
    if (hole > 0 && before(ev, heap_[(hole - 1) / kArity])) {
      do {
        const std::size_t parent = (hole - 1) / kArity;
        heap_[hole] = heap_[parent];
        hole = parent;
      } while (hole > 0 && before(ev, heap_[(hole - 1) / kArity]));
      heap_[hole] = ev;
    }
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }

  /// Earliest event time; queue must be non-empty.
  Time next_time() const noexcept { return heap_.front().time; }

  /// Removes and returns the earliest event; queue must be non-empty.
  Event pop() {
    Event top = heap_.front();
    if (heap_.size() > 1) {
      const Event last = heap_.back();
      heap_.pop_back();
      sift_down(last);
    } else {
      heap_.pop_back();  // single element: no displaced event to re-sift
    }
    if (heap_.capacity() >= kShrinkMinCapacity && heap_.size() < heap_.capacity() / 4) {
      shrink();
    }
    return top;
  }

  /// Drops all pending events without resuming them.  Coroutine frames are
  /// owned by their parents / root wrappers, so no frames are destroyed here.
  /// Also resets the tie-break sequence and releases backing storage, so a
  /// reused queue behaves exactly like a fresh one.
  void clear() noexcept;

  /// Event slots of backing storage currently reserved.  Diagnostics/tests
  /// only: the pop-shrink policy is asserted with this (a drained queue must
  /// not pin a burst's memory).
  std::size_t backing_capacity() const noexcept { return heap_.capacity(); }

 private:
  static constexpr std::size_t kArity = 4;
  // Shrink policy: after a pop leaves the heap at < 1/4 of a >= 4096-slot
  // capacity, reallocate to 2x the live size.  Amortized O(1) per pop, and a
  // fully drained 10M-event burst ends below 4096 slots (~96 KiB).
  static constexpr std::size_t kShrinkMinCapacity = 4096;

  static bool before(const Event& a, const Event& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  // Re-seats `ev` (the displaced last event) from the root hole.
  void sift_down(Event ev) noexcept;
  void shrink();

  std::uint64_t next_seq_ = 0;
  std::vector<Event> heap_;
};

}  // namespace hcs::sim
