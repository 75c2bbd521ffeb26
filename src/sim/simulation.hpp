// Single-threaded discrete-event scheduler.
//
// Processes are Task<void> coroutines spawned before (or during) run().  A
// process advances virtual time only by awaiting `delay()` or operations
// built on it; run() drains the event queue until no events remain or an
// event budget is exceeded.  The scheduler draws no randomness: a run is a
// pure function of what its processes do.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace hcs::sim {

class Simulation {
 public:
  Simulation() = default;
  ~Simulation();
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  Time now() const noexcept { return now_; }

  /// Schedules `handle` to resume at absolute time `t` (>= now()).  Inline:
  /// together with EventQueue::push this is the schedule half of the
  /// per-event hot path (bench_micro_sim / BM_SimulationDelayChain).
  void schedule_at(Time t, std::coroutine_handle<> handle) {
    queue_.push(t < now_ ? now_ : t, handle);
  }

  /// Awaitable that suspends the calling coroutine for `dt` (>= 0) seconds.
  /// Even dt == 0 goes through the event queue, preserving FIFO fairness.
  auto delay(Time dt) {
    struct Awaiter {
      Simulation& sim;
      Time dt;
      bool await_ready() const noexcept { return false; }
      // Pushes directly instead of going through schedule_at: dt >= 0 is
      // checked below, so the t < now_ clamp can never fire on this path.
      void await_suspend(std::coroutine_handle<> h) { sim.queue_.push(sim.now_ + dt, h); }
      void await_resume() const noexcept {}
    };
    if (dt < 0) throw std::invalid_argument("Simulation::delay: negative duration");
    return Awaiter{*this, dt};
  }

  /// Detaches `task` as a top-level process.  It starts running immediately
  /// (until its first suspension); completion is tracked by run().
  void spawn(Task<void> task);

  /// Runs until the event queue is empty: run_window(kTimeInfinity) followed
  /// by a rethrow of take_error().  Throws if a process threw, or if more
  /// than `max_events` events fire (runaway guard).
  void run(std::uint64_t max_events = UINT64_MAX);

  /// Windowed execution for the sharded World engine: processes events with
  /// time strictly below `window_end` (ties with `window_end` stay queued for
  /// the next window).  Never throws — errors (including the event-budget
  /// guard, compared against lifetime events_processed()) are
  /// parked for take_error() so shard threads can't unwind across the
  /// barrier.  Reports no metrics; the engine reports once per World::run.
  void run_window(Time window_end, std::uint64_t max_events = UINT64_MAX);

  /// True when no events are queued (a shard with nothing scheduled).
  bool idle() const noexcept { return queue_.empty(); }

  /// Timestamp of the earliest queued event; only valid when !idle().
  Time next_event_time() const noexcept { return queue_.next_time(); }

  /// Hands back (and clears) the first process/budget error recorded by
  /// run_window, dropping all still-queued events.  Returns nullptr when no
  /// error is pending.
  std::exception_ptr take_error();

  std::uint64_t events_processed() const noexcept { return events_processed_; }
  std::size_t processes_spawned() const noexcept { return spawned_; }
  std::size_t processes_finished() const noexcept { return finished_; }

  // Internal: called by the spawn wrapper coroutine (public only because the
  // wrapper's nested promise type cannot be befriended before definition).
  // on_root_started returns the root's slot in live_roots_; the promise keeps
  // it current across swap-and-pop removals so on_root_finished is O(1)
  // instead of a linear scan (quadratic teardown for many processes).
  std::size_t on_root_started(std::coroutine_handle<> handle);
  void on_root_finished(std::size_t live_index, std::exception_ptr error);

  struct RootFrame;  // wrapper coroutine that notifies completion (internal)

 private:
  Time now_ = 0.0;
  EventQueue queue_;
  std::uint64_t events_processed_ = 0;
  std::size_t spawned_ = 0;
  std::size_t finished_ = 0;
  std::exception_ptr first_error_ = nullptr;
  std::vector<std::coroutine_handle<>> live_roots_;
};

}  // namespace hcs::sim
