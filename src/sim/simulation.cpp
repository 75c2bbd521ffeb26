#include "sim/simulation.hpp"

#include <algorithm>
#include <cassert>

#include "trace/metrics.hpp"

namespace hcs::sim {

// Wrapper coroutine that owns a spawned Task and notifies the simulation on
// completion.  It starts eagerly (initial_suspend never) and self-destroys in
// final_suspend, after handing its error (if any) back to the Simulation.
struct Simulation::RootFrame {
  struct promise_type;
  using Handle = std::coroutine_handle<promise_type>;

  struct promise_type {
    Simulation* sim;
    std::size_t live_index = 0;  // slot in live_roots_; kept current on swaps
    std::exception_ptr error = nullptr;

    static void* operator new(std::size_t bytes) { return detail::FramePool::allocate(bytes); }
    static void operator delete(void* p) noexcept { detail::FramePool::deallocate(p); }
    static void operator delete(void* p, std::size_t) noexcept { detail::FramePool::deallocate(p); }

    promise_type(Simulation& s, Task<void>&&) noexcept : sim(&s) {}

    RootFrame get_return_object() noexcept {
      live_index = sim->on_root_started(Handle::from_promise(*this));
      return {};
    }
    std::suspend_never initial_suspend() noexcept { return {}; }

    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      void await_suspend(Handle h) noexcept {
        Simulation* sim = h.promise().sim;
        std::exception_ptr error = h.promise().error;
        const std::size_t live_index = h.promise().live_index;
        h.destroy();
        sim->on_root_finished(live_index, error);
      }
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() noexcept { error = std::current_exception(); }
  };
};

namespace {
Simulation::RootFrame run_root(Simulation& sim, Task<void>&& task) {
  (void)sim;
  const Task<void> owned = std::move(task);
  co_await owned;
}
}  // namespace

Simulation::~Simulation() {
  queue_.clear();
  // Destroy any processes that never finished; this recursively destroys
  // their suspended child-task chains.
  for (auto h : live_roots_) h.destroy();
}

void Simulation::spawn(Task<void> task) { run_root(*this, std::move(task)); }

std::size_t Simulation::on_root_started(std::coroutine_handle<> handle) {
  ++spawned_;
  live_roots_.push_back(handle);
  return live_roots_.size() - 1;
}

void Simulation::on_root_finished(std::size_t live_index, std::exception_ptr error) {
  ++finished_;
  assert(live_index < live_roots_.size());
  // Swap-and-pop: O(1) removal.  The root moved into the vacated slot must
  // learn its new index, which the RootFrame promise stores.
  const std::size_t last = live_roots_.size() - 1;
  if (live_index != last) {
    live_roots_[live_index] = live_roots_[last];
    RootFrame::Handle::from_address(live_roots_[live_index].address()).promise().live_index =
        live_index;
  }
  live_roots_.pop_back();
  if (error && !first_error_) first_error_ = error;
}

void Simulation::run(std::uint64_t max_events) {
  // The same loop the sharded World engine drives, as one unbounded window.
  // No event is ever scheduled at kTimeInfinity, so the strict `< window_end`
  // bound drains the queue.  Metrics are reported once per run(), never
  // inside the per-event loop: bench_micro_sim guards the loop's per-event
  // cost.
  const std::uint64_t events_before = events_processed_;
  run_window(kTimeInfinity, max_events);
  if (std::exception_ptr error = take_error()) std::rethrow_exception(error);
  HCS_METRIC_ADD("sim.events_processed", events_processed_ - events_before);
  HCS_METRIC_SET("sim.virtual_time_s", now_);
  HCS_METRIC_SET("sim.processes_spawned", static_cast<double>(spawned_));
}

void Simulation::run_window(Time window_end, std::uint64_t max_events) {
  if (first_error_) return;  // collected by take_error() in the serial phase
  while (!queue_.empty() && queue_.next_time() < window_end) {
    if (events_processed_ >= max_events) {
      first_error_ = std::make_exception_ptr(
          std::runtime_error("Simulation::run: event budget exceeded (" +
                             std::to_string(max_events) + " events)"));
      return;
    }
    const EventQueue::Event ev = queue_.pop();
    assert(ev.time >= now_);
    now_ = ev.time;
    ++events_processed_;
    ev.handle.resume();
    if (first_error_) return;
  }
}

std::exception_ptr Simulation::take_error() {
  if (!first_error_) return nullptr;
  queue_.clear();
  auto error = first_error_;
  first_error_ = nullptr;
  return error;
}

}  // namespace hcs::sim
