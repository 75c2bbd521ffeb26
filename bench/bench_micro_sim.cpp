// Microbenchmarks (google-benchmark) for the discrete-event core: event
// queue throughput, coroutine task chains, RNG and clock evaluation — the
// primitives every experiment's wall-clock cost is built from.
#include <benchmark/benchmark.h>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/simulation.hpp"
#include "vclock/hardware_clock.hpp"

namespace {

using namespace hcs;

void BM_EventQueuePushPop(benchmark::State& state) {
  sim::EventQueue q;
  sim::Rng rng(1);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      q.push(rng.uniform(), std::coroutine_handle<>::from_address(&q));
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueuePushPop)->Arg(1024)->Arg(65536);

// The queue's per-op curve across pending-set sizes from 1k to 10M: the heap
// pays O(log n) comparisons per operation, so these rows show where that log
// starts to cost (docs/performance.md weighs it against end-to-end runs).

// Burst-drain: push n random-time events, then drain completely — the
// "window fill + window drain" shape of the PDES engine.
void BM_EventQueueEngineBurstDrain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::Rng rng(1);
  for (auto _ : state) {
    sim::EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.push(rng.uniform() * 1e3, std::coroutine_handle<>::from_address(&q));
    }
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_EventQueueEngineBurstDrain)
    ->ArgName("n")
    ->Arg(1 << 10)
    ->Arg(1 << 15)
    ->Arg(1 << 20)
    ->Arg(10'000'000);

// Steady-state hold: a constant pending set of n events, each pop followed
// by a reschedule a random distance past the frontier — the shape of a
// long-running simulation.
void BM_EventQueueEngineSteadyState(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::EventQueue q;
  sim::Rng rng(1);
  for (std::size_t i = 0; i < n; ++i) {
    q.push(rng.uniform() * 10.0, std::coroutine_handle<>::from_address(&q));
  }
  for (auto _ : state) {
    const auto ev = q.pop();
    benchmark::DoNotOptimize(ev.time);
    q.push(ev.time + rng.uniform() * 10.0, ev.handle);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueEngineSteadyState)
    ->ArgName("n")
    ->Arg(1 << 10)
    ->Arg(1 << 15)
    ->Arg(1 << 20)
    ->Arg(10'000'000);

void BM_SimulationDelayChain(benchmark::State& state) {
  const int hops = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    sim.spawn([](sim::Simulation& s, int hops) -> sim::Task<void> {
      for (int i = 0; i < hops; ++i) co_await s.delay(1e-6);
    }(sim, hops));
    sim.run();
    benchmark::DoNotOptimize(sim.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * hops);
}
BENCHMARK(BM_SimulationDelayChain)->Arg(1000)->Arg(100000);

void BM_TaskCallChain(benchmark::State& state) {
  struct Rec {
    static sim::Task<int> down(int n) {
      if (n == 0) co_return 0;
      co_return 1 + co_await down(n - 1);
    }
  };
  const int depth = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    int out = 0;
    sim.spawn([](int depth, int* out) -> sim::Task<void> {
      *out = co_await Rec::down(depth);
    }(depth, &out));
    sim.run();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * depth);
}
BENCHMARK(BM_TaskCallChain)->Arg(1000);

void BM_RngNormal(benchmark::State& state) {
  sim::Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(rng.normal());
}
BENCHMARK(BM_RngNormal);

void BM_HardwareClockRead(benchmark::State& state) {
  sim::Simulation sim;
  topology::ClockDriftParams params;
  vclock::HardwareClock clk(sim, params, 3);
  double t = 0.0;
  for (auto _ : state) {
    t += 1e-5;
    benchmark::DoNotOptimize(clk.at(t));
  }
}
BENCHMARK(BM_HardwareClockRead);

void BM_HardwareClockLongHorizonRead(benchmark::State& state) {
  // Reads far into the future force lazy skew-path extension.
  sim::Simulation sim;
  topology::ClockDriftParams params;
  vclock::HardwareClock clk(sim, params, 5);
  double t = 0.0;
  for (auto _ : state) {
    t += 1.0;
    benchmark::DoNotOptimize(clk.at(t));
  }
}
BENCHMARK(BM_HardwareClockLongHorizonRead);

}  // namespace

BENCHMARK_MAIN();
