#include "probes.hpp"

#include <coroutine>
#include <utility>
#include <vector>

#include "clocksync/fitting.hpp"
#include "host.hpp"
#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "simmpi/network.hpp"

namespace hcs::perfbench {

namespace {

constexpr int kReps = 7;

// Keeps probe results observable so the timed loops are not folded away.
volatile double g_sink = 0.0;

template <typename Body>
double median_ns_per_op(long ops, Body&& body) {
  body(ops / 4);  // warm caches and lazily built state
  std::vector<double> samples;
  for (int rep = 0; rep < kReps; ++rep) {
    const double t0 = host_now();
    body(ops);
    samples.push_back((host_now() - t0) * 1e9 / static_cast<double>(ops));
  }
  return median(samples);
}

}  // namespace

double probe_queue_op_ns(int pending, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<double> deltas(1 << 16);
  for (double& d : deltas) d = rng.exponential(1e-6);
  sim::EventQueue queue;
  const std::coroutine_handle<> handle = std::noop_coroutine();
  for (int i = 0; i < pending; ++i) queue.push(rng.uniform(0.0, 1e-6), handle);
  std::size_t next = 0;
  return median_ns_per_op(1'000'000, [&](long ops) {
    for (long i = 0; i < ops; ++i) {
      const sim::EventQueue::Event ev = queue.pop();
      queue.push(ev.time + deltas[next++ & (deltas.size() - 1)], ev.handle);
    }
    g_sink = g_sink + queue.next_time();
  });
}

double probe_channel_rng_ns(const topology::MachineConfig& machine, std::uint64_t seed) {
  const int nranks = machine.topo.total_ranks();
  simmpi::NetworkModel net(machine.topo, machine.net, seed);
  sim::Rng rng(seed ^ 0x5ca1ab1eULL);
  std::vector<std::pair<int, int>> pairs(static_cast<std::size_t>(nranks));
  for (auto& [src, dst] : pairs) {
    src = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(nranks)));
    dst = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(nranks - 1)));
    if (dst >= src) ++dst;
  }
  std::size_t next = 0;
  return median_ns_per_op(400'000, [&](long ops) {
    double acc = 0.0;
    for (long i = 0; i < ops; ++i) {
      const auto& [src, dst] = pairs[next];
      next = next + 1 == pairs.size() ? 0 : next + 1;
      acc += net.sample_delay(net.classify(src, dst), 8, net.channel_rng(src, dst));
    }
    g_sink = g_sink + acc;
  });
}

double probe_fit_ns(int nfit, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(nfit)), y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 + 1e-3 * static_cast<double>(i) + rng.uniform(0.0, 1e-6);
    y[i] = 2e-6 + 3e-6 * x[i] + rng.normal(0.0, 1e-7);
  }
  return median_ns_per_op(4'000'000 / nfit, [&](long ops) {
    double acc = 0.0;
    for (long i = 0; i < ops; ++i) {
      acc += clocksync::fit_linear_model(x, y).model.slope;
    }
    g_sink = g_sink + acc;
  });
}

}  // namespace hcs::perfbench
