// Standalone layer probes: time one public function of a layer directly, at
// the size a workload runs it.  Each returns the median over repetitions of
// host nanoseconds per operation; inputs derive from `seed` only.
#pragma once

#include <cstdint>

#include "topology/presets.hpp"

namespace hcs::perfbench {

/// sim::EventQueue (process default engine) push + pop with `pending`
/// events queued -- the steady state of a World whose ranks all wait.
double probe_queue_op_ns(int pending, std::uint64_t seed);

/// NetworkModel::channel_rng + sample_delay over random (src, dst) pairs of
/// `machine`'s ranks.
double probe_channel_rng_ns(const topology::MachineConfig& machine, std::uint64_t seed);

/// clocksync::fit_linear_model over `nfit` (timestamp, offset) points.
double probe_fit_ns(int nfit, std::uint64_t seed);

}  // namespace hcs::perfbench
