// The benchmark's workloads and the code that runs one World.
//
// A workload is a fixed batch of Worlds (one per mpirun) plus the number of
// TrialRunner workers that fan the batch out.  run_world drives one World
// through the library's public entry points -- construct, run_all with a
// sync + Check-Global-Clock rank program, teardown -- and stamps host time
// at each layer boundary from this side of the API.  Nothing inside src/ is
// instrumented.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault_plan.hpp"
#include "topology/presets.hpp"

namespace hcs::perfbench {

struct WorldSpec {
  std::string alg;    // short name: hca, hca2, hca3, jk or h2hca
  std::string label;  // clocksync::make_sync label
  topology::MachineConfig machine;
  int nfit = 0;                  // fit points of the label (the fit probe's size)
  double wait_time = 10.0;       // Check-Global-Clock's second sample, simulated s
  double sample_fraction = 1.0;  // share of ranks whose accuracy is checked
  int shards = 1;
  fault::FaultPlan faults;
  std::uint64_t seed = 1;  // World seed
};

struct Workload {
  std::string name;
  std::vector<WorldSpec> batch;  // in trial order
  int jobs = 1;                  // TrialRunner workers
  bool expect_clean = true;      // fault-free: every rank must report kOk
  int ranks() const { return batch.front().machine.topo.total_ranks(); }
};

/// The workloads of NOTES.md.  Throws std::invalid_argument on an
/// unknown name.  Only `seed` varies the inputs.
Workload make_workload(const std::string& name, std::uint64_t seed);

/// What run_world records besides the deterministic outputs.
struct RunMode {
  bool traced = false;      // per-rank sync / accuracy host spans
  bool memory = false;      // reset the peak-RSS mark and sample RSS (no concurrent Worlds!)
  bool setup_only = false;  // rank programs return on entry: measures set-up alone
};

struct WorldResult {
  // Deterministic outputs (the digest covers exactly these).
  double sync_duration = 0.0;  // simulated s, max over ranks
  double max_offset_t0 = 0.0;  // simulated s, right after the sync
  double max_offset_t1 = 0.0;  // simulated s, wait_time later
  std::uint64_t events = 0;
  int ok_ranks = 0, degraded_ranks = 0, failed_ranks = 0;
  std::string error;  // non-empty: the World threw

  // Host time (host_now() seconds) at each boundary.
  double t_ctor = 0.0;      // before the World constructor
  double t_launch = 0.0;    // constructor returned; run_all starts
  double t_entry = 0.0;     // first rank program entered
  double t_run_end = 0.0;   // run_all returned
  double t_end = 0.0;       // destructor returned
  double sync_begin = 0.0, sync_end = 0.0;  // traced: first sync entry, last return
  double acc_begin = 0.0, acc_end = 0.0;    // traced: same for check_clock_accuracy

  // Memory (RunMode::memory only).
  std::size_t rss_before = 0;  // before the constructor
  std::size_t rss_entry = 0;   // at the first rank-program entry
  std::size_t peak_rss = 0;    // high-water mark of this World alone

  double setup_s() const { return t_entry - t_ctor; }
};

WorldResult run_world(const WorldSpec& spec, const RunMode& mode);

/// Why a World's results are not acceptable; empty if they are.
std::string check_world(const WorldSpec& spec, const WorldResult& r, bool expect_clean);

/// FNV-1a digest over the deterministic outputs of `results` (hex string).
std::string digest(const std::vector<WorldSpec>& specs, const std::vector<WorldResult>& results);

}  // namespace hcs::perfbench
