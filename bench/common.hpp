// Shared helpers for the figure-reproduction bench binaries.
//
// Every bench binary accepts the flags documented in kBenchFlags below
// (--help prints the same table): --scale/--seed/--jobs/--csv, the
// observability outputs --trace-out/--metrics-out, and the fault-injection
// options --fault (repeatable) and --fault-seed.  Unknown options are an
// error (exit code 2), so "--job 4" can't silently run the default
// configuration.  Headers always state machine, scale and the paper figure
// being reproduced.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "clocksync/accuracy.hpp"
#include "clocksync/sync_algorithm.hpp"
#include "fault/fault_plan.hpp"
#include "replay/record.hpp"
#include "runner/trial_runner.hpp"
#include "topology/presets.hpp"
#include "trace/metrics.hpp"
#include "trace/tracer.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace hcs::bench {

struct BenchOptions {
  double scale = 1.0;
  std::uint64_t seed = 1;
  int jobs = 1;             // worker threads for independent trials; 0 = auto
  int shards = 1;           // event-loop shards inside each World (resolved; >= 1)
  bool csv = false;
  std::string trace_out;    // empty = tracing off
  std::string metrics_out;  // empty = metrics CSV off
  std::string record_out;   // empty = event-order recording off
  std::string replay;       // non-empty = verify this run against a recording
  fault::FaultPlan fault_plan;  // empty = no fault injection
};

/// One --flag the bench binaries understand; the single source of truth for
/// --help, the usage line and reject_unknown (a flag parse_common reads but
/// this table omits would fail the help_lists_all_flags ctest).
struct BenchFlag {
  const char* name;  // without the leading "--"
  const char* arg;   // metavar, or nullptr for boolean flags
  const char* help;
};

/// Every flag parse_common parses, in display order.
extern const BenchFlag kBenchFlags[];
extern const std::size_t kBenchFlagCount;

/// Writes the usage line plus one line per kBenchFlags entry.
void print_usage(std::ostream& os, const std::string& program);

/// Parses the shared bench options.  --help prints the flag table and exits
/// 0.  Rejects unknown options and malformed --fault specs: prints the error
/// and the usage to stderr and exits with code 2, so a typo never silently
/// runs the default configuration.
BenchOptions parse_common(int argc, const char* const* argv, double default_scale);

/// parse_common plus binary-specific flags: each `extra` entry is accepted,
/// documented by --help/usage alongside the shared table, and readable
/// through the returned Cli view (e.g. bench_scale's --ranks).
struct ParsedBench {
  BenchOptions opt;
  util::Cli cli;
};
ParsedBench parse_common_extra(int argc, const char* const* argv, double default_scale,
                               const std::vector<BenchFlag>& extra);

/// Installs a tracer and/or metrics registry for the binary's lifetime when
/// the corresponding --trace-out/--metrics-out flag was given (construct it
/// before the first World so hot paths resolve their metric handles).  The
/// destructor writes the requested files and prints the metrics summary.
/// --record-out additionally installs an event-order recorder and saves it
/// at exit; --replay records in memory and verifies the run against the
/// given recording at exit, exiting 1 with the first divergence on mismatch
/// (docs/record-replay.md).
class Observability {
 public:
  explicit Observability(const BenchOptions& opt);
  ~Observability();
  Observability(const Observability&) = delete;
  Observability& operator=(const Observability&) = delete;

 private:
  std::unique_ptr<trace::Tracer> tracer_;
  std::unique_ptr<trace::MetricsRegistry> metrics_;
  std::unique_ptr<replay::Recorder> recorder_;
  std::string trace_path_;
  std::string metrics_path_;
  std::string record_path_;
  std::string replay_path_;
};

/// Prints the standard experiment header.
void print_header(const std::string& figure, const std::string& what,
                  const topology::MachineConfig& machine, const BenchOptions& opt);

/// Scales an integer parameter, never below `min_value`.
int scaled(int value, double scale, int min_value);

/// Peak resident set size of this process in bytes: VmHWM from
/// /proc/self/status where available, ru_maxrss otherwise; 0 if neither
/// source works.  Monotone over the process lifetime (it is a high-water
/// mark), so sample it after the Worlds of interest have run.
std::size_t peak_rss_bytes();

/// Publishes the process memory high-water marks into the active metrics
/// registry: hcs.mem.peak_rss_bytes (peak_rss_bytes()) and
/// hcs.mem.frame_pool_bytes (the coroutine frame pool's slab reservation).
/// No-op
/// without an installed registry.
void record_memory_metrics();

/// Result of one mpirun of the paper's core experiment (sync + Alg. 6).
struct SyncAccuracyPoint {
  double duration = 0.0;       // seconds to synchronize (incl. comm creation)
  double max_offset_t0 = 0.0;  // max |offset| right after sync
  double max_offset_t1 = 0.0;  // max |offset| wait_time later
  int ok_ranks = 0;            // ranks whose sync report says kOk
  int degraded_ranks = 0;      // ranks whose sync report says kDegraded
  int failed_ranks = 0;        // ranks whose sync report says kFailed
};

/// Synchronizes with `label`, then runs Check-Global-Clock (Algorithm 6).
/// With a non-empty `fault_plan` the World injects faults; per-rank sync
/// health is gathered to rank 0 and summarized in the returned point.
SyncAccuracyPoint run_sync_accuracy(const topology::MachineConfig& machine,
                                    const std::string& label, double wait_time,
                                    double sample_fraction, std::uint64_t seed,
                                    const fault::FaultPlan& fault_plan = {}, int shards = 1);

/// Runs `label` nmpiruns times and prints one row per run plus a mean row,
/// mirroring the point-clouds of the paper's Figs. 3-6.
void run_and_print_sync_experiment(util::Table& table, const topology::MachineConfig& machine,
                                   const std::vector<std::string>& labels, int nmpiruns,
                                   double wait_time, double sample_fraction,
                                   const BenchOptions& opt);

}  // namespace hcs::bench
