// Minimal command-line option parser for the bench and example binaries.
//
// Supports "--key value", "--key=value" and boolean "--flag" forms;
// positional arguments are collected in order.  Callers that know their full
// option set call reject_unknown() after construction, turning typos like
// "--job 4" into an error instead of a silently ignored option.  The scale
// factor used by every bench binary is also read from the HCLOCKSYNC_SCALE
// environment variable, and the worker count from HCLOCKSYNC_JOBS (command
// line wins in both cases).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hcs::util {

class Cli {
 public:
  /// Parses argv.  `known_flags` lists boolean options (no value expected).
  Cli(int argc, const char* const* argv, std::vector<std::string> known_flags = {});

  /// Throws std::invalid_argument naming the offender (and the known set)
  /// if any parsed option is not in `known_options`.  Flags passed to the
  /// constructor must be listed again here.
  void reject_unknown(const std::vector<std::string>& known_options) const;

  bool has(const std::string& key) const;
  std::string get(const std::string& key, const std::string& fallback) const;
  double get_double(const std::string& key, double fallback) const;
  std::int64_t get_int(const std::string& key, std::int64_t fallback) const;

  /// All values given for a repeatable option, in command-line order (e.g.
  /// "--fault drop:... --fault clockstep:...").  Empty when absent.  The
  /// single-value accessors above return the last occurrence.
  std::vector<std::string> get_all(const std::string& key) const;

  const std::vector<std::string>& positional() const { return positional_; }
  const std::string& program() const { return program_; }

  /// Benchmark scale in (0, 4]: --scale beats $HCLOCKSYNC_SCALE beats 1.0.
  double scale(double fallback = 1.0) const;

  /// Seed: --seed beats fallback.
  std::uint64_t seed(std::uint64_t fallback) const;

  /// Worker threads: --jobs beats $HCLOCKSYNC_JOBS beats fallback.
  /// 0 means "one per hardware thread" (resolved by runner::resolve_jobs);
  /// negative values throw.
  int jobs(int fallback = 1) const;

  /// Event-loop shards per World: --shards beats $HCLOCKSYNC_SHARDS beats
  /// fallback.  0 means "one per hardware thread" (resolved by
  /// runner::resolve_jobs); negative values throw.  Orthogonal to jobs():
  /// jobs parallelizes across independent trials, shards inside one World.
  int shards(int fallback = 1) const;

  /// Observability outputs: "--trace-out run.json" requests a Chrome-trace
  /// dump, "--metrics-out run.csv" a metrics CSV.  Empty = disabled.
  std::string trace_out() const { return get("trace-out", ""); }
  std::string metrics_out() const { return get("metrics-out", ""); }

  /// Record/replay (docs/record-replay.md): "--record-out run.hcsr" writes
  /// the deterministic event-order recording, "--replay run.hcsr" re-runs
  /// while verifying against one.  Empty = disabled.
  std::string record_out() const { return get("record-out", ""); }
  std::string replay_file() const { return get("replay", ""); }

 private:
  std::string program_;
  std::map<std::string, std::string> options_;                 // last occurrence
  std::map<std::string, std::vector<std::string>> repeated_;   // all, in order
  std::vector<std::string> positional_;
};

}  // namespace hcs::util
