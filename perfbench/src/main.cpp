// hcs_perfbench: runs one benchmark workload in this process and prints one
// JSON object (the last stdout line) with its metrics, the rank-sync counts
// and the digest of its deterministic outputs.  run.py builds this binary,
// adds the machine metadata and checks the digest; NOTES.md describes the
// workloads and metrics.
//
//   hcs_perfbench --workload NAME --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// Untraced (--trace 0): end-to-end metrics.  The workload's batch of Worlds
// repeats until S seconds are used (at least once); timings are medians
// over the repetitions.  Traced (--trace 1): untraced and traced
// repetitions alternate; per-layer metrics come from the host-time spans of
// the traced ones, trace.overhead_s from the difference, and the
// standalone layer probes run at the workload's sizes.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "host.hpp"
#include "probes.hpp"
#include "runner/trial_runner.hpp"
#include "sim/frame_pool.hpp"
#include "trace/metrics.hpp"
#include "workload.hpp"

namespace {

using namespace hcs;
using namespace hcs::perfbench;

constexpr double kMiB = 1024.0 * 1024.0;
// Set-up samples per untraced run: a run with fewer repetitions adds
// set-up-only passes (rank programs return on entry).
constexpr int kSetupSamples = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value);
    } else if (flag == "--trace") {
      o.trace = value != "0";
    } else if (flag == "--trace-out") {
      o.trace_out = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  return o;
}

// One trial of a repetition: its World and the runner.trial span around it.
struct Trial {
  WorldResult world;
  double begin = 0.0, end = 0.0;
  double busy() const { return end - begin; }
};

// One repetition of a workload's batch of Worlds.
struct Batch {
  bool traced = false;
  double begin = 0.0, end = 0.0;
  std::vector<Trial> trials;               // in trial order
  std::map<std::string, double> counters;  // traced: the MetricsRegistry's

  double wall() const { return end - begin; }
  std::vector<WorldResult> worlds() const {
    std::vector<WorldResult> out;
    for (const Trial& t : trials) out.push_back(t.world);
    return out;
  }
  template <typename Fn>
  double sum(Fn&& f) const {
    double s = 0.0;
    for (const Trial& t : trials) s += f(t.world);
    return s;
  }
};

std::map<std::string, double> read_counters(const trace::MetricsRegistry& reg) {
  auto counter = [&reg](const std::string& name) {
    const auto it = reg.counters().find(name);
    return it == reg.counters().end() ? 0.0 : static_cast<double>(it->second.value());
  };
  std::map<std::string, double> out;
  for (const auto& [name, c] : reg.counters()) {
    if (name.rfind("net.messages.", 0) == 0) out["simmpi.messages"] += counter(name);
  }
  out["simmpi.pingpongs"] = counter("sync.pingpongs");
  for (const char* name : {"fault.net.drops", "fault.net.retransmits", "sync.exchanges_lost"}) {
    out[name] = counter(name);
  }
  const auto retries = reg.histograms().find("sync.burst_retries");
  out["sync.burst_retries"] = retries == reg.histograms().end() ? 0.0 : retries->second.sum();
  return out;
}

Batch run_batch(const Workload& w, RunMode mode) {
  Batch b;
  b.traced = mode.traced;
  // Per-World memory attribution needs Worlds that never overlap.  Set-up
  // passes reset too, so they start from the same trimmed heap.
  mode.memory = w.jobs == 1;
  std::unique_ptr<trace::MetricsRegistry> registry;
  if (mode.traced) {
    registry = std::make_unique<trace::MetricsRegistry>();
    trace::install_metrics(registry.get());
  }
  runner::TrialRunner pool(w.jobs);
  b.begin = host_now();
  b.trials = pool.map(static_cast<int>(w.batch.size()), w.batch.front().seed,
                      [&](const runner::Trial& t) {
                        Trial out;
                        out.begin = host_now();
                        out.world = run_world(w.batch[static_cast<std::size_t>(t.index)], mode);
                        out.end = host_now();
                        return out;
                      });
  b.end = host_now();
  if (registry) {
    trace::install_metrics(nullptr);
    b.counters = read_counters(*registry);
  }
  return b;
}

// Chrome trace of the traced repetitions' host-time spans: one row per
// World; every span carries its World id and names its parent.
void write_trace(const std::string& path, const Workload& w, const std::vector<Batch>& batches) {
  std::ofstream out(path);
  std::string sep;
  auto span = [&](const std::string& name, int world, const std::string& parent, double begin,
                  double end) {
    Json ev;
    ev.str("name", name).str("ph", "X").integer("pid", 1).integer("tid", world + 1);
    ev.num("ts", begin * 1e6).num("dur", (end - begin) * 1e6);
    ev.raw("args", Json().integer("world", world).str("parent", parent).dump());
    out << sep << ev.dump();
    sep = ",\n";
  };
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  int id = 0;
  for (const Batch& b : batches) {
    if (!b.traced) continue;
    span("workload.batch", -1, "", b.begin, b.end);
    for (const Trial& t : b.trials) {
      const WorldResult& r = t.world;
      span("runner.trial", id, "workload.batch", t.begin, t.end);
      span("world.construct", id, "runner.trial", r.t_ctor, r.t_launch);
      span("world.launch", id, "runner.trial", r.t_launch, r.t_entry);
      span("world.run", id, "runner.trial", r.t_entry, r.t_run_end);
      if (r.sync_end > r.sync_begin) {
        span("clocksync.sync", id, "world.run", r.sync_begin, r.sync_end);
        span("clocksync.accuracy", id, "world.run", r.acc_begin, r.acc_end);
      }
      span("world.teardown", id, "runner.trial", r.t_run_end, r.t_end);
      ++id;
    }
  }
  out << "\n], \"otherData\": " << Json().str("workload", w.name).dump() << "}\n";
}

// Median over the given repetitions of f(batch).
template <typename Fn>
double median_over(const std::vector<const Batch*>& batches, Fn&& f) {
  std::vector<double> v;
  for (const Batch* b : batches) v.push_back(f(*b));
  return median(v);
}

void metric(Json& j, const std::string& name, double value, const char* unit) {
  j.raw(name, Json().num("value", value).str("unit", unit).dump());
}

// Everything one run measured, and the verdict of its checks.
struct Run {
  const Workload& w;
  std::vector<WorldResult> memory_worlds;  // concurrent workloads' memory pass
  std::vector<Batch> batches;
  std::vector<const Batch*> untraced, traced;
  std::int64_t attempted = 0, failed = 0;
  std::vector<std::string> problems;
  bool all_failed = false;  // a run-wide check failed: every rank-sync counts as failed
  double peak_rss = 0.0, bytes_per_rank = 0.0;

  explicit Run(const Workload& workload) : w(workload) {}

  std::int64_t ranks() const { return w.ranks(); }

  void account(const WorldSpec& spec, const WorldResult& r) {
    attempted += spec.machine.topo.total_ranks();
    if (const std::string why = check_world(spec, r, w.expect_clean); !why.empty()) {
      failed += spec.machine.topo.total_ranks();
      problems.push_back(spec.label + " seed " + std::to_string(spec.seed) + ": " + why);
    }
  }
  void fail_all(const std::string& why) {
    problems.push_back(why);
    all_failed = true;
  }
};

// The first mpirun of each algorithm, in batch order.
std::vector<std::size_t> first_of_each_alg(const Workload& w) {
  std::set<std::string> seen;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < w.batch.size(); ++i) {
    if (seen.insert(w.batch[i].alg).second) out.push_back(i);
  }
  return out;
}

void measure(Run& run, const Options& opt) {
  const Workload& w = run.w;
  // Memory pass for concurrent workloads: the first mpirun of each
  // algorithm alone, so peak RSS belongs to one World.  Sequential
  // workloads measure memory inside their repetitions instead.
  if (w.jobs > 1) {
    RunMode mode;
    mode.memory = true;
    for (const std::size_t i : first_of_each_alg(w)) {
      run.memory_worlds.push_back(run_world(w.batch[i], mode));
    }
  }
  // Repetitions until the time is used: untraced ones only, or untraced and
  // traced alternating.
  const double deadline = host_now() + opt.seconds;
  for (;;) {
    const double cycle_begin = host_now();
    RunMode mode;
    run.batches.push_back(run_batch(w, mode));
    if (opt.trace) {
      mode.traced = true;
      run.batches.push_back(run_batch(w, mode));
    }
    if (host_now() + (host_now() - cycle_begin) > deadline) break;
  }
  for (const Batch& b : run.batches) (b.traced ? run.traced : run.untraced).push_back(&b);

  std::vector<WorldResult> measured = run.memory_worlds;
  if (measured.empty()) {
    for (const Batch& b : run.batches) {
      for (const Trial& t : b.trials) measured.push_back(t.world);
    }
  }
  for (const WorldResult& r : measured) {
    run.peak_rss = std::max(run.peak_rss, static_cast<double>(r.peak_rss));
    const double growth = static_cast<double>(r.rss_entry) - static_cast<double>(r.rss_before);
    run.bytes_per_rank = std::max(run.bytes_per_rank, growth / static_cast<double>(run.ranks()));
  }
}

// Correctness: every World passes its check, every repetition reproduces the
// first one exactly, the memory pass agrees with the repetitions, and
// --shards changes nothing.
void check(Run& run) {
  const Workload& w = run.w;
  const std::vector<std::size_t> firsts = first_of_each_alg(w);
  const std::vector<WorldResult> reference = run.batches.front().worlds();
  for (std::size_t m = 0; m < run.memory_worlds.size(); ++m) {
    const std::size_t i = firsts[m];
    run.account(w.batch[i], run.memory_worlds[m]);
    if (digest({w.batch[i]}, {run.memory_worlds[m]}) != digest({w.batch[i]}, {reference[i]})) {
      run.fail_all("memory pass of " + w.batch[i].label + " differs from the batch run");
    }
  }
  for (const Batch& b : run.batches) {
    for (std::size_t i = 0; i < b.trials.size(); ++i) run.account(w.batch[i], b.trials[i].world);
    if (digest(w.batch, b.worlds()) != digest(w.batch, reference)) {
      run.fail_all("a repetition's outputs differ from the first repetition's");
    }
    if (b.traced && b.counters != run.traced.front()->counters) {
      run.fail_all("MetricsRegistry counters differ between traced repetitions");
    }
  }
  // The full-size comparison of --shards 1 and K is the stored digest (and
  // run.py's cross-run check); this one runs on every seed, at 1024 ranks.
  if (w.batch.front().shards > 1) {
    std::vector<WorldSpec> small = w.batch;
    std::vector<WorldResult> one, many;
    for (WorldSpec& s : small) {
      s.machine = s.machine.with_nodes(64);
      many.push_back(run_world(s, {}));
      const int shards = s.shards;
      s.shards = 1;
      one.push_back(run_world(s, {}));
      s.shards = shards;
    }
    if (digest(small, one) != digest(small, many)) {
      run.fail_all("--shards " + std::to_string(small.front().shards) +
                   " changed the results of a 1024-rank cross-check");
    }
  }
  run.failed = run.all_failed ? run.attempted : std::min(run.failed, run.attempted);
}

Json end_to_end(const Run& run, Json& detail) {
  std::vector<double> walls, setups;
  for (const Batch* b : run.untraced) {
    walls.push_back(b->wall());
    setups.push_back(b->sum(std::mem_fn(&WorldResult::setup_s)));
  }
  while (setups.size() < kSetupSamples) {
    RunMode mode;
    mode.setup_only = true;
    setups.push_back(run_batch(run.w, mode).sum(std::mem_fn(&WorldResult::setup_s)));
  }
  Json m;
  metric(m, "wall_s", median(walls), "s");
  metric(m, "setup_s", median(setups), "s");
  metric(m, "peak_rss_mib", run.peak_rss / kMiB, "MiB");
  metric(m, "sync_ok_share",
         static_cast<double>(run.attempted - run.failed) / static_cast<double>(run.attempted),
         "ratio");
  detail.integer("wall_s.samples", static_cast<std::int64_t>(walls.size()));
  detail.num("wall_s.min", quantile(walls, 0.0));
  detail.num("wall_s.p75", quantile(walls, 0.75));
  detail.integer("setup_s.samples", static_cast<std::int64_t>(setups.size()));
  return m;
}

Json per_layer(const Run& run, const Options& opt, Json& detail) {
  const Workload& w = run.w;
  const std::vector<const Batch*>& traced = run.traced;
  const std::map<std::string, double>& counters = traced.front()->counters;
  auto span_sum = [&](auto&& f) {
    return median_over(traced, [&](const Batch& b) { return b.sum(f); });
  };
  auto alg_sum = [&](const std::string& alg, bool sync) {
    return median_over(traced, [&](const Batch& b) {
      double s = 0.0;
      for (std::size_t i = 0; i < b.trials.size(); ++i) {
        if (!alg.empty() && w.batch[i].alg != alg) continue;
        const WorldResult& r = b.trials[i].world;
        s += sync ? r.sync_end - r.sync_begin : r.acc_end - r.acc_begin;
      }
      return s;
    });
  };
  const double run_s = span_sum([](const WorldResult& r) { return r.t_run_end - r.t_entry; });
  const double events =
      traced.front()->sum([](const WorldResult& r) { return static_cast<double>(r.events); });
  std::vector<double> busy;
  for (const Batch* b : traced) {
    for (const Trial& t : b->trials) busy.push_back(t.busy());
  }

  Json m;
  metric(m, "simmpi.world_ctor_s",
         span_sum([](const WorldResult& r) { return r.t_launch - r.t_ctor; }), "s");
  metric(m, "simmpi.launch_s",
         span_sum([](const WorldResult& r) { return r.t_entry - r.t_launch; }), "s");
  metric(m, "simmpi.run_s", run_s, "s");
  metric(m, "simmpi.teardown_s",
         span_sum([](const WorldResult& r) { return r.t_end - r.t_run_end; }), "s");
  metric(m, "simmpi.bytes_per_rank", run.bytes_per_rank, "B");
  metric(m, "simmpi.channel_rng_ns", probe_channel_rng_ns(w.batch.front().machine, opt.seed),
         "ns");
  metric(m, "simmpi.messages", counters.at("simmpi.messages"), "count");
  metric(m, "simmpi.pingpongs", counters.at("simmpi.pingpongs"), "count");
  metric(m, "sim.events", events, "count");
  metric(m, "sim.events_per_s", events / run_s, "1/s");
  metric(m, "sim.queue_op_ns", probe_queue_op_ns(w.ranks(), opt.seed), "ns");
  metric(m, "sim.frame_pool_mib",
         static_cast<double>(sim::detail::FramePool::reserved_bytes()) / kMiB, "MiB");
  metric(m, "clocksync.sync_s", alg_sum("", true), "s");
  metric(m, "clocksync.sync_s.hca3", alg_sum("hca3", true), "s");
  metric(m, "clocksync.accuracy_s", alg_sum("", false), "s");
  metric(m, "clocksync.fit_ns", probe_fit_ns(w.batch.front().nfit, opt.seed), "ns");
  metric(m, "clocksync.degraded_ranks",
         traced.front()->sum([](const WorldResult& r) { return r.degraded_ranks; }), "count");
  metric(m, "runner.trial_p50_s", quantile(busy, 0.5), "s");
  metric(m, "runner.trial_p75_s", quantile(busy, 0.75), "s");
  metric(m, "runner.efficiency", median_over(traced, [&](const Batch& b) {
           double s = 0.0;
           for (const Trial& t : b.trials) s += t.busy();
           return s / (w.jobs * b.wall());
         }), "ratio");
  for (const char* name : {"fault.net.drops", "fault.net.retransmits", "sync.burst_retries",
                           "sync.exchanges_lost"}) {
    metric(m, name, counters.at(name), "count");
  }
  metric(m, "fault.retry_ratio",
         counters.at("fault.net.retransmits") / counters.at("simmpi.messages"), "ratio");
  metric(m, "trace.overhead_s",
         median_over(traced, std::mem_fn(&Batch::wall)) -
             median_over(run.untraced, std::mem_fn(&Batch::wall)),
         "s");

  std::set<std::string> algs;
  for (const WorldSpec& s : w.batch) algs.insert(s.alg);
  for (const std::string& alg : algs) {
    metric(detail, "clocksync.sync_s." + alg, alg_sum(alg, true), "s");
    metric(detail, "clocksync.accuracy_s." + alg, alg_sum(alg, false), "s");
  }
  detail.integer("runner.trials", static_cast<std::int64_t>(busy.size()));
  detail.integer("traced.samples", static_cast<std::int64_t>(traced.size()));
  return m;
}

int run_workload(const Options& opt) {
  const Workload w = make_workload(opt.workload, opt.seed);
  Run run(w);
  measure(run, opt);
  check(run);
  Json detail;
  const Json metrics = opt.trace ? per_layer(run, opt, detail) : end_to_end(run, detail);
  if (opt.trace && !opt.trace_out.empty()) write_trace(opt.trace_out, w, run.batches);

  std::string problems = "[";
  for (std::size_t i = 0; i < run.problems.size(); ++i) {
    problems += (i ? ", " : "") + json_string(run.problems[i]);
  }
  problems += "]";
  Json out;
  out.str("workload", w.name).integer("seed", static_cast<std::int64_t>(opt.seed));
  out.integer("trace", opt.trace ? 1 : 0).integer("jobs", w.jobs).integer("ranks", run.ranks());
  out.integer("worlds_per_repetition", static_cast<std::int64_t>(w.batch.size()));
  out.integer("attempted", run.attempted).integer("failed", run.failed);
  out.raw("problems", problems).str("digest", digest(w.batch, run.batches.front().worlds()));
  out.raw("metrics", metrics.dump()).raw("detail", detail.dump());
  std::cout << out.dump() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run_workload(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "hcs_perfbench: " << e.what() << "\n";
    return 2;
  }
}
