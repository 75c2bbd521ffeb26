#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "clocksync/factory.hpp"
#include "replay/bisect.hpp"
#include "replay/format.hpp"
#include "sim/frame_pool.hpp"
#include "simmpi/collectives.hpp"
#include "clocksync/skampi_offset.hpp"
#include "simmpi/world.hpp"
#include "trace/chrome_export.hpp"

namespace hcs::bench {

const BenchFlag kBenchFlags[] = {
    {"scale", "S",
     "workload multiplier in (0, 4]; 1.0 = paper configuration ($HCLOCKSYNC_SCALE)"},
    {"seed", "N", "base seed; mpirun i uses seed N + i"},
    {"jobs", "J",
     "worker threads for independent trials; 0 = one per hardware thread ($HCLOCKSYNC_JOBS)"},
    {"shards", "K",
     "event-loop shards inside each World (conservative PDES); 0 = one per hardware thread; "
     "output is byte-identical for any K ($HCLOCKSYNC_SHARDS)"},
    {"csv", nullptr, "additionally emit CSV rows"},
    {"trace-out", "FILE", "write a Chrome trace (chrome://tracing / Perfetto)"},
    {"metrics-out", "FILE", "write the metrics registry as CSV"},
    {"record-out", "FILE",
     "record the per-rank event order of every World to FILE "
     "(docs/record-replay.md)"},
    {"replay", "FILE",
     "verify this run against a recording: exits 1 and prints the first "
     "diverging event on mismatch; requires --jobs 1"},
    {"fault", "SPEC",
     "inject a fault, repeatable; SPEC = kind:key=value,... e.g. drop:p=0.01,level=network "
     "(see docs/fault-injection.md)"},
    {"fault-file", "FILE",
     "read fault SPECs from FILE, one per line ('#' starts a comment); repeatable, composes "
     "with --fault"},
    {"fault-seed", "N", "seed of the fault-injection RNG stream (default 0)"},
    {"help", nullptr, "print this help and exit"},
};
const std::size_t kBenchFlagCount = sizeof(kBenchFlags) / sizeof(kBenchFlags[0]);

namespace {

void usage_impl(std::ostream& os, const std::string& program,
                const std::vector<BenchFlag>& extra) {
  std::vector<BenchFlag> flags(kBenchFlags, kBenchFlags + kBenchFlagCount);
  flags.insert(flags.end(), extra.begin(), extra.end());
  os << "usage: " << program;
  for (const BenchFlag& f : flags) {
    os << " [--" << f.name;
    if (f.arg) os << " " << f.arg;
    os << "]";
  }
  os << "\n\noptions:\n";
  for (const BenchFlag& f : flags) {
    std::string head = "  --" + std::string(f.name) + (f.arg ? " " + std::string(f.arg) : "");
    head.resize(std::max<std::size_t>(head.size() + 2, 22), ' ');
    os << head << f.help << "\n";
  }
}

}  // namespace

void print_usage(std::ostream& os, const std::string& program) { usage_impl(os, program, {}); }

BenchOptions parse_common(int argc, const char* const* argv, double default_scale) {
  return parse_common_extra(argc, argv, default_scale, {}).opt;
}

ParsedBench parse_common_extra(int argc, const char* const* argv, double default_scale,
                               const std::vector<BenchFlag>& extra) {
  const util::Cli cli(argc, argv, {"csv", "help"});
  if (cli.has("help")) {
    usage_impl(std::cout, cli.program(), extra);
    std::exit(0);
  }
  BenchOptions opt;
  try {
    std::vector<std::string> known;
    for (std::size_t i = 0; i < kBenchFlagCount; ++i) known.push_back(kBenchFlags[i].name);
    for (const BenchFlag& f : extra) known.push_back(f.name);
    cli.reject_unknown(known);
    opt.scale = cli.scale(default_scale);
    opt.seed = cli.seed(1);
    opt.jobs = cli.jobs(1);
    opt.shards = runner::resolve_jobs(cli.shards(1));
    // Helpers that build Worlds internally (and don't thread opt through)
    // pick the flag up via the process-wide default.
    simmpi::set_default_shards(opt.shards);
    opt.csv = cli.has("csv");
    opt.trace_out = cli.trace_out();
    opt.metrics_out = cli.metrics_out();
    opt.record_out = cli.record_out();
    opt.replay = cli.replay_file();
    if (!opt.replay.empty() && opt.jobs != 1) {
      throw std::invalid_argument(
          "--replay requires --jobs 1 (got --jobs " + std::to_string(opt.jobs) +
          "): verification re-runs the recorded schedule on one thread");
    }
    for (const std::string& spec : cli.get_all("fault")) opt.fault_plan.add(spec);
    for (const std::string& path : cli.get_all("fault-file")) {
      std::ifstream in(path);
      if (!in) throw std::runtime_error("--fault-file: cannot open " + path);
      std::string line;
      while (std::getline(in, line)) {
        if (const auto hash = line.find('#'); hash != std::string::npos) line.erase(hash);
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos) continue;
        const auto last = line.find_last_not_of(" \t\r");
        opt.fault_plan.add(line.substr(first, last - first + 1));
      }
    }
    opt.fault_plan.set_seed(
        static_cast<std::uint64_t>(cli.get_int("fault-seed", 0)));
  } catch (const std::exception& e) {
    std::cerr << cli.program() << ": " << e.what() << "\n";
    usage_impl(std::cerr, cli.program(), extra);
    std::exit(2);
  }
  return ParsedBench{opt, cli};
}

Observability::Observability(const BenchOptions& opt)
    : trace_path_(opt.trace_out),
      metrics_path_(opt.metrics_out),
      record_path_(opt.record_out),
      replay_path_(opt.replay) {
  if (!trace_path_.empty()) {
    tracer_ = std::make_unique<trace::Tracer>();
    trace::install_tracer(tracer_.get());
  }
  // Metrics drive both the CSV dump and the end-of-run summary; enable them
  // whenever either output was requested.
  if (!metrics_path_.empty() || !trace_path_.empty()) {
    metrics_ = std::make_unique<trace::MetricsRegistry>();
    trace::install_metrics(metrics_.get());
  }
  // --replay records in memory only (the recording is compared, not saved).
  if (!record_path_.empty() || !replay_path_.empty()) {
    recorder_ = std::make_unique<replay::Recorder>();
    replay::install_recorder(recorder_.get());
  }
}

Observability::~Observability() {
  if (tracer_) {
    if (trace::write_chrome_trace_file(trace_path_, *tracer_)) {
      std::cout << "\nwrote Chrome trace (" << tracer_->recorded() - tracer_->dropped()
                << " events, " << tracer_->dropped() << " dropped): " << trace_path_ << "\n";
    } else {
      std::cerr << "failed to write trace: " << trace_path_ << "\n";
    }
    trace::install_tracer(nullptr);
  }
  if (metrics_) {
    if (!metrics_path_.empty()) {
      std::ofstream out(metrics_path_);
      if (out) {
        trace::write_metrics_csv(out, *metrics_);
        std::cout << "wrote metrics CSV: " << metrics_path_ << "\n";
      } else {
        std::cerr << "failed to write metrics: " << metrics_path_ << "\n";
      }
    }
    std::cout << "\n--- metrics summary (histograms in us) ---\n";
    trace::print_metrics_summary(std::cout, *metrics_);
    trace::install_metrics(nullptr);
  }
  if (recorder_) {
    replay::install_recorder(nullptr);
    if (!record_path_.empty()) {
      if (replay::save(record_path_, *recorder_)) {
        std::size_t events = 0;
        for (std::size_t i = 0; i < recorder_->world_count(); ++i) {
          events += recorder_->world(i).total_events();
        }
        std::cout << "wrote recording (" << recorder_->world_count() << " worlds, " << events
                  << " events): " << record_path_ << "\n";
      } else {
        std::cerr << "failed to write recording: " << record_path_ << "\n";
      }
    }
    if (!replay_path_.empty()) {
      const replay::Recording reference = replay::load(replay_path_);
      const replay::Recording current = replay::parse(replay::serialize(*recorder_));
      if (const auto d = replay::first_divergence(reference, current)) {
        std::cerr << "replay verification FAILED vs " << replay_path_ << ": world " << d->world
                  << " rank " << d->rank << " event " << d->index << " at t=" << d->time
                  << ": " << d->field << " differs (a=recording, b=this run)\n  " << d->detail
                  << "\n";
        std::exit(1);
      }
      std::cout << "replay verification: no divergence vs " << replay_path_ << "\n";
    }
  }
}

void print_header(const std::string& figure, const std::string& what,
                  const topology::MachineConfig& machine, const BenchOptions& opt) {
  std::cout << "=== " << figure << ": " << what << " ===\n"
            << "machine: " << machine.describe() << "\n"
            << "scale: " << opt.scale << " (1.0 = paper configuration), seed: " << opt.seed
            << "\n";
  if (!opt.fault_plan.empty()) {
    std::cout << "faults: " << opt.fault_plan.describe() << " (fault-seed "
              << opt.fault_plan.seed() << ")\n";
  }
  std::cout << "\n";
}

int scaled(int value, double scale, int min_value) {
  return std::max(min_value, static_cast<int>(std::lround(value * scale)));
}

std::size_t peak_rss_bytes() {
  // VmHWM is exact on Linux; ru_maxrss (KiB on Linux/BSD) is the fallback.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<std::size_t>(std::stoll(line.substr(6))) * 1024;
    }
  }
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) == 0) {
    return static_cast<std::size_t>(ru.ru_maxrss) * 1024;
  }
  return 0;
}

void record_memory_metrics() {
  HCS_METRIC_SET("hcs.mem.peak_rss_bytes", static_cast<double>(peak_rss_bytes()));
  HCS_METRIC_SET("hcs.mem.frame_pool_bytes",
                 static_cast<double>(sim::detail::FramePool::reserved_bytes()));
}

SyncAccuracyPoint run_sync_accuracy(const topology::MachineConfig& machine,
                                    const std::string& label, double wait_time,
                                    double sample_fraction, std::uint64_t seed,
                                    const fault::FaultPlan& fault_plan, int shards) {
  simmpi::World world(machine, seed, fault_plan, shards);
  SyncAccuracyPoint point;
  const std::vector<int> clients =
      clocksync::sample_clients(world.size(), 0, sample_fraction, seed ^ 0xabcdefULL);
  world.run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
    auto sync = clocksync::make_sync(label);
    const sim::Time begin = ctx.sim().now();
    const clocksync::SyncResult res =
        co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
    point.duration = std::max(point.duration, ctx.sim().now() - begin);
    clocksync::SKaMPIOffset oalg(20);
    const clocksync::AccuracyResult acc = co_await clocksync::check_clock_accuracy(
        ctx.comm_world(), *res.clock, oalg, wait_time, clients);
    // Per-rank health to rank 0; collectives ride the reliable transport, so
    // this completes (and stays cheap) even under fault injection.
    std::vector<double> mine(1, static_cast<double>(res.report.health));
    const std::vector<double> health = co_await simmpi::gather(ctx.comm_world(), std::move(mine));
    if (ctx.rank() == 0) {
      point.max_offset_t0 = acc.max_abs_t0;
      point.max_offset_t1 = acc.max_abs_t1;
      for (const double h : health) {
        if (h == static_cast<double>(clocksync::SyncHealth::kOk)) ++point.ok_ranks;
        if (h == static_cast<double>(clocksync::SyncHealth::kDegraded)) ++point.degraded_ranks;
        if (h == static_cast<double>(clocksync::SyncHealth::kFailed)) ++point.failed_ranks;
      }
    }
  });
  HCS_METRIC_ADD("hcs.sync.failed_ranks", static_cast<std::uint64_t>(point.failed_ranks));
  return point;
}

void run_and_print_sync_experiment(util::Table& table, const topology::MachineConfig& machine,
                                   const std::vector<std::string>& labels, int nmpiruns,
                                   double wait_time, double sample_fraction,
                                   const BenchOptions& opt) {
  // Flatten (label, run) into one trial index so all mpiruns of all
  // algorithms fan out together; the seed depends only on `run`, matching
  // the sequential convention (mpirun i of every algorithm uses seed + i).
  const int nlabels = static_cast<int>(labels.size());
  runner::TrialRunner pool(opt.jobs);
  const std::vector<SyncAccuracyPoint> points =
      pool.map(nlabels * nmpiruns, opt.seed, [&](const runner::Trial& trial) {
        const int label_idx = trial.index / nmpiruns;
        const int run = trial.index % nmpiruns;
        return run_sync_accuracy(machine, labels[label_idx], wait_time, sample_fraction,
                                 opt.seed + static_cast<std::uint64_t>(run), opt.fault_plan,
                                 opt.shards);
      });
  for (int label_idx = 0; label_idx < nlabels; ++label_idx) {
    const std::string& label = labels[static_cast<std::size_t>(label_idx)];
    std::vector<double> durations, t0s, t1s;
    int ok = 0, degraded = 0, failed = 0;
    for (int run = 0; run < nmpiruns; ++run) {
      const SyncAccuracyPoint& p = points[static_cast<std::size_t>(label_idx * nmpiruns + run)];
      durations.push_back(p.duration);
      t0s.push_back(p.max_offset_t0);
      t1s.push_back(p.max_offset_t1);
      ok += p.ok_ranks;
      degraded += p.degraded_ranks;
      failed += p.failed_ranks;
      table.add_row({label, std::to_string(run), util::fmt(p.duration, 4),
                     util::fmt_us(p.max_offset_t0, 3), util::fmt_us(p.max_offset_t1, 3),
                     std::to_string(p.ok_ranks), std::to_string(p.degraded_ranks),
                     std::to_string(p.failed_ranks)});
    }
    table.add_row({label + " [mean]", "-", util::fmt(util::mean(durations), 4),
                   util::fmt_us(util::mean(t0s), 3), util::fmt_us(util::mean(t1s), 3),
                   std::to_string(ok), std::to_string(degraded), std::to_string(failed)});
  }
}

}  // namespace hcs::bench
