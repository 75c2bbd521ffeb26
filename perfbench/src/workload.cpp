#include "workload.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <exception>
#include <limits>
#include <optional>
#include <stdexcept>

#include "clocksync/accuracy.hpp"
#include "clocksync/factory.hpp"
#include "clocksync/skampi_offset.hpp"
#include "host.hpp"
#include "simmpi/world.hpp"

namespace hcs::perfbench {

namespace {

// Fig. 6's labels at --scale 0.05 (nfit 50, 8 ping-pongs per measurement).
constexpr int kTitanNfit = 50;
// Fig. 3's labels at its default --scale 0.1 (nfit 100, 10 / 20 ping-pongs).
constexpr int kJupiterNfit = 100;
constexpr int kJupiterMpiruns = 10;

std::vector<WorldSpec> titan16k(std::uint64_t seed, int shards) {
  const std::string nfit = std::to_string(kTitanNfit);
  WorldSpec flat;
  flat.alg = "hca3";
  flat.label = "hca3/recompute_intercept/" + nfit + "/skampi_offset/8";
  flat.machine = topology::titan();  // 1024 x 16 = 16384 ranks
  flat.nfit = kTitanNfit;
  flat.sample_fraction = 0.10;  // as Fig. 6: accuracy on 10 % of the ranks
  flat.shards = shards;
  flat.seed = seed;
  WorldSpec hier = flat;
  hier.alg = "h2hca";
  hier.label = "top/hca3/" + nfit + "/skampi_offset/8/bottom/clockpropagation";
  return {flat, hier};
}

std::vector<WorldSpec> jupiter512(std::uint64_t seed, const fault::FaultPlan& faults) {
  const std::string nfit = std::to_string(kJupiterNfit);
  const std::vector<std::pair<std::string, std::string>> algs = {
      {"hca", "hca/" + nfit + "/skampi_offset/10"},
      {"hca2", "hca2/recompute_intercept/" + nfit + "/skampi_offset/10"},
      {"hca3", "hca3/recompute_intercept/" + nfit + "/skampi_offset/10"},
      {"jk", "jk/" + nfit + "/skampi_offset/20"},
  };
  std::vector<WorldSpec> batch;
  for (const auto& [alg, label] : algs) {
    for (int run = 0; run < kJupiterMpiruns; ++run) {
      WorldSpec s;
      s.alg = alg;
      s.label = label;
      s.machine = topology::jupiter().with_nodes(32);  // 32 x 16 = 512 ranks
      s.nfit = kJupiterNfit;
      s.faults = faults;
      s.seed = seed + static_cast<std::uint64_t>(run);  // mpirun i uses seed + i
      batch.push_back(s);
    }
  }
  return batch;
}

}  // namespace

Workload make_workload(const std::string& name, std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "titan16k-serial") {
    w.batch = titan16k(seed, 1);
  } else if (name == "titan16k-shards2") {
    w.batch = titan16k(seed, 2);
  } else if (name == "titan16k-shards4") {
    w.batch = titan16k(seed, 4);
  } else if (name == "jupiter512-trials") {
    w.batch = jupiter512(seed, {});
    w.jobs = 4;
  } else if (name == "jupiter512-faults") {
    fault::FaultPlan faults;
    faults.add("drop:p=0.01,level=network");
    faults.add("duplicate:p=0.01");
    faults.add("reorder:p=0.05,delay=2us");
    faults.set_seed(seed * 0x9e3779b97f4a7c15ULL + 0xfa17);
    w.batch = jupiter512(seed, faults);
    w.jobs = 4;
    w.expect_clean = false;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

WorldResult run_world(const WorldSpec& spec, const RunMode& mode) {
  WorldResult res;
  const int nranks = spec.machine.topo.total_ranks();
  const auto n = static_cast<std::size_t>(nranks);
  const std::vector<int> clients =
      clocksync::sample_clients(nranks, 0, spec.sample_fraction, spec.seed ^ 0xabcdefULL);
  // Per-rank slots: rank programs may run on shard worker threads, so each
  // rank writes only its own entry and the reductions happen after the run.
  std::vector<double> durations(n, 0.0);
  std::vector<clocksync::SyncHealth> health(n, clocksync::SyncHealth::kFailed);
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> sync_b, sync_e, acc_b, acc_e;
  if (mode.traced) {
    sync_b.assign(n, inf);
    acc_b.assign(n, inf);
    sync_e.assign(n, -inf);
    acc_e.assign(n, -inf);
  }
  std::atomic<bool> entered{false};

  if (mode.memory) {
    reset_peak_rss();
    res.rss_before = current_rss_bytes();
  }
  res.t_ctor = host_now();
  std::optional<simmpi::World> world;
  try {
    world.emplace(spec.machine, spec.seed, spec.faults, spec.shards);
    res.t_launch = host_now();
    world->run_all([&](simmpi::RankCtx& ctx) -> sim::Task<void> {
      const auto r = static_cast<std::size_t>(ctx.rank());
      if (!entered.load(std::memory_order_relaxed) && !entered.exchange(true)) {
        res.t_entry = host_now();
        if (mode.memory) res.rss_entry = current_rss_bytes();
      }
      if (mode.setup_only) co_return;
      auto sync = clocksync::make_sync(spec.label);
      const sim::Time begin = ctx.sim().now();
      if (mode.traced) sync_b[r] = host_now();
      const clocksync::SyncResult sres =
          co_await sync->sync_clocks(ctx.comm_world(), ctx.base_clock());
      if (mode.traced) sync_e[r] = host_now();
      durations[r] = ctx.sim().now() - begin;
      health[r] = sres.report.health;
      clocksync::SKaMPIOffset oalg(20);
      if (mode.traced) acc_b[r] = host_now();
      const clocksync::AccuracyResult acc = co_await clocksync::check_clock_accuracy(
          ctx.comm_world(), *sres.clock, oalg, spec.wait_time, clients);
      if (mode.traced) acc_e[r] = host_now();
      if (r == 0) {
        res.max_offset_t0 = acc.max_abs_t0;
        res.max_offset_t1 = acc.max_abs_t1;
      }
    });
    res.t_run_end = host_now();
    res.events = world->events_processed();
  } catch (const std::exception& e) {
    res.error = e.what();
    if (res.t_launch == 0.0) res.t_launch = host_now();
    res.t_run_end = host_now();
  }
  if (res.t_entry == 0.0) res.t_entry = res.t_run_end;
  world.reset();
  res.t_end = host_now();
  if (mode.memory) res.peak_rss = peak_rss_bytes();

  if (res.error.empty() && !mode.setup_only) {
    res.sync_duration = *std::max_element(durations.begin(), durations.end());
    for (const clocksync::SyncHealth h : health) {
      if (h == clocksync::SyncHealth::kOk) ++res.ok_ranks;
      if (h == clocksync::SyncHealth::kDegraded) ++res.degraded_ranks;
      if (h == clocksync::SyncHealth::kFailed) ++res.failed_ranks;
    }
  }
  if (mode.traced && res.error.empty() && !mode.setup_only) {
    res.sync_begin = *std::min_element(sync_b.begin(), sync_b.end());
    res.sync_end = *std::max_element(sync_e.begin(), sync_e.end());
    res.acc_begin = *std::min_element(acc_b.begin(), acc_b.end());
    res.acc_end = *std::max_element(acc_e.begin(), acc_e.end());
  }
  return res;
}

std::string check_world(const WorldSpec& spec, const WorldResult& r, bool expect_clean) {
  const int nranks = spec.machine.topo.total_ranks();
  if (!r.error.empty()) return "World threw: " + r.error;
  if (r.ok_ranks + r.degraded_ranks + r.failed_ranks != nranks) return "health count mismatch";
  if (r.failed_ranks > 0) return std::to_string(r.failed_ranks) + " ranks report kFailed";
  if (expect_clean && r.ok_ranks != nranks) {
    return std::to_string(nranks - r.ok_ranks) + " ranks not kOk on a fault-free World";
  }
  if (!(r.sync_duration > 0.0) || !std::isfinite(r.sync_duration)) return "bad sync duration";
  if (!std::isfinite(r.max_offset_t0) || !std::isfinite(r.max_offset_t1)) return "bad offsets";
  if (r.events == 0) return "no events processed";
  return {};
}

std::string digest(const std::vector<WorldSpec>& specs, const std::vector<WorldResult>& results) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  };
  char buf[256];
  for (std::size_t i = 0; i < results.size(); ++i) {
    const WorldResult& r = results[i];
    std::snprintf(buf, sizeof buf, "|%a|%a|%a|%llu|%d|%d|%d|", r.sync_duration, r.max_offset_t0,
                  r.max_offset_t1, static_cast<unsigned long long>(r.events), r.ok_ranks,
                  r.degraded_ranks, r.failed_ranks);
    mix(specs[i].label + "@" + std::to_string(specs[i].seed) + buf + r.error);
  }
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace hcs::perfbench
