// Fig. 6 — HCA3 vs. H2HCA at scale: Titan, 1024 x 16 = 16384 ranks,
// 5 mpiruns, clock accuracy sampled on 10 % of the ranks (as in the paper,
// "otherwise the measurement procedure would take too long").
//
// The rank count is the paper's real one at every --scale: the machine is
// always the full 1024-node Titan preset, and --scale only thins the
// per-rank workload (fit points, pingpongs per measurement).  Slab-allocated
// coroutine frames and rank state keep the default run cheap at this size;
// bench_scale extends the same sweep to 131072 ranks.
//
// Expected shape: errors grow vs. the 512-rank runs (deeper trees, fatter
// jitter tails), the hierarchical variants stay faster, and the run-to-run
// variance of the maximum offset increases markedly.
#include <iostream>

#include "common.hpp"

int main(int argc, char** argv) {
  using namespace hcs;
  using namespace hcs::bench;
  const BenchOptions opt = parse_common(argc, argv, 0.05);
  const Observability obs(opt);
  const auto machine = topology::titan();  // 1024 x 16

  const int npp = scaled(100, opt.scale, 8);
  const int nfit_hi = scaled(1000, opt.scale, 30);
  const int nfit_lo = scaled(500, opt.scale, 15);
  const int nmpiruns = 5;
  print_header("Fig. 6", "HCA3 vs. H2HCA on Titan (1024 x 16 = 16384 ranks), 5 mpiruns, "
                         "accuracy sampled on 10% of ranks",
               machine, opt);

  auto flat = [&](int nfit) {
    return "hca3/recompute_intercept/" + std::to_string(nfit) + "/skampi_offset/" +
           std::to_string(npp);
  };
  auto hier = [&](int nfit) {
    return "top/hca3/" + std::to_string(nfit) + "/skampi_offset/" + std::to_string(npp) +
           "/bottom/clockpropagation";
  };
  const std::vector<std::string> labels = {flat(nfit_hi), flat(nfit_lo), hier(nfit_hi),
                                           hier(nfit_lo)};

  util::Table table({"algorithm", "mpirun", "sync_duration_s", "max_offset_0s_us",
                     "max_offset_10s_us", "ok_ranks", "degraded_ranks", "failed_ranks"});
  run_and_print_sync_experiment(table, machine, labels, nmpiruns, 10.0, 0.10, opt);
  table.print(std::cout);
  if (opt.csv) table.print_csv(std::cout);
  std::cout << "\nShape check: larger offsets and larger run-to-run spread than Figs. 4/5; "
               "H2HCA rows remain left of (faster than) the flat rows.\n";
  return 0;
}
