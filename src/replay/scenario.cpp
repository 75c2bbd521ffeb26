#include "replay/scenario.hpp"

#include <stdexcept>

namespace hcs::replay {

namespace {

// The chaos suite's tuned clock parameters (tests/chaos/): visible initial
// offsets so a working sync is distinguishable from an identity fallback.
void tune_clocks(topology::MachineConfig& m) {
  m.clocks.initial_offset_abs = 5e-3;
  m.clocks.base_skew_abs = 2e-6;
  m.clocks.skew_walk_sd = 0.005e-6;
}

std::vector<Scenario> build_scenarios() {
  std::vector<Scenario> all;

  {
    // 8 single-rank nodes: every message is inter-node, so the shard count
    // can range over 1..8 — the workhorse of the invariance tests.
    Scenario s;
    s.name = "ring8";
    s.description = "8 nodes x 1 rank, HCA-3, fault-free";
    s.machine = topology::testbox(8, 1);
    tune_clocks(s.machine);
    s.sync_label = "hca3/1000/skampi_offset/10";
    all.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "ring8-crash";
    s.description = "ring8 with a mid-sync crash of rank 5";
    s.machine = topology::testbox(8, 1);
    tune_clocks(s.machine);
    s.sync_label = "hca3/1000/skampi_offset/10";
    s.faults.add("crash:rank=5,at=2ms");
    all.push_back(std::move(s));
  }
  {
    // A hierarchical slice of the paper's Titan preset: multiple ranks per
    // node exercises the intra-node burst fast path alongside cross-node
    // rendezvous.
    Scenario s;
    s.name = "titan-small";
    s.description = "Titan preset at 4 nodes (64 ranks), HCA-3, fault-free";
    s.machine = topology::titan().with_nodes(4);
    s.sync_label = "hca3/300/skampi_offset/10";
    s.sample_fraction = 0.25;  // keep the accuracy phase cheap at 64 ranks
    all.push_back(std::move(s));
  }
  {
    // Tiny World + short sync: keeps recordings small enough to commit as
    // incidents under tests/replay/incidents/ (docs/record-replay.md).
    Scenario s;
    s.name = "micro4";
    s.description = "4 nodes x 1 rank, short HCA-3 sync; incident-sized recordings";
    s.machine = topology::testbox(4, 1);
    tune_clocks(s.machine);
    s.sync_label = "hca3/60/skampi_offset/8";
    s.accuracy_exchanges = 8;
    all.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "micro4-crash";
    s.description = "micro4 with a mid-sync crash of rank 2";
    s.machine = topology::testbox(4, 1);
    tune_clocks(s.machine);
    s.sync_label = "hca3/60/skampi_offset/8";
    s.accuracy_exchanges = 8;
    s.faults.add("crash:rank=2,at=2ms");
    all.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "micro4-drop";
    s.description = "micro4 with 5% message drops (retries on the record)";
    s.machine = topology::testbox(4, 1);
    tune_clocks(s.machine);
    s.sync_label = "hca3/60/skampi_offset/8";
    s.accuracy_exchanges = 8;
    s.faults.add("drop:p=0.05");
    all.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "micro4-step";
    s.description = "micro4 with a 50us clock step on rank 3 mid-sync";
    s.machine = topology::testbox(4, 1);
    tune_clocks(s.machine);
    s.sync_label = "hca3/60/skampi_offset/8";
    s.accuracy_exchanges = 8;
    s.faults.add("clockstep:rank=3,at=2ms,step=50us");
    all.push_back(std::move(s));
  }
  {
    // Churn incident: rank 2 leaves mid-sync (the cohort heals) and rejoins
    // at 300ms with a fresh clock, re-admitted through its HCA3 tree parent.
    Scenario s;
    s.name = "micro4-churn";
    s.description = "micro4 with rank 2 leaving mid-sync and rejoining at 300ms";
    s.machine = topology::testbox(4, 1);
    tune_clocks(s.machine);
    s.sync_label = "hca3/60/skampi_offset/8";
    s.accuracy_exchanges = 8;
    s.faults.add("leave:rank=2,at=2ms");
    s.faults.add("rejoin:rank=2,at=300ms");
    all.push_back(std::move(s));
  }
  {
    // Hierarchical incident: H2HCA's node split and leaders split record
    // kSplit events (format v3), then HCA-3 runs among the 4 node leaders
    // and clock propagation within each node.
    Scenario s;
    s.name = "micro16-h2hca";
    s.description = "4 nodes x 4 ranks, H2HCA (HCA-3 top, clock propagation bottom)";
    s.machine = topology::testbox(4, 4);
    tune_clocks(s.machine);
    s.sync_label = "top/hca3/60/skampi_offset/8/bottom/clockpropagation";
    s.accuracy_exchanges = 8;
    all.push_back(std::move(s));
  }
  {
    // Crash incident on the intra-node burst path: rank 5 crashes while
    // parked as a burst's first arriver, then its same-node partner 4 parks
    // waiting for it until the detector declares it dead, so both
    // intra-node burst watchdogs fire.
    Scenario s;
    s.name = "micro16-crash";
    s.description = "4 nodes x 4 ranks, HCA-3, rank 5 crashes during an intra-node burst";
    s.machine = topology::testbox(4, 4);
    tune_clocks(s.machine);
    s.sync_label = "hca3/20/skampi_offset/8";
    s.accuracy_exchanges = 8;
    s.faults.add("crash:rank=5,at=1ms");
    all.push_back(std::move(s));
  }
  {
    Scenario s;
    s.name = "titan-small-crash";
    s.description = "titan-small with a mid-sync crash of rank 3";
    s.machine = topology::titan().with_nodes(4);
    s.sync_label = "hca3/300/skampi_offset/10";
    s.sample_fraction = 0.25;
    s.faults.add("crash:rank=3,at=3ms");
    all.push_back(std::move(s));
  }
  return all;
}

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> all = build_scenarios();
  return all;
}

}  // namespace

const Scenario& find_scenario(const std::string& name) {
  for (const Scenario& s : scenarios()) {
    if (s.name == name) return s;
  }
  std::string known;
  for (const Scenario& s : scenarios()) {
    if (!known.empty()) known += ", ";
    known += s.name;
  }
  throw std::invalid_argument("unknown scenario \"" + name + "\" (known: " + known + ")");
}

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  names.reserve(scenarios().size());
  for (const Scenario& s : scenarios()) names.push_back(s.name);
  return names;
}

}  // namespace hcs::replay
