// The hcs_capture CLI — record a named capture scenario to a .hcsr file and
// (optionally) its per-rank outcomes to a hexfloat sidecar
// (docs/record-replay.md).  The incident library under
// tests/replay/incidents/ is produced by this tool; --perturb regenerates
// the deliberately-nudged twin recordings the bisect acceptance tests diff.
//
// Usage:
//   hcs_capture --scenario NAME [--seed N] [--out FILE] [--expect FILE]
//               [--shards K] [--perturb SPEC] [--replay-rank R]
//     --scenario NAME   capture scenario to run (--list prints the registry)
//     --seed N          World seed (default 1)
//     --out FILE        write the recording here
//     --expect FILE     write one describe_outcome() line per rank (hexfloat;
//                       bit-exact round-trip) for incident sidecars
//     --shards K        event-loop shards (recordings are shard-invariant)
//     --perturb SPEC    add one extra fault spec (e.g. a straggler nudge) on
//                       top of the scenario's plan before recording
//     --replay-rank R   after recording, replay rank R against the in-memory
//                       recording and verify its outcome matches (self-check)
//     --list            print the scenario registry and exit
//
// Exit codes: 0 success, 1 self-check divergence, 2 usage or I/O error.
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "replay/feed.hpp"
#include "replay/format.hpp"
#include "replay/harness.hpp"
#include "replay/record.hpp"
#include "replay/scenario.hpp"
#include "simmpi/world.hpp"
#include "util/cli.hpp"

namespace {

int list_scenarios() {
  for (const std::string& name : hcs::replay::scenario_names()) {
    std::cout << name << "\n    " << hcs::replay::find_scenario(name).description << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hcs;
  try {
    const util::Cli cli(argc, argv, {"list", "help"});
    cli.reject_unknown({"scenario", "seed", "out", "expect", "shards", "perturb", "replay-rank",
                        "list", "help"});
    if (cli.has("help")) {
      std::cout << "usage: hcs_capture --scenario NAME [--seed N] [--out FILE] [--expect FILE]\n"
                   "                   [--shards K] [--perturb SPEC] [--replay-rank R] [--list]\n";
      return 0;
    }
    if (cli.has("list")) return list_scenarios();

    const std::string name = cli.get("scenario", "");
    if (name.empty()) {
      std::cerr << "hcs_capture: --scenario is required (--list prints the registry)\n";
      return 2;
    }
    replay::Scenario scenario = replay::find_scenario(name);
    for (const std::string& spec : cli.get_all("perturb")) scenario.faults.add(spec);

    const int shards = cli.shards(1);
    if (shards < 1) {
      throw std::invalid_argument("--shards must be >= 1 for hcs_capture (got " +
                                  std::to_string(shards) + ")");
    }
    simmpi::set_default_shards(shards);
    const std::uint64_t seed = cli.seed(1);

    replay::Recorder recorder;
    std::vector<replay::RankOutcome> outcomes;
    {
      const replay::ScopedRecorder install(&recorder);
      outcomes = replay::run_scenario(scenario, seed);
    }
    if (recorder.world_count() != 1) {
      throw std::runtime_error("expected exactly one recorded World, got " +
                               std::to_string(recorder.world_count()));
    }
    const replay::RecordedWorld& world = recorder.world(0);
    std::cout << "captured scenario " << name << " seed " << seed << ": " << world.info.nranks
              << " ranks, " << world.total_events() << " events\n";

    const std::string out = cli.get("out", "");
    if (!out.empty()) {
      if (!replay::save(out, recorder)) {
        std::cerr << "hcs_capture: cannot write " << out << "\n";
        return 2;
      }
      std::cout << "wrote recording: " << out << "\n";
    }
    const std::string expect = cli.get("expect", "");
    if (!expect.empty()) {
      std::ofstream sidecar(expect);
      if (!sidecar) {
        std::cerr << "hcs_capture: cannot write " << expect << "\n";
        return 2;
      }
      for (const replay::RankOutcome& o : outcomes) {
        sidecar << replay::describe_outcome(o) << "\n";
      }
      std::cout << "wrote outcome sidecar: " << expect << "\n";
    }
    if (cli.has("replay-rank")) {
      const int rank = static_cast<int>(cli.get_int("replay-rank", 0));
      const replay::RankOutcome replayed = replay::replay_scenario_rank(scenario, world, rank);
      const std::string recorded_line =
          replay::describe_outcome(outcomes[static_cast<std::size_t>(rank)]);
      const std::string replayed_line = replay::describe_outcome(replayed);
      if (recorded_line != replayed_line) {
        std::cerr << "self-check FAILED for rank " << rank << "\n  recorded: " << recorded_line
                  << "\n  replayed: " << replayed_line << "\n";
        return 1;
      }
      std::cout << "self-check: rank " << rank << " replays bit-exactly\n";
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "hcs_capture: " << e.what() << "\n";
    return 2;
  }
}
