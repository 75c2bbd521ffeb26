// Recorded-incident regression suite: replay single ranks of the committed
// recordings under tests/replay/incidents/ and assert the outcomes in the
// hexfloat sidecars reproduce bit-exactly (see incidents/README.md for the
// library and how to regenerate it).
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <string>
#include <vector>

#include "replay/bisect.hpp"
#include "replay/format.hpp"
#include "replay/harness.hpp"
#include "replay/record.hpp"
#include "replay/scenario.hpp"

namespace hcs::replay {
namespace {

struct Incident {
  const char* file;       // basename under tests/replay/incidents/
  const char* scenario;   // registered scenario name
  std::uint64_t seed;     // seed the incident was captured with
  std::uint32_t version;  // .hcsr format version it was committed in
};

constexpr Incident kIncidents[] = {
    {"micro4-crash-seed42", "micro4-crash", 42, 1},
    {"micro4-drop-seed7", "micro4-drop", 7, 1},
    {"micro4-step-seed13", "micro4-step", 13, 1},
    {"micro4-churn-seed42", "micro4-churn", 42, 2},
    {"micro16-h2hca-seed42", "micro16-h2hca", 42, 3},
    {"micro16-crash-seed42", "micro16-crash", 42, 3},
};

std::string incident_path(const std::string& base, const char* ext) {
  return std::string(HCS_REPLAY_INCIDENT_DIR) + "/" + base + ext;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

class IncidentSuite : public ::testing::TestWithParam<Incident> {};

TEST_P(IncidentSuite, EveryRankReplaysBitExactly) {
  const Incident& incident = GetParam();
  const Recording recording = load(incident_path(incident.file, ".hcsr"));
  ASSERT_EQ(recording.worlds.size(), 1u);
  const RecordedWorld& world = recording.worlds[0];
  EXPECT_EQ(world.info.seed, incident.seed);
  EXPECT_EQ(world.info.label, incident.scenario);

  const std::vector<std::string> expected = read_lines(incident_path(incident.file, ".expect"));
  ASSERT_EQ(expected.size(), static_cast<std::size_t>(world.info.nranks));

  const Scenario& scenario = find_scenario(incident.scenario);
  for (int rank = 0; rank < world.info.nranks; ++rank) {
    const RankOutcome replayed = replay_scenario_rank(scenario, world, rank);
    EXPECT_EQ(describe_outcome(replayed), expected[static_cast<std::size_t>(rank)])
        << incident.file << " rank " << rank;
  }
}

// Format back-compat: the micro4 crash/drop/step incidents were committed as
// v1 recordings and must keep parsing (and, per EveryRankReplaysBitExactly,
// replaying bit-exactly) under the current reader; the churn incident needs
// v2 for its kMembership events, the H2HCA incident v3 for its kSplit ones;
// the micro16 crash incident was recorded as v3.
TEST_P(IncidentSuite, HeaderVersionIsSupportedAndAsCommitted) {
  const Incident& incident = GetParam();
  std::ifstream in(incident_path(incident.file, ".hcsr"), std::ios::binary);
  ASSERT_TRUE(in.good());
  char header[8] = {};
  in.read(header, sizeof(header));
  ASSERT_EQ(in.gcount(), 8);
  EXPECT_EQ(std::string(header, 4), "HCSR");
  std::uint32_t version = 0;
  for (int i = 0; i < 4; ++i) {
    version |= static_cast<std::uint32_t>(static_cast<unsigned char>(header[4 + i])) << (8 * i);
  }
  EXPECT_GE(version, kMinFormatVersion);
  EXPECT_LE(version, kFormatVersion);
  EXPECT_EQ(version, incident.version) << incident.file;
}

TEST_P(IncidentSuite, SidecarRoundTripsThroughParseOutcome) {
  const Incident& incident = GetParam();
  for (const std::string& line : read_lines(incident_path(incident.file, ".expect"))) {
    EXPECT_EQ(describe_outcome(parse_outcome(line)), line);
  }
}

// Re-running the whole scenario from scratch must still produce the
// committed outcomes — the recording pins the event order, this pins the
// simulator itself.
TEST_P(IncidentSuite, FreshRunStillMatchesSidecar) {
  const Incident& incident = GetParam();
  const std::vector<std::string> expected = read_lines(incident_path(incident.file, ".expect"));
  const std::vector<RankOutcome> outcomes =
      run_scenario(find_scenario(incident.scenario), incident.seed);
  ASSERT_EQ(outcomes.size(), expected.size());
  for (std::size_t rank = 0; rank < outcomes.size(); ++rank) {
    EXPECT_EQ(describe_outcome(outcomes[rank]), expected[rank])
        << incident.file << " rank " << rank;
  }
}

// Re-recording the scenario from scratch must reproduce the committed event
// streams exactly — pins the record side (every field of every event) across
// commits, where FreshRunStillMatchesSidecar pins only the outcomes.
// Compared in memory: the v1 and v2 incidents differ from a fresh v3 file
// only in the header's version field.
TEST_P(IncidentSuite, FreshRecordingMatchesCommitted) {
  const Incident& incident = GetParam();
  const Recording committed = load(incident_path(incident.file, ".hcsr"));
  ASSERT_EQ(committed.worlds.size(), 1u);
  Recorder recorder;
  {
    const ScopedRecorder install(&recorder);
    run_scenario(find_scenario(incident.scenario), incident.seed);
  }
  ASSERT_EQ(recorder.world_count(), 1u);
  const RecordedWorld& fresh = recorder.world(0);
  const RecordedWorld& expected = committed.worlds[0];
  EXPECT_EQ(fresh.info, expected.info);
  ASSERT_EQ(fresh.ranks.size(), expected.ranks.size());
  for (std::size_t rank = 0; rank < fresh.ranks.size(); ++rank) {
    const std::vector<Event>& got = fresh.ranks[rank];
    const std::vector<Event>& want = expected.ranks[rank];
    EXPECT_EQ(got.size(), want.size()) << incident.file << " rank " << rank;
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      ASSERT_EQ(got[i], want[i]) << incident.file << " rank " << rank << " event " << i
                                 << "\n  fresh:     " << describe_event(got[i])
                                 << "\n  committed: " << describe_event(want[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Incidents, IncidentSuite, ::testing::ValuesIn(kIncidents),
                         [](const ::testing::TestParamInfo<Incident>& info) {
                           std::string name = info.param.scenario;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace hcs::replay
