// Recorder invariance: the property that makes a recording a trustworthy
// divergence oracle.  Recording the same scenario must produce byte-identical
// files across --shards 1/2/8 and --jobs 1/4 — on a
// ring World and a hierarchical Titan slice, clean and under a crash plan.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "replay/format.hpp"
#include "replay/harness.hpp"
#include "replay/record.hpp"
#include "replay/scenario.hpp"
#include "runner/trial_runner.hpp"
#include "simmpi/world.hpp"

namespace hcs::replay {
namespace {

// Restores the process-wide shard default (tests in this binary share it)
// after each recording pass.
class ShardDefault {
 public:
  explicit ShardDefault(int shards) : prev_shards_(simmpi::default_shards()) {
    simmpi::set_default_shards(shards);
  }
  ~ShardDefault() { simmpi::set_default_shards(prev_shards_); }
  ShardDefault(const ShardDefault&) = delete;
  ShardDefault& operator=(const ShardDefault&) = delete;

 private:
  int prev_shards_;
};

std::string record_bytes(const std::string& scenario, std::uint64_t seed, int shards) {
  const ShardDefault defaults(shards);
  Recorder recorder;
  {
    const ScopedRecorder install(&recorder);
    run_scenario(find_scenario(scenario), seed);
  }
  return serialize(recorder);
}

void expect_invariant(const std::string& scenario, std::uint64_t seed,
                      const std::vector<int>& sharded_counts) {
  const std::string reference = record_bytes(scenario, seed, 1);
  ASSERT_FALSE(reference.empty());
  for (const int shards : sharded_counts) {
    EXPECT_EQ(record_bytes(scenario, seed, shards), reference)
        << scenario << " seed " << seed << " shards " << shards;
  }
}

TEST(RecorderInvariance, Ring8CleanAcrossShards) {
  expect_invariant("ring8", 3, {2, 8});
}

TEST(RecorderInvariance, Ring8CrashAcrossShards) {
  expect_invariant("ring8-crash", 3, {2, 8});
}

TEST(RecorderInvariance, TitanSmallCleanAcrossShards) {
  expect_invariant("titan-small", 5, {2});
}

TEST(RecorderInvariance, TitanSmallCrashAcrossShards) {
  expect_invariant("titan-small-crash", 5, {2});
}

// --jobs invariance goes through runner::TrialRunner: each concurrent trial
// records into a private per-thread Recorder, absorbed in trial-index order
// — so a 4-worker sweep must serialize byte-identically to a sequential one.
std::string record_sweep_bytes(int jobs) {
  Recorder recorder;
  const ScopedRecorder install(&recorder);
  runner::TrialRunner pool(jobs);
  pool.map(4, /*base_seed=*/21, [](const runner::Trial& trial) {
    run_scenario(find_scenario("micro4"), trial.seed);
    return 0.0;
  });
  return serialize(recorder);
}

TEST(RecorderInvariance, JobsInvariantThroughTrialRunner) {
  const std::string sequential = record_sweep_bytes(1);
  const std::string parallel = record_sweep_bytes(4);
  EXPECT_EQ(sequential, parallel);
  const Recording parsed = parse(sequential);
  ASSERT_EQ(parsed.worlds.size(), 4u);
  for (std::size_t i = 0; i < parsed.worlds.size(); ++i) {
    EXPECT_EQ(parsed.worlds[i].info.seed, 21u + i) << "trial order preserved";
    EXPECT_EQ(parsed.worlds[i].info.label, "micro4");
  }
}

}  // namespace
}  // namespace hcs::replay
