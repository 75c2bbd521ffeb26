// Divergence bisection: unit tests on hand-built recordings plus the
// acceptance case from the issue — two scenario recordings differing by one
// injected transit-time perturbation must pinpoint the first diverging
// event with rank and sim-time.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "replay/bisect.hpp"
#include "replay/harness.hpp"
#include "replay/record.hpp"
#include "replay/scenario.hpp"

namespace hcs::replay {
namespace {

Event make_event(EventKind kind, double time, int peer = 1) {
  Event ev;
  ev.kind = kind;
  ev.peer = peer;
  ev.time = time;
  return ev;
}

Recording two_rank_recording() {
  Recording rec;
  WorldInfo info;
  info.seed = 5;
  info.nranks = 2;
  info.machine = "testbox(2x1)";
  rec.worlds.emplace_back(std::move(info));
  rec.worlds[0].append(0, make_event(EventKind::kSend, 1.0));
  rec.worlds[0].append(0, make_event(EventKind::kRecv, 5.0));
  rec.worlds[0].append(1, make_event(EventKind::kRecv, 2.0, 0));
  rec.worlds[0].append(1, make_event(EventKind::kSend, 4.0, 0));
  return rec;
}

TEST(Bisect, IdenticalRecordingsHaveNoDivergence) {
  const Recording a = two_rank_recording();
  const Recording b = two_rank_recording();
  EXPECT_FALSE(first_divergence(a, b).has_value());
}

TEST(Bisect, ReportsDifferingField) {
  const Recording a = two_rank_recording();
  Recording b = two_rank_recording();
  b.worlds[0].ranks[0][1].time = 5.5;
  const auto d = first_divergence(a, b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->world, 0u);
  EXPECT_EQ(d->rank, 0);
  EXPECT_EQ(d->index, 1u);
  EXPECT_DOUBLE_EQ(d->time, 5.0);  // the earlier side's time
  EXPECT_EQ(d->field, "time");
}

TEST(Bisect, PicksEarliestSimTimeAcrossRanks) {
  const Recording a = two_rank_recording();
  Recording b = two_rank_recording();
  b.worlds[0].ranks[0][1].tag = 99;  // diverges at t=5.0
  b.worlds[0].ranks[1][1].tag = 99;  // diverges at t=4.0 — must win
  const auto d = first_divergence(a, b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->rank, 1);
  EXPECT_DOUBLE_EQ(d->time, 4.0);
  EXPECT_EQ(d->field, "tag");
}

TEST(Bisect, ReportsMissingTailEvents) {
  const Recording a = two_rank_recording();
  Recording b = two_rank_recording();
  b.worlds[0].ranks[1].pop_back();
  const auto d = first_divergence(a, b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->rank, 1);
  EXPECT_EQ(d->index, 1u);
  EXPECT_EQ(d->field, "count");
  EXPECT_NE(d->detail.find("<absent>"), std::string::npos);
}

TEST(Bisect, HeaderDifferenceReportedOnlyWhenStreamsMatch) {
  const Recording a = two_rank_recording();
  Recording b = two_rank_recording();
  b.worlds[0].info.fault_plan = "straggler:rank=1,factor=1.05";
  const auto header_only = first_divergence(a, b);
  ASSERT_TRUE(header_only.has_value());
  EXPECT_EQ(header_only->rank, -1) << "structural difference";

  // Once any event differs too, the event wins: a perturbation experiment
  // is pinpointed by its first observable effect, not its cause's header.
  b.worlds[0].ranks[1][0].time = 2.5;
  const auto event_diff = first_divergence(a, b);
  ASSERT_TRUE(event_diff.has_value());
  EXPECT_EQ(event_diff->rank, 1);
  EXPECT_EQ(event_diff->field, "time");
}

TEST(Bisect, WorldCountMismatch) {
  const Recording a = two_rank_recording();
  Recording b = two_rank_recording();
  WorldInfo extra;
  extra.nranks = 1;
  b.worlds.emplace_back(std::move(extra));
  const auto d = first_divergence(a, b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->rank, -1);
}

// A split outcome prints its caller's index and the first members; two
// outcomes that differ only in their members are reported as such.
TEST(Bisect, DescribesSplitOutcomes) {
  const std::vector<int> members = {4, 0, 12, 8, 1, 2, 3, 5, 6};
  const Event ev = encode_split(
      {std::make_shared<const std::vector<int>>(members), 1}, /*color=*/2, /*time=*/0.25);
  const std::string text = describe_event(ev);
  EXPECT_NE(text.find("split peer=-1 tag=2 index=1 members=[4,0,12,8,1,2,3,5,...]"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("values=9"), std::string::npos) << text;

  Recording a = two_rank_recording();
  a.worlds[0].append(1, ev);
  Recording b = two_rank_recording();
  std::vector<int> swapped = members;
  std::swap(swapped[0], swapped[1]);
  b.worlds[0].append(1, encode_split({std::make_shared<const std::vector<int>>(swapped), 1},
                                     /*color=*/2, /*time=*/0.25));
  const auto d = first_divergence(a, b);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->rank, 1);
  EXPECT_EQ(d->index, 2u);
  EXPECT_EQ(d->field, "split-members");
}

// The acceptance case (ISSUE 8): record the same scenario twice, the second
// time with a single injected transit-time nudge (a straggler factor on one
// rank), and demonstrate the bisection pinpoints the first diverging event
// with a rank and a sim-time.
TEST(Bisect, PinpointsInjectedPerturbation) {
  const std::uint64_t seed = 11;
  Recorder clean_recorder;
  {
    const ScopedRecorder install(&clean_recorder);
    run_scenario(find_scenario("micro4"), seed);
  }
  Scenario perturbed = find_scenario("micro4");
  perturbed.faults.add("straggler:rank=1,factor=1.05");
  Recorder perturbed_recorder;
  {
    const ScopedRecorder install(&perturbed_recorder);
    run_scenario(perturbed, seed);
  }
  const Recording a = parse(serialize(clean_recorder));
  const Recording b = parse(serialize(perturbed_recorder));
  const auto d = first_divergence(a, b);
  ASSERT_TRUE(d.has_value());
  EXPECT_GE(d->rank, 0) << "must name a rank, not a structural difference";
  EXPECT_GT(d->time, 0.0) << "must name the sim-time of the first divergence";
  EXPECT_FALSE(d->field.empty());
  EXPECT_FALSE(d->detail.empty());
  // The straggler slows rank 1's links, so the first observable difference
  // involves rank 1 on one side of the exchange.
  const Event& first = a.worlds[d->world].ranks[static_cast<std::size_t>(d->rank)][d->index];
  EXPECT_TRUE(d->rank == 1 || first.peer == 1)
      << "rank " << d->rank << " peer " << first.peer;
}

}  // namespace
}  // namespace hcs::replay
