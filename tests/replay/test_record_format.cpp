// Record model + versioned binary format: digest stability, burst payload
// encoding, serialize/parse round-trips, and corruption rejection
// (docs/record-replay.md has the byte-level spec).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "replay/format.hpp"
#include "replay/record.hpp"

namespace hcs::replay {
namespace {

Event make_event(EventKind kind, double time, std::vector<double> values = {}) {
  Event ev;
  ev.kind = kind;
  ev.peer = 3;
  ev.tag = 17;
  ev.bytes = static_cast<std::int64_t>(values.size() * sizeof(double));
  ev.time = time;
  ev.digest = payload_digest(values);
  ev.values = std::move(values);
  return ev;
}

Recorder make_recorder() {
  Recorder recorder;
  WorldInfo info;
  info.seed = 42;
  info.nranks = 2;
  info.fault_seed = 9;
  info.machine = "testbox(2x1)";
  info.fault_plan = "crash:rank=1,at=0.002";
  info.label = "unit";
  RecordedWorld& world = recorder.begin_world(std::move(info));
  world.append(0, make_event(EventKind::kSend, 0.25, {1.0, 2.0}));
  world.append(0, make_event(EventKind::kRecv, 0.5, {3.0, -0.0}));
  world.append(1, make_event(EventKind::kRecvTimeout, 0.75));
  world.append(1, make_event(EventKind::kClockRead, 1.0, {1.0000003}));
  WorldInfo second;
  second.seed = 43;
  second.nranks = 1;
  second.machine = "testbox(1x1)";
  recorder.begin_world(std::move(second));
  return recorder;
}

TEST(PayloadDigest, StableAndBitSensitive) {
  EXPECT_EQ(payload_digest({}), 0xcbf29ce484222325ULL);  // FNV-1a offset basis
  const std::uint64_t d = payload_digest({1.0, 2.0});
  EXPECT_EQ(payload_digest({1.0, 2.0}), d);
  EXPECT_NE(payload_digest({2.0, 1.0}), d);
  EXPECT_NE(payload_digest({0.0}), payload_digest({-0.0}))
      << "bit-exactness oracle must distinguish signed zeros";
}

TEST(BurstCodec, RoundTrips) {
  simmpi::BurstResult burst;
  burst.requested = 10;
  burst.lost = 2;
  burst.retries = 3;
  burst.samples.push_back({0.001, 0.0015, 0.002});
  burst.samples.push_back({0.003, 0.0035, 0.004});
  const Event encoded = encode_burst(burst, /*partner=*/3, /*client=*/true, /*time=*/0.5);
  EXPECT_EQ(encoded.kind, EventKind::kBurst);
  EXPECT_EQ(encoded.peer, 3);
  EXPECT_EQ(encoded.flags, 1);
  EXPECT_EQ(encoded.digest, payload_digest(encoded.values));
  const simmpi::BurstResult decoded = decode_burst(encoded);
  EXPECT_EQ(decoded.requested, burst.requested);
  EXPECT_EQ(decoded.lost, burst.lost);
  EXPECT_EQ(decoded.retries, burst.retries);
  ASSERT_EQ(decoded.samples.size(), burst.samples.size());
  for (std::size_t i = 0; i < burst.samples.size(); ++i) {
    EXPECT_EQ(decoded.samples[i].client_send, burst.samples[i].client_send);
    EXPECT_EQ(decoded.samples[i].ref_reply, burst.samples[i].ref_reply);
    EXPECT_EQ(decoded.samples[i].client_recv, burst.samples[i].client_recv);
  }
}

TEST(Format, SerializeParseRoundTrip) {
  const Recorder recorder = make_recorder();
  const std::string bytes = serialize(recorder);
  const Recording parsed = parse(bytes);
  ASSERT_EQ(parsed.worlds.size(), 2u);
  EXPECT_EQ(parsed.worlds[0].info, recorder.world(0).info);
  EXPECT_EQ(parsed.worlds[1].info, recorder.world(1).info);
  ASSERT_EQ(parsed.worlds[0].ranks.size(), 2u);
  EXPECT_EQ(parsed.worlds[0].ranks[0], recorder.world(0).ranks[0]);
  EXPECT_EQ(parsed.worlds[0].ranks[1], recorder.world(0).ranks[1]);
  EXPECT_EQ(parsed.worlds[0].total_events(), 4u);
}

TEST(Format, SerializationIsDeterministic) {
  const std::string a = serialize(make_recorder());
  const std::string b = serialize(make_recorder());
  EXPECT_EQ(a, b);
}

TEST(Format, RejectsBadMagic) {
  std::string bytes = serialize(make_recorder());
  bytes[0] = 'X';
  EXPECT_THROW(parse(bytes), std::runtime_error);
}

TEST(Format, RejectsUnknownVersion) {
  std::string bytes = serialize(make_recorder());
  bytes[4] = 99;  // the u32 version field follows the 4-byte magic
  EXPECT_THROW(parse(bytes), std::runtime_error);
}

TEST(Format, RejectsTruncation) {
  const std::string bytes = serialize(make_recorder());
  for (const std::size_t cut : {std::size_t{3}, std::size_t{9}, bytes.size() / 2}) {
    EXPECT_THROW(parse(bytes.substr(0, cut)), std::runtime_error) << "cut at " << cut;
  }
}

TEST(Format, RejectsTrailingGarbage) {
  std::string bytes = serialize(make_recorder());
  bytes += '\0';
  EXPECT_THROW(parse(bytes), std::runtime_error);
}

// Little-endian field builders for hand-made (hostile) recordings.
void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xffU));
}
void append_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xffU));
}
std::string header(std::uint32_t nworlds) {
  std::string out = "HCSR";
  append_u32(out, kFormatVersion);
  append_u32(out, nworlds);
  return out;
}

// Expects parse() to throw a runtime_error whose message names `field`.
void expect_rejected_naming(const std::string& bytes, const std::string& field) {
  try {
    parse(bytes);
    ADD_FAILURE() << "parse accepted a hostile recording";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
  }
}

// 12 bytes claiming 2^32 - 1 worlds: rejected before reserving room for them.
TEST(Format, RejectsWorldCountBeyondRemainingBytes) {
  const std::string bytes = header(0xffffffffU);
  ASSERT_EQ(bytes.size(), 12u);
  expect_rejected_naming(bytes, "world count");
}

// One world claiming 2^24 ranks in 52 bytes (header + event-count trailer):
// rejected before one vector per rank exists.
TEST(Format, RejectsRankCountBeyondRemainingBytes) {
  std::string bytes = header(1);
  append_u64(bytes, 42);        // seed
  append_u32(bytes, 1U << 24);  // nranks
  append_u64(bytes, 9);         // fault_seed
  for (int s = 0; s < 3; ++s) append_u32(bytes, 0);  // machine, fault plan, label
  ASSERT_EQ(bytes.size(), 44u);
  EXPECT_THROW(parse(bytes), std::runtime_error);
  append_u64(bytes, 0);  // trailer
  expect_rejected_naming(bytes, "rank count");
  // The same header with enough bytes for every rank's count parses.
  std::string small = header(1);
  append_u64(small, 42);
  append_u32(small, 2);
  append_u64(small, 9);
  for (int s = 0; s < 3; ++s) append_u32(small, 0);
  for (int part = 0; part < 3; ++part) append_u64(small, 0);  // two ranks + trailer
  EXPECT_EQ(parse(small).worlds.at(0).ranks.size(), 2u);
}

TEST(SplitCodec, RoundTrips) {
  const simmpi::SplitResult split{std::make_shared<const std::vector<int>>(
                                      std::vector<int>{4, 0, 12}),
                                  1};
  const Event encoded = encode_split(split, /*color=*/2, /*time=*/0.25);
  EXPECT_EQ(encoded.kind, EventKind::kSplit);
  EXPECT_EQ(encoded.tag, 2);
  EXPECT_EQ(encoded.aux0, 1.0);
  EXPECT_EQ(encoded.digest, payload_digest(encoded.values));
  const simmpi::SplitResult decoded = decode_split(encoded);
  ASSERT_NE(decoded.members, nullptr);
  EXPECT_EQ(*decoded.members, *split.members);
  EXPECT_EQ(decoded.index, 1);
  const simmpi::SplitResult undefined =
      decode_split(encode_split({}, /*color=*/-1, /*time=*/0.5));
  EXPECT_EQ(undefined.members, nullptr);
  EXPECT_EQ(undefined.index, -1);
}

// A one-world, four-rank recording whose rank 0 logged one split outcome.
std::string split_recording(double index, std::vector<double> members) {
  Recorder recorder;
  WorldInfo info;
  info.nranks = 4;
  RecordedWorld& world = recorder.begin_world(std::move(info));
  Event ev{.kind = EventKind::kSplit, .time = 0.5, .aux0 = index};
  ev.digest = payload_digest(members);
  ev.values = std::move(members);
  world.append(0, std::move(ev));
  return serialize(recorder);
}

TEST(Format, SplitEventsParse) {
  EXPECT_EQ(parse(split_recording(2, {3, 0, 1})).worlds.at(0).ranks.at(0).at(0).aux0, 2.0);
  EXPECT_NO_THROW(parse(split_recording(-1, {})));
  EXPECT_NO_THROW(parse(split_recording(-1, {2, 1})));
}

// kSplit is kind 7, which v1 and v2 files do not define.
TEST(Format, RejectsSplitEventInOlderVersions) {
  for (const char version : {1, 2}) {
    std::string bytes = split_recording(0, {1});
    bytes[4] = version;
    expect_rejected_naming(bytes, "bad event kind 7");
  }
}

TEST(Format, RejectsSplitIndexOutsideItsMembers) {
  expect_rejected_naming(split_recording(3, {0, 1, 2}), "index");
  expect_rejected_naming(split_recording(-2, {0, 1, 2}), "index");
  expect_rejected_naming(split_recording(0, {}), "index");
  expect_rejected_naming(split_recording(0.5, {0, 1}), "index");
  expect_rejected_naming(split_recording(std::nan(""), {0, 1}), "index");
}

TEST(Format, RejectsSplitMemberThatIsNotAWorldRank) {
  expect_rejected_naming(split_recording(0, {0, 1.5}), "member");
  expect_rejected_naming(split_recording(0, {0, 4}), "member");
  expect_rejected_naming(split_recording(0, {-1, 0}), "member");
  expect_rejected_naming(split_recording(0, {0, std::nan("")}), "member");
  expect_rejected_naming(split_recording(1, {2, 0, 2}), "member 2 duplicated");
}

TEST(Recorder, AbsorbMovesWorldsInOrder) {
  Recorder a;
  WorldInfo first;
  first.seed = 1;
  first.nranks = 1;
  a.begin_world(std::move(first));
  Recorder b;
  WorldInfo second;
  second.seed = 2;
  second.nranks = 1;
  b.begin_world(std::move(second));
  a.absorb(b);
  ASSERT_EQ(a.world_count(), 2u);
  EXPECT_EQ(a.world(0).info.seed, 1u);
  EXPECT_EQ(a.world(1).info.seed, 2u);
  EXPECT_EQ(b.world_count(), 0u);
}

TEST(Recorder, PendingLabelStampsNextWorld) {
  Recorder recorder;
  recorder.set_pending_label("scenario-name");
  WorldInfo info;
  info.nranks = 1;
  EXPECT_EQ(recorder.begin_world(std::move(info)).info.label, "scenario-name");
  WorldInfo next;
  next.nranks = 1;
  EXPECT_EQ(recorder.begin_world(std::move(next)).info.label, "");
}

}  // namespace
}  // namespace hcs::replay
