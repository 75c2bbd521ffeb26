#include "replay/record.hpp"

#include <cstdio>
#include <cstring>
#include <memory>

namespace hcs::replay {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kSend: return "send";
    case EventKind::kRecv: return "recv";
    case EventKind::kRecvTimeout: return "recv-timeout";
    case EventKind::kBurst: return "burst";
    case EventKind::kClockRead: return "clock-read";
    case EventKind::kMembership: return "membership";
    case EventKind::kSplit: return "split";
  }
  return "?";
}

std::uint64_t payload_digest(const std::vector<double>& values) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const double v : values) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (bits >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;  // FNV prime
    }
  }
  return h;
}

Event encode_send(int dst, std::int64_t tag, std::int64_t bytes, double time,
                  const std::vector<double>& data) {
  return {.kind = EventKind::kSend, .peer = dst, .tag = tag, .bytes = bytes, .time = time,
          .digest = payload_digest(data)};
}

Event encode_recv(const simmpi::Message& msg, double time) {
  return {.kind = EventKind::kRecv, .peer = msg.src, .tag = msg.tag, .bytes = msg.bytes,
          .time = time, .aux0 = msg.sent_at, .aux1 = msg.arrived_at,
          .digest = payload_digest(msg.data), .values = msg.data};
}

simmpi::Message decode_recv(const Event& ev) {
  return {.src = ev.peer, .tag = ev.tag, .data = ev.values, .bytes = ev.bytes,
          .sent_at = ev.aux0, .arrived_at = ev.aux1};
}

Event encode_recv_timeout(int src, std::int64_t tag, double time) {
  return {.kind = EventKind::kRecvTimeout, .peer = src, .tag = tag, .time = time};
}

// values: requested, lost, retries, nsamples, then one (client_send,
// ref_reply, client_recv) triple per sample.
Event encode_burst(const simmpi::BurstResult& result, int partner, bool client, double time) {
  Event ev{.kind = EventKind::kBurst, .flags = static_cast<std::uint8_t>(client), .peer = partner,
           .time = time};
  ev.values.reserve(4 + 3 * result.samples.size());
  ev.values.push_back(static_cast<double>(result.requested));
  ev.values.push_back(static_cast<double>(result.lost));
  ev.values.push_back(static_cast<double>(result.retries));
  ev.values.push_back(static_cast<double>(result.samples.size()));
  for (const simmpi::PingSample& s : result.samples) {
    ev.values.push_back(s.client_send);
    ev.values.push_back(s.ref_reply);
    ev.values.push_back(s.client_recv);
  }
  ev.digest = payload_digest(ev.values);
  return ev;
}

simmpi::BurstResult decode_burst(const Event& ev) {
  const std::vector<double>& values = ev.values;
  simmpi::BurstResult result;
  if (values.size() < 4) return result;
  result.requested = static_cast<int>(values[0]);
  result.lost = static_cast<int>(values[1]);
  result.retries = static_cast<int>(values[2]);
  const auto nsamples = static_cast<std::size_t>(values[3]);
  result.samples.reserve(nsamples);
  for (std::size_t i = 0; i < nsamples && 4 + 3 * i + 2 < values.size(); ++i) {
    simmpi::PingSample s;
    s.client_send = values[4 + 3 * i];
    s.ref_reply = values[4 + 3 * i + 1];
    s.client_recv = values[4 + 3 * i + 2];
    result.samples.push_back(s);
  }
  return result;
}

Event encode_clock_read(double value, double time) {
  Event ev{.kind = EventKind::kClockRead, .time = time, .values = {value}};
  ev.digest = payload_digest(ev.values);
  return ev;
}

double decode_clock_read(const Event& ev) { return ev.values.empty() ? 0.0 : ev.values[0]; }

// flags 1 = up (a restart), 0 = down; aux0 = the incarnation index.  No
// digest: membership markers carry no payload.
Event encode_membership(bool up, int incarnation, double time) {
  return {.kind = EventKind::kMembership, .flags = static_cast<std::uint8_t>(up), .time = time,
          .aux0 = static_cast<double>(incarnation)};
}

bool is_departure(const Event& ev) { return ev.kind == EventKind::kMembership && ev.flags == 0; }

// tag = color, aux0 = the caller's new index, values = the members' world
// ranks.  A loaded recording's members are distinct in-range ranks and its
// index lies in [-1, n): parse() rejects anything else.
Event encode_split(const simmpi::SplitResult& result, int color, double time) {
  Event ev{.kind = EventKind::kSplit, .tag = color, .time = time,
           .aux0 = static_cast<double>(result.index)};
  if (result.members) ev.values.assign(result.members->begin(), result.members->end());
  ev.digest = payload_digest(ev.values);
  return ev;
}

simmpi::SplitResult decode_split(const Event& ev) {
  simmpi::SplitResult result{.members = nullptr, .index = static_cast<int>(ev.aux0)};
  if (result.index < 0) return result;
  auto members = std::make_shared<std::vector<int>>();
  members->reserve(ev.values.size());
  for (const double v : ev.values) members->push_back(static_cast<int>(v));
  result.members = std::move(members);
  return result;
}

std::string format_time(double t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", t);
  return buf;
}

RecordedWorld& Recorder::begin_world(WorldInfo info) {
  if (info.label.empty() && !pending_label_.empty()) info.label = pending_label_;
  pending_label_.clear();
  worlds_.push_back(std::make_unique<RecordedWorld>(std::move(info)));
  return *worlds_.back();
}

void Recorder::absorb(Recorder& other) {
  for (auto& world : other.worlds_) worlds_.push_back(std::move(world));
  other.worlds_.clear();
}

namespace {
thread_local Recorder* t_recorder = nullptr;
}  // namespace

Recorder* active_recorder() noexcept { return t_recorder; }

void install_recorder(Recorder* recorder) noexcept { t_recorder = recorder; }

ScopedRecorder::ScopedRecorder(Recorder* recorder) : previous_(t_recorder) {
  t_recorder = recorder;
}

ScopedRecorder::~ScopedRecorder() { t_recorder = previous_; }

}  // namespace hcs::replay
