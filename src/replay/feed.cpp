#include "replay/feed.hpp"

#include <stdexcept>

#include "replay/bisect.hpp"

namespace hcs::replay {

ReplayFeed::ReplayFeed(const RecordedWorld& world, int rank)
    : events_(nullptr), rank_(rank) {
  if (rank < 0 || rank >= world.info.nranks) {
    throw std::out_of_range("ReplayFeed: rank " + std::to_string(rank) +
                            " not in recorded world of " + std::to_string(world.info.nranks) +
                            " ranks");
  }
  events_ = &world.ranks[static_cast<std::size_t>(rank)];
}

namespace {

std::string describe(const Expected& want) {
  std::string out = std::string("replayed ") + to_string(want.kind) +
                    (want.or_timeout ? " (or timeout)" : "") + " peer=" +
                    std::to_string(want.peer) + " tag=" + std::to_string(want.tag);
  if (want.kind == EventKind::kSend) out += " bytes=" + std::to_string(want.bytes);
  if (want.kind == EventKind::kBurst) out += want.role ? " role=client" : " role=reference";
  if (want.kind == EventKind::kMembership) out += want.role ? " up" : " down";
  if (want.at) out += " time=" + format_time(*want.at);
  return out;
}

}  // namespace

const Event& ReplayFeed::expect(const Expected& want) {
  const Event* ev = peek();
  if (ev == nullptr) diverge("recorded event log exhausted at " + describe(want));
  const bool kind_ok =
      ev->kind == want.kind || (want.or_timeout && ev->kind == EventKind::kRecvTimeout);
  if (!kind_ok || ev->peer != want.peer || ev->tag != want.tag ||
      ev->flags != static_cast<std::uint8_t>(want.role) ||
      (want.kind == EventKind::kSend && ev->bytes != want.bytes)) {
    diverge(describe(want) + " does not match recorded " + describe_event(*ev));
  }
  if (want.at && ev->time != *want.at) {
    diverge(describe(want) + " but the recording has time=" + format_time(ev->time));
  }
  if (want.payload != nullptr && ev->digest != payload_digest(*want.payload)) {
    diverge(describe(want) + ": payload digest differs from the recording");
  }
  ++cursor_;
  return *ev;
}

const Event* ReplayFeed::take_departure() {
  const Event* ev = peek();
  if (ev == nullptr || !is_departure(*ev)) return nullptr;
  ++cursor_;
  return ev;
}

}  // namespace hcs::replay
