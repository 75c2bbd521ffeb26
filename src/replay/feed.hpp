// Single-rank replay feed (docs/record-replay.md).
//
// A ReplayFeed walks one rank's recorded event stream in order.  The World
// transport hooks consume it instead of simulating the other ranks: receive
// completions and ping-pong bursts are answered straight from the log
// (resumed at the recorded absolute sim-time), sends and clock reads are
// verified against it.  Every hook goes through one matcher, expect(); any
// mismatch between what the replayed program does and what the log says
// throws ReplayDivergence naming the first diverging event and both sides.
#pragma once

#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "replay/record.hpp"

namespace hcs::replay {

/// The replayed rank did something the recording did not: different
/// operation, different arguments, different payload, or it ran past the
/// end of the log.
class ReplayDivergence : public std::runtime_error {
 public:
  ReplayDivergence(int rank, std::size_t index, std::string what)
      : std::runtime_error("replay divergence at rank " + std::to_string(rank) + ", event " +
                           std::to_string(index) + ": " + std::move(what)),
        rank_(rank),
        index_(index) {}

  int rank() const noexcept { return rank_; }
  std::size_t event_index() const noexcept { return index_; }

 private:
  int rank_;
  std::size_t index_;
};

/// One replayed operation as the rank itself determines it, before the
/// recording answers: what ReplayFeed::expect checks the next event against.
struct Expected {
  EventKind kind = EventKind::kSend;
  int peer = -1;            // the other rank; -1 = none (clock read, membership)
  std::int64_t tag = 0;
  bool role = false;        // kBurst: the caller is the client; kMembership: up
  bool or_timeout = false;  // a bounded receive: a kRecvTimeout answers it too
  // Sends and clock reads happen at the rank's own sim-time, so it is checked
  // too; a blocking operation resumes at the recorded time instead.
  std::optional<double> at{};
  std::int64_t bytes = 0;                        // kSend
  const std::vector<double>* payload = nullptr;  // kSend
};

class ReplayFeed {
 public:
  /// Serves `rank`'s events of `world`; the RecordedWorld must outlive the
  /// feed (the World holds the feed only by pointer, so the caller owns
  /// both).
  ReplayFeed(const RecordedWorld& world, int rank);

  int rank() const noexcept { return rank_; }

  /// Next unconsumed event, or nullptr once the log is exhausted.
  const Event* peek() const noexcept {
    return cursor_ < events_->size() ? &(*events_)[cursor_] : nullptr;
  }

  /// Consumes the next event after checking it matches `want` (kind, peer,
  /// tag, role; time, size and payload where `want` carries them); throws
  /// ReplayDivergence naming both sides, before consuming, on mismatch.
  const Event& expect(const Expected& want);

  /// Consumes a recorded departure marker at the head, if there is one: the
  /// rank died there.  Returns it, or nullptr.
  const Event* take_departure();

  /// The event consumed last (requires consumed() > 0).
  const Event& last() const { return (*events_)[cursor_ - 1]; }

  std::size_t consumed() const noexcept { return cursor_; }
  std::size_t remaining() const noexcept { return events_->size() - cursor_; }

  /// Throws ReplayDivergence carrying this feed's rank and cursor position.
  [[noreturn]] void diverge(const std::string& what) const {
    throw ReplayDivergence(rank_, cursor_, what);
  }

 private:
  const std::vector<Event>* events_;
  int rank_;
  std::size_t cursor_ = 0;
};

}  // namespace hcs::replay
