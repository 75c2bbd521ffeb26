// Versioned binary serialization for recordings (docs/record-replay.md has
// the byte-level spec).
//
// Layout (all integers little-endian, doubles as IEEE-754 bit patterns):
//   file   := magic "HCSR" | u32 version (1..3) | u32 nworlds | world*
//   world  := u64 seed | i32 nranks | u64 fault_seed
//           | str machine | str fault_plan | str label
//           | rank* (nranks of them) | u64 total_events (integrity check)
//   rank   := u64 nevents | event*
//   event  := u8 kind | u8 flags | i32 peer | i64 tag | i64 bytes
//           | f64 time | f64 aux0 | f64 aux1 | u64 digest
//           | u32 nvalues | f64*
//   str    := u32 length | bytes
//
// serialize() walks worlds and ranks in index order, so identical event
// streams produce byte-identical files — the property the invariance tests
// and the CI bisect smoke step gate.
//
// Version history.  v1: event kinds 1..5.  v2: adds kMembership (kind 6,
// churn epochs — docs/fault-injection.md).  v3: adds kSplit (kind 7, one
// communicator-split outcome: the new communicator's world ranks and the
// caller's index; parse() checks both).  The event wire layout itself is
// unchanged, so older files parse bit-exactly under a newer reader (the
// committed v1 and v2 incidents in tests/replay/incidents/ gate this
// back-compat), and a kind a file's version does not define is rejected.
#pragma once

#include <string>
#include <vector>

#include "replay/record.hpp"

namespace hcs::replay {

inline constexpr std::uint32_t kFormatVersion = 3;

/// Oldest version parse() still reads (v1 recordings carry no kMembership or
/// kSplit events but are otherwise identical on the wire).
inline constexpr std::uint32_t kMinFormatVersion = 1;

/// A recording loaded back from disk (or parsed from bytes).
struct Recording {
  std::vector<RecordedWorld> worlds;
};

/// Deterministic byte serialization of everything the recorder captured.
std::string serialize(const Recorder& recorder);

/// Parses bytes produced by serialize(); throws std::runtime_error naming
/// the offset on any magic/version/bounds violation, and naming the field
/// of a kSplit event whose index or members are malformed.
Recording parse(const std::string& bytes);

/// Writes serialize(recorder) to `path`; false (with errno untouched) when
/// the file cannot be written.
bool save(const std::string& path, const Recorder& recorder);

/// Reads and parses `path`; throws std::runtime_error when the file cannot
/// be read or fails to parse.
Recording load(const std::string& path);

}  // namespace hcs::replay
