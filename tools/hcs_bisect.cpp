// The hcs_bisect CLI — diff two event-order recordings and report the first
// diverging event (docs/record-replay.md).
//
// Usage:
//   hcs_bisect <a.hcsr> <b.hcsr>
//
// Prints "no divergence" when the recordings describe identical runs,
// otherwise the first event (by sim-time, then rank) at which they disagree:
// world, rank, event index, sim-time, the differing field and both sides.
//
// Exit codes: 0 no divergence, 1 divergence found, 2 usage or I/O error.
#include <iostream>
#include <stdexcept>
#include <string>

#include "replay/bisect.hpp"
#include "replay/format.hpp"

int main(int argc, char** argv) {
  using namespace hcs;
  using replay::format_time;
  if (argc != 3) {
    std::cerr << "usage: hcs_bisect <a.hcsr> <b.hcsr>\n"
              << "  diffs two recordings and reports the first diverging event\n"
              << "  exit codes: 0 no divergence, 1 divergence, 2 usage or I/O error\n";
    return 2;
  }
  const std::string path_a = argv[1];
  const std::string path_b = argv[2];
  try {
    const replay::Recording a = replay::load(path_a);
    const replay::Recording b = replay::load(path_b);
    const std::optional<replay::Divergence> d = replay::first_divergence(a, b);
    if (!d) {
      std::cout << "no divergence: " << path_a << " and " << path_b
                << " describe identical runs\n";
      return 0;
    }
    std::cout << "first divergence: world " << d->world << " rank " << d->rank << " event "
              << d->index << " at t=" << format_time(d->time) << " field=" << d->field << "\n"
              << "  (a=" << path_a << ", b=" << path_b << ")\n"
              << "  " << d->detail << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "hcs_bisect: " << e.what() << "\n";
    return 2;
  }
}
