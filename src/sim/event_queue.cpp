#include "sim/event_queue.hpp"

#include <algorithm>

namespace hcs::sim {

// Out of line on purpose: sift-down only runs for pops on a populated heap,
// while push/pop stay inline in the header for the hot path.
//
// Bottom-up variant (the std::pop_heap trick): the displaced event comes
// from the end of the heap, so it almost always belongs near a leaf again.
// Walking the hole straight to the bottom and then sifting the event back up
// skips the against-the-event comparison at every level, cutting average
// comparisons by ~a quarter on large heaps.
void EventQueue::sift_down(Event ev) noexcept {
  const std::size_t n = heap_.size();
  std::size_t hole = 0;
  // Phase 1: promote the earliest of up to four adjacent children into the
  // hole until the hole reaches a leaf.
  std::size_t first_child = 1;
  while (first_child < n) {
    std::size_t best = first_child;
    const std::size_t end = first_child + kArity < n ? first_child + kArity : n;
    for (std::size_t c = first_child + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    heap_[hole] = heap_[best];
    hole = best;
    first_child = hole * kArity + 1;
  }
  // Phase 2: sift the displaced event back up to its true position (usually
  // zero or one level).
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!before(ev, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = ev;
}

void EventQueue::shrink() {
  std::vector<Event> smaller;
  smaller.reserve(std::max<std::size_t>(heap_.size() * 2, 64));
  smaller.insert(smaller.end(), heap_.begin(), heap_.end());
  heap_.swap(smaller);
}

void EventQueue::clear() noexcept {
  heap_ = {};
  next_seq_ = 0;
}

}  // namespace hcs::sim
