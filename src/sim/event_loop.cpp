#include "sim/event_loop.hpp"

#include <algorithm>
#include <cstdio>

#include "sim/assert.hpp"
#include "sim/perf/perf.hpp"

namespace tracemod::sim {

std::string format_time(TimePoint t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6fs", to_seconds(t));
  return buf;
}

std::string format_duration(Duration d) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6fs", to_seconds(d));
  return buf;
}

EventLoop::~EventLoop() {
  // Cancel what is still pending, so every capture is destroyed while the
  // loop is whole.  A capture's destructor may schedule more; repeat until
  // nothing is left.
  while (live_ > 0) {
    const std::uint32_t n =
        static_cast<std::uint32_t>(chunks_.size()) * kChunkSlots;
    for (std::uint32_t i = 0; i < n; ++i) {
      const Slot& s = slot(i);
      if (s.seq != kNoEvent) cancel(make_id(s.seq, i));
    }
  }
}

void EventLoop::add_chunk() {
  const std::size_t base = chunks_.size() * kChunkSlots;
  TM_ASSERT(base + kChunkSlots < kNoSlot);
  chunks_.push_back(std::make_unique<Chunk>());
  // Thread the new slots onto the free list, lowest index on top.
  for (std::uint32_t i = kChunkSlots; i-- > 0;) {
    release_slot(static_cast<std::uint32_t>(base) + i);
  }
}

EventId EventLoop::enqueue(TimePoint at, std::uint32_t index) {
  const std::uint64_t seq = next_seq_++;
  slot(index).seq = seq;
  keys_.push_back(Key{at, seq, index});
  sift_up(keys_.size() - 1);
  ++live_;
  queue_high_water_ = std::max(queue_high_water_, live_);
  return make_id(seq, index);
}

std::uint32_t EventLoop::pending_slot(EventId id) const {
  const std::uint64_t low = id & 0xffffffffu;
  if (low == 0 || low > chunks_.size() * kChunkSlots) return kNoSlot;
  const std::uint32_t index = static_cast<std::uint32_t>(low - 1);
  const Slot& s = slot(index);
  if (s.seq == kNoEvent || (s.seq & 0xffffffffu) != id >> 32) return kNoSlot;
  return index;
}

bool EventLoop::cancel(EventId id) {
  const std::uint32_t index = pending_slot(id);
  if (index == kNoSlot) return false;
  Slot& s = slot(index);
  s.seq = kNoEvent;  // its key, still in the heap, is dead from here on
  --live_;
  ++dead_in_queue_;
  // The capture is destroyed now, not when its key surfaces.  Its
  // destructor may re-enter the loop; the slot joins the free list only
  // afterwards, so nothing scheduled from there can be handed this slot.
  s.fn.reset();
  release_slot(index);
  // Compact once dead keys dominate, so a component that repeatedly arms
  // and cancels a Timer cannot grow the heap without bound.
  constexpr std::size_t kCompactionMinEntries = 64;
  if (keys_.size() >= kCompactionMinEntries &&
      dead_in_queue_ > keys_.size() / 2) {
    compact();
  }
  return true;
}

void EventLoop::compact() {
  keys_.erase(std::remove_if(keys_.begin(), keys_.end(),
                             [this](const Key& k) { return !live(k); }),
              keys_.end());
  // Heapify bottom-up from the last node that has a child.
  if (keys_.size() > 1) {
    for (std::size_t i = (keys_.size() - 2) / kArity + 1; i-- > 0;) {
      sift_down(i);
    }
  }
  dead_in_queue_ = 0;
}

void EventLoop::sift_up(std::size_t i) {
  const Key k = keys_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(k, keys_[parent])) break;
    keys_[i] = keys_[parent];
    i = parent;
  }
  keys_[i] = k;
}

void EventLoop::sift_down(std::size_t i) {
  const std::size_t n = keys_.size();
  const Key k = keys_[i];
  for (;;) {
    const std::size_t first = i * kArity + 1;
    if (first >= n) break;
    const std::size_t end = std::min(first + kArity, n);
    std::size_t min = first;
    for (std::size_t c = first + 1; c < end; ++c) {
      if (earlier(keys_[c], keys_[min])) min = c;
    }
    if (!earlier(keys_[min], k)) break;
    keys_[i] = keys_[min];
    i = min;
  }
  keys_[i] = k;
}

EventLoop::Key EventLoop::pop_key() {
  const Key top = keys_.front();
  keys_.front() = keys_.back();
  keys_.pop_back();
  if (!keys_.empty()) sift_down(0);
  return top;
}

bool EventLoop::dispatch_one() {
  while (!keys_.empty()) {
    const Key k = pop_key();
    if (!live(k)) {  // cancelled
      if (dead_in_queue_ > 0) --dead_in_queue_;
      continue;
    }
    Slot& s = slot(k.slot);
    s.seq = kNoEvent;  // running: pending() and cancel() see it as gone
    --live_;
    TM_ASSERT(k.at >= now_);
    now_ = k.at;
    ++dispatched_;
    // The handler runs in place (chunks never move).  Its capture is
    // destroyed, and its slot freed, only once it has returned or thrown,
    // so nothing it schedules can be handed the slot it is running in.
    struct Retire {
      EventLoop& loop;
      std::uint32_t index;
      ~Retire() {
        loop.slot(index).fn.reset();
        loop.release_slot(index);
      }
    } retire{*this, k.slot};
    // The wall-clock perf plane observes only (virtual time is untouched
    // and no randomness is drawn); when no profiler is attached to this
    // thread the two hooks cost a TLS load plus a predicted branch.
    perf::PerfProfiler* const pp = perf::current();
    if (pp != nullptr) pp->on_dispatch(now_, live_);
    perf::PerfScope scope(pp, perf::Domain::kEventLoop,
                          s.tag != nullptr ? s.tag : "(untagged)");
    s.fn();
    return true;
  }
  return false;
}

bool EventLoop::step() { return dispatch_one(); }

void EventLoop::run() {
  while (dispatch_one()) {
  }
}

void EventLoop::run_until(TimePoint t) {
  while (!keys_.empty()) {
    // Skip over cancelled keys to find the real next event time.
    if (!live(keys_.front())) {
      pop_key();
      if (dead_in_queue_ > 0) --dead_in_queue_;
      continue;
    }
    if (keys_.front().at > t) break;
    dispatch_one();
  }
  if (now_ < t) now_ = t;
}

}  // namespace tracemod::sim
