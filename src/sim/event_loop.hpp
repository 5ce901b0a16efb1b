// Discrete-event scheduler.
//
// EventLoop owns virtual time.  Components schedule callbacks at absolute or
// relative times; run() dispatches them in timestamp order (FIFO among equal
// timestamps).  Scheduling returns an EventId that can be cancelled, which is
// how protocol timers (TCP retransmission, NFS RPC timeouts, ...) are built.
//
// Scheduling, cancelling and dispatching allocate nothing once the loop has
// grown to its working depth (DESIGN §5): each callback lives inline in a
// slot of a fixed-size chunk that never moves, and a 4-ary heap orders
// small keys that name their slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/assert.hpp"
#include "sim/time.hpp"

namespace tracemod::sim {

/// Opaque handle for a scheduled event: its slot and a generation (see
/// EventLoop::make_id).  Value 0 is never issued.
using EventId = std::uint64_t;

/// A `void()` callable kept in a fixed inline buffer, with no heap
/// fallback: a callable larger than kCapacity is a compile error, so an
/// event costs no allocation by construction.  It is built in place and
/// never copied or moved (EventLoop's slots never move).
class InlineCallback {
 public:
  /// The largest in-tree event closure: the wireless channel's
  /// "air.finish" capture (the channel, a Transceiver pair, a Packet and
  /// its retry count).
  static constexpr std::size_t kCapacity = 136;

  InlineCallback() = default;
  ~InlineCallback() { reset(); }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  /// Stores f in the (empty) buffer.
  template <class F>
  void emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "an event callback takes no arguments");
    static_assert(sizeof(Fn) <= kCapacity,
                  "event capture exceeds InlineCallback::kCapacity: capture "
                  "pointers or ids instead, or raise the capacity");
    static_assert(alignof(Fn) <= alignof(void*),
                  "over-aligned event capture");
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    invoke_ = [](void* p) { (*std::launder(static_cast<Fn*>(p)))(); };
    destroy_ = [](void* p) { std::launder(static_cast<Fn*>(p))->~Fn(); };
  }

  void operator()() { invoke_(buf_); }

  /// Destroys the stored callable, if any.  The callback reads empty before
  /// the callable's destructor runs, so that destructor may re-enter the
  /// loop.
  void reset() {
    if (destroy_ == nullptr) return;
    void (*const destroy)(void*) = destroy_;
    invoke_ = nullptr;
    destroy_ = nullptr;
    destroy(buf_);
  }

 private:
  alignas(void*) unsigned char buf_[kCapacity];
  void (*invoke_)(void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

class EventLoop {
 public:
  EventLoop() = default;
  /// Destroys every pending callback while the loop is still whole, so a
  /// capture's destructor may call pending(), cancel() or schedule().
  ~EventLoop();
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time.  Advances only inside run()/run_until()/step().
  TimePoint now() const { return now_; }

  /// Schedules fn at absolute time t.  Times in the past are clamped to
  /// now().  Returns a cancellable id.  The optional tag (a static string)
  /// labels the handler's dispatch scope in the perf plane
  /// (sim/perf/perf.hpp); it has no effect on dispatch.
  /// fn is stored inline (see InlineCallback); a std::function argument
  /// must not be empty.
  template <class F>
  EventId schedule_at(TimePoint t, F&& fn, const char* tag = nullptr) {
    if constexpr (std::is_same_v<std::decay_t<F>, std::function<void()>>) {
      TM_ASSERT(fn != nullptr);
    }
    if (t < now_) t = now_;  // clamp: scheduling "in the past" fires at now
    const std::uint32_t index = acquire_slot();
    Slot& s = slot(index);
    s.fn.emplace(std::forward<F>(fn));
    s.tag = tag;
    return enqueue(t, index);
  }

  /// Schedules fn after the given delay (>= 0).
  template <class F>
  EventId schedule(Duration delay, F&& fn, const char* tag = nullptr) {
    return schedule_at(now_ + delay, std::forward<F>(fn), tag);
  }

  /// Cancels a pending event and destroys its callback at once.  Returns
  /// false if it already ran (or is running), was already cancelled, or
  /// never existed.
  bool cancel(EventId id);

  /// True if the event has been scheduled and has neither run nor been
  /// cancelled.  False from inside the event's own handler.
  bool pending(EventId id) const { return pending_slot(id) != kNoSlot; }

  /// Runs events until the queue is empty.
  void run();

  /// Runs events with timestamp <= t, then advances the clock to t.
  void run_until(TimePoint t);

  /// Runs events for the given span of virtual time from now().
  void run_for(Duration d) { run_until(now_ + d); }

  /// Dispatches the single next event.  Returns false if the queue is empty.
  bool step();

  /// Number of events dispatched so far (for tests and diagnostics).
  std::uint64_t dispatched() const { return dispatched_; }

  /// Number of events currently pending.
  std::size_t pending_count() const { return live_; }

  /// The most events ever pending at once.  Cancelled events stop
  /// counting when cancelled, and compaction never lowers it.
  std::size_t queue_high_water() const { return queue_high_water_; }

  /// Number of heap keys, live plus not-yet-compacted dead ones (for
  /// tests and diagnostics).  Bounded by compaction: dead keys never
  /// exceed half the heap once it passes a small minimum size.
  std::size_t queue_size() const { return keys_.size(); }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::uint64_t kNoEvent = ~std::uint64_t{0};
  static constexpr std::uint32_t kChunkSlots = 256;

  /// Children per heap node.  A wider node makes the heap shallower: a
  /// pop compares more siblings per level but moves keys through fewer
  /// levels, and the four siblings are adjacent in memory.
  static constexpr std::size_t kArity = 4;

  /// A heap key.  It is live while its slot still holds the event with its
  /// sequence number; a cancelled event's key stays behind, dead, until it
  /// is popped or compacted away.
  struct Key {
    TimePoint at;
    std::uint64_t seq;  // tie-break: FIFO among equal timestamps
    std::uint32_t slot;
  };
  /// The dispatch order.  Sequence numbers are unique, so it is total and
  /// any heap under it pops keys in one sequence.
  static bool earlier(const Key& a, const Key& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }
  /// Where an event's callback lives from schedule until it has run (or
  /// been cancelled) and been destroyed.
  struct Slot {
    InlineCallback fn;
    const char* tag = nullptr;  // perf-plane label; nullptr = untagged
    std::uint64_t seq = kNoEvent;  // the pending event held; kNoEvent if none
    std::uint32_t next_free = kNoSlot;
  };
  struct Chunk {
    Slot slots[kChunkSlots];
  };

  Slot& slot(std::uint32_t i) {
    return chunks_[i / kChunkSlots]->slots[i % kChunkSlots];
  }
  const Slot& slot(std::uint32_t i) const {
    return chunks_[i / kChunkSlots]->slots[i % kChunkSlots];
  }
  bool live(const Key& k) const { return slot(k.slot).seq == k.seq; }
  /// An id pairs the slot with a generation: the low 32 bits of the
  /// event's sequence number.  Once the event runs or is cancelled its slot
  /// forgets that number, so the id stays stale after the slot is reused
  /// (until 2^32 later schedules).  Slot + 1 keeps 0 unissued.
  static EventId make_id(std::uint64_t seq, std::uint32_t index) {
    return (seq & 0xffffffffu) << 32 | (index + std::uint64_t{1});
  }

  std::uint32_t acquire_slot() {
    if (free_head_ == kNoSlot) add_chunk();
    const std::uint32_t i = free_head_;
    free_head_ = slot(i).next_free;
    return i;
  }
  void release_slot(std::uint32_t i) {
    slot(i).next_free = free_head_;
    free_head_ = i;
  }
  void add_chunk();
  EventId enqueue(TimePoint at, std::uint32_t index);
  /// The slot holding the pending event id names, or kNoSlot.
  std::uint32_t pending_slot(EventId id) const;
  /// Restore the heap order after keys_[i] moved earlier or later.
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  Key pop_key();
  bool dispatch_one();
  void compact();

  TimePoint now_ = kEpoch;
  std::vector<Key> keys_;  // kArity-ary min-heap under earlier()
  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint32_t free_head_ = kNoSlot;  // LIFO free list through next_free
  std::size_t live_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::size_t dead_in_queue_ = 0;
  std::size_t queue_high_water_ = 0;
};

/// RAII one-shot timer bound to an EventLoop.  Used by protocol state
/// machines; destroying the timer cancels any pending callback.
class Timer {
 public:
  explicit Timer(EventLoop& loop) : loop_(loop) {}
  ~Timer() { cancel(); }
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// (Re)arms the timer to fire after the delay, replacing any pending arm.
  /// The optional tag labels the handler's dispatch, as in schedule_at().
  template <class F>
  void arm(Duration delay, F&& fn, const char* tag = nullptr) {
    cancel();
    id_ = loop_.schedule(delay,
                         [this, fn = std::forward<F>(fn)]() mutable {
                           id_ = 0;
                           fn();
                         },
                         tag);
  }

  void cancel() {
    if (id_ != 0) {
      loop_.cancel(id_);
      id_ = 0;
    }
  }

  bool armed() const { return id_ != 0; }

  EventLoop& loop() { return loop_; }

 private:
  EventLoop& loop_;
  EventId id_ = 0;
};

}  // namespace tracemod::sim
