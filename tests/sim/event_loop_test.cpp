#include "sim/event_loop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "sim/perf/alloc_telemetry.hpp"

namespace tracemod::sim {
namespace {

TEST(EventLoop, StartsAtEpoch) {
  EventLoop loop;
  EXPECT_EQ(loop.now(), kEpoch);
  EXPECT_EQ(loop.pending_count(), 0u);
}

TEST(EventLoop, DispatchesInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(milliseconds(30), [&] { order.push_back(3); });
  loop.schedule(milliseconds(10), [&] { order.push_back(1); });
  loop.schedule(milliseconds(20), [&] { order.push_back(2); });
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), kEpoch + milliseconds(30));
}

TEST(EventLoop, FifoAmongEqualTimestamps) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule(milliseconds(5), [&order, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, ClockAdvancesToEventTime) {
  EventLoop loop;
  TimePoint seen{};
  loop.schedule(seconds(2), [&] { seen = loop.now(); });
  loop.run();
  EXPECT_EQ(seen, kEpoch + seconds(2));
}

TEST(EventLoop, CancelPreventsDispatch) {
  EventLoop loop;
  bool ran = false;
  EventId id = loop.schedule(milliseconds(1), [&] { ran = true; });
  EXPECT_TRUE(loop.pending(id));
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.pending(id));
  loop.run();
  EXPECT_FALSE(ran);
}

TEST(EventLoop, CancelTwiceReturnsFalse) {
  EventLoop loop;
  EventId id = loop.schedule(milliseconds(1), [] {});
  EXPECT_TRUE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(id));
  EXPECT_FALSE(loop.cancel(0));
}

TEST(EventLoop, CancelAfterRunReturnsFalse) {
  EventLoop loop;
  EventId id = loop.schedule(milliseconds(1), [] {});
  loop.run();
  EXPECT_FALSE(loop.cancel(id));
}

TEST(EventLoop, RunUntilStopsAtBoundaryAndAdvancesClock) {
  EventLoop loop;
  int count = 0;
  loop.schedule(milliseconds(10), [&] { ++count; });
  loop.schedule(milliseconds(20), [&] { ++count; });
  loop.schedule(milliseconds(30), [&] { ++count; });
  loop.run_until(kEpoch + milliseconds(25));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(loop.now(), kEpoch + milliseconds(25));
  loop.run();
  EXPECT_EQ(count, 3);
}

TEST(EventLoop, EventsScheduledDuringDispatchRun) {
  EventLoop loop;
  int depth = 0;
  loop.schedule(milliseconds(1), [&] {
    ++depth;
    loop.schedule(milliseconds(1), [&] { ++depth; });
  });
  loop.run();
  EXPECT_EQ(depth, 2);
  EXPECT_EQ(loop.now(), kEpoch + milliseconds(2));
}

TEST(EventLoop, PastSchedulingClampsToNow) {
  EventLoop loop;
  loop.run_until(kEpoch + seconds(1));
  TimePoint fired{};
  loop.schedule_at(kEpoch, [&] { fired = loop.now(); });
  loop.run();
  EXPECT_EQ(fired, kEpoch + seconds(1));
}

TEST(EventLoop, DispatchedCounter) {
  EventLoop loop;
  for (int i = 0; i < 7; ++i) loop.schedule(milliseconds(i), [] {});
  loop.run();
  EXPECT_EQ(loop.dispatched(), 7u);
}

TEST(EventLoop, QueueHighWaterCountsPendingEventsNotDeadKeys) {
  EventLoop loop;
  EXPECT_EQ(loop.queue_high_water(), 0u);
  const EventId first = loop.schedule(milliseconds(1), [] {});
  for (int i = 0; i < 3; ++i) loop.schedule(milliseconds(2 + i), [] {});
  EXPECT_EQ(loop.queue_high_water(), 4u);

  // A cancel leaves its key in the heap, dead, but one event fewer
  // pending: back at four pending events over five keys is no new high.
  ASSERT_TRUE(loop.cancel(first));
  loop.schedule(milliseconds(9), [] {});
  EXPECT_EQ(loop.queue_size(), 5u);
  EXPECT_EQ(loop.pending_count(), 4u);
  EXPECT_EQ(loop.queue_high_water(), 4u);

  std::vector<EventId> background;
  for (int i = 0; i < 200; ++i) {
    background.push_back(loop.schedule(seconds(10), [] {}));
  }
  EXPECT_EQ(loop.queue_high_water(), 204u);
  // Cancelling them compacts the heap; the mark stays where it was.
  for (const EventId id : background) ASSERT_TRUE(loop.cancel(id));
  EXPECT_LT(loop.queue_size(), 100u);
  EXPECT_EQ(loop.queue_high_water(), 204u);
  loop.run();
  EXPECT_EQ(loop.dispatched(), 4u);
  EXPECT_EQ(loop.queue_high_water(), 204u);
}

TEST(EventLoop, CancelHeavyWorkloadKeepsQueueBounded) {
  // Regression for heap rot: a repeatedly re-armed timer (the dominant
  // cancel pattern -- TCP retransmission timers, NFS retry timers) used to
  // leave every cancelled entry in the priority queue until its timestamp
  // came up.  Compaction must keep the queue proportional to the *live*
  // event count, not the cancel history.
  EventLoop loop;
  Timer t(loop);
  std::size_t peak = 0;
  for (int i = 0; i < 100'000; ++i) {
    t.arm(seconds(3600) + milliseconds(i), [] {});
    peak = std::max(peak, loop.queue_size());
  }
  // Live events: exactly the one armed timer.  The queue may carry some
  // dead entries between compactions, but never more than the compaction
  // threshold's worth.
  EXPECT_EQ(loop.pending_count(), 1u);
  EXPECT_LE(loop.queue_size(), 64u);
  EXPECT_LE(peak, 256u);

  int fired = 0;
  t.cancel();
  t.arm(milliseconds(1), [&] { ++fired; });
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.queue_size(), 0u);
}

TEST(EventLoop, CompactionPreservesDispatchOrder) {
  EventLoop loop;
  // Arm-and-cancel enough background events to force several compactions,
  // interleaved with live events whose order we then verify.
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.schedule(milliseconds(100 + i), [&order, i] { order.push_back(i); });
  }
  for (int i = 0; i < 1000; ++i) {
    const EventId id = loop.schedule(seconds(10), [] {});
    loop.cancel(id);
  }
  loop.run();
  ASSERT_EQ(order.size(), 10u);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

// A capture that runs a hook when destroyed -- once: a moved-from copy is
// disarmed.
struct DestructorHook {
  std::function<void()> hook;
  explicit DestructorHook(std::function<void()> h) : hook(std::move(h)) {}
  DestructorHook(DestructorHook&& o) noexcept
      : hook(std::exchange(o.hook, nullptr)) {}
  ~DestructorHook() {
    if (hook) hook();
  }
};

TEST(EventLoop, SteadyStateDispatchAllocatesNothing) {
  perf::ensure_alloc_interposer();
  EventLoop loop;
  net::Packet pkt = net::make_udp_packet(net::IpAddress(10, 0, 0, 1),
                                         net::IpAddress(10, 0, 0, 2), 1, 2,
                                         512);
  std::uint64_t sum = 0;
  const void* owner = &loop;
  auto burst = [&] {
    for (int i = 0; i < 10'000; ++i) {
      // A Packet plus two pointers: the shape of the hot packet closures.
      loop.schedule(microseconds(i % 97), [&sum, owner, pkt] {
        sum += pkt.payload_size + (owner != nullptr ? 1 : 0);
      });
    }
    loop.run();
  };
  burst();  // warm: the slot chunks and the key heap reach working size
  const perf::AllocTotals before = perf::thread_alloc_totals();
  burst();
  const perf::AllocTotals d = perf::thread_alloc_totals() - before;
  EXPECT_EQ(d.allocs, 0u);
  EXPECT_EQ(d.frees, 0u);
  EXPECT_EQ(sum, 2u * 10'000u * 513u);
}

TEST(EventLoop, CancelledCaptureMayScheduleAndCancelFromItsDestructor) {
  EventLoop loop;
  bool victim_ran = false;
  int spawned_ran = 0;
  int hook_runs = 0;
  const EventId victim =
      loop.schedule(milliseconds(5), [&] { victim_ran = true; });
  EventId spawned = 0;
  bool victim_cancelled = false;
  const EventId doomed = loop.schedule(
      milliseconds(1), [hook = DestructorHook([&] {
                          ++hook_runs;
                          spawned = loop.schedule(milliseconds(2),
                                                  [&] { ++spawned_ran; });
                          victim_cancelled = loop.cancel(victim);
                        })] {});
  ASSERT_TRUE(loop.cancel(doomed));
  // cancel() destroyed the capture at once; its hook ran inside.
  EXPECT_EQ(hook_runs, 1);
  EXPECT_TRUE(victim_cancelled);
  EXPECT_FALSE(loop.pending(doomed));
  EXPECT_FALSE(loop.pending(victim));
  ASSERT_TRUE(loop.pending(spawned));
  // No slot is handed out twice: two more events, and every live event
  // still fires exactly once.
  int a = 0, b = 0;
  loop.schedule(milliseconds(3), [&] { ++a; });
  loop.schedule(milliseconds(4), [&] { ++b; });
  EXPECT_EQ(loop.pending_count(), 3u);
  loop.run();
  EXPECT_EQ(spawned_ran, 1);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  EXPECT_FALSE(victim_ran);
  EXPECT_EQ(hook_runs, 1);
  EXPECT_EQ(loop.pending_count(), 0u);
}

TEST(EventLoop, TeardownDestroysCapturesWhileTheLoopIsWhole) {
  // More events than one slot chunk holds; the later half is still
  // pending when the loop dies.  Each capture's destructor asks about its
  // own event and cancels its neighbour's.
  constexpr int kEvents = 600;
  bool tearing_down = false;
  int destroyed = 0;
  int neighbours_cancelled = 0;
  {
    std::vector<EventId> ids(kEvents, 0);  // outlives the loop's teardown
    EventLoop loop;
    for (int i = 0; i < kEvents; ++i) {
      ids[static_cast<std::size_t>(i)] = loop.schedule(
          milliseconds(i), [hook = DestructorHook([&, i] {
                              if (!tearing_down) return;
                              ++destroyed;
                              EXPECT_FALSE(
                                  loop.pending(ids[static_cast<std::size_t>(i)]));
                              if (loop.cancel(ids[static_cast<std::size_t>(
                                      (i + 1) % kEvents)])) {
                                ++neighbours_cancelled;
                              }
                            })] {});
    }
    loop.run_until(kEpoch + milliseconds(kEvents / 2 - 1));
    EXPECT_EQ(loop.pending_count(), static_cast<std::size_t>(kEvents / 2));
    tearing_down = true;
  }
  EXPECT_EQ(destroyed, kEvents / 2);
  EXPECT_GT(neighbours_cancelled, 0);
}

TEST(EventLoop, StaleIdCannotCancelAReusedSlot) {
  EventLoop loop;
  const EventId a = loop.schedule(milliseconds(1), [] {});
  loop.run();
  bool b_fired = false;
  const EventId b = loop.schedule(milliseconds(1), [&] { b_fired = true; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(loop.cancel(a));
  EXPECT_FALSE(loop.pending(a));
  EXPECT_TRUE(loop.pending(b));
  loop.run();
  EXPECT_TRUE(b_fired);
}

/// SchedulerDifferential's op shares in percent; the rest are
/// run_until()s up to 4 ms ahead.
struct OpMix {
  std::uint64_t schedule = 40;
  std::uint64_t cancel = 20;
  std::uint64_t step = 20;
};

// Differential test: the same seeded op stream drives the real loop and a
// reference scheduler -- a flat list that always dispatches its live
// (at, seq) minimum -- and every observable must agree after every op.
// Events carry labels; what a handler does when it runs (schedule a child,
// cancel some label, itself included) is drawn before either side runs it.
class SchedulerDifferential {
 public:
  explicit SchedulerDifferential(std::uint64_t seed) : rng_(seed) {}

  /// Schedules `depth` events 60 s ahead, over 64 distinct timestamps, so
  /// that they sit deep in the heap under the ops that follow and hundreds
  /// share each timestamp.
  void prefill(int depth) {
    for (int i = 0; i < depth; ++i) {
      const int label = new_label(0);
      const TimePoint at = loop_.now() + seconds(60) +
                           milliseconds(static_cast<std::int64_t>(rng_() % 64));
      ids_[static_cast<std::size_t>(label)] =
          loop_.schedule_at(at, [this, label] { real_fire(label); });
      ref_schedule(label, at);
    }
    ASSERT_TRUE(agree()) << "prefill";
  }

  /// Cancels about two of every three pending events, in a random order:
  /// enough dead keys to make the loop compact its heap.
  void cancel_most() {
    std::vector<int> labels;
    for (std::size_t label = 0; label < ref_live_.size(); ++label) {
      if (ref_live_[label]) labels.push_back(static_cast<int>(label));
    }
    std::shuffle(labels.begin(), labels.end(), rng_);
    labels.resize(labels.size() * 2 / 3);
    bool compacted = false;
    for (const int label : labels) {
      const std::size_t keys = loop_.queue_size();
      real_log_.push_back(loop_.cancel(id_of(label)) ? -1 : -2);
      ref_log_.push_back(ref_cancel(label) ? -1 : -2);
      compacted = compacted || loop_.queue_size() < keys;
    }
    EXPECT_TRUE(compacted);
    // Compaction keeps dead keys at most half the heap.
    EXPECT_LE(loop_.queue_size(), 2 * loop_.pending_count());
    ASSERT_TRUE(agree()) << "cancel_most";
  }

  /// Runs `n` random ops, then both schedulers dry.
  void run(int n) {
    ops(n);
    if (!::testing::Test::HasFatalFailure()) drain();
  }

  /// Runs `n` random ops; every observable is compared after each
  /// `check_every`-th op.
  void ops(int n, OpMix mix = {}, int check_every = 1) {
    for (int op = 0; op < n; ++op) {
      const std::uint64_t roll = rng_() % 100;
      if (roll < mix.schedule) {
        schedule_new();
      } else if (roll < mix.schedule + mix.cancel) {
        const int target = pick_target();
        real_log_.push_back(loop_.cancel(id_of(target)) ? -1 : -2);
        ref_log_.push_back(ref_cancel(target) ? -1 : -2);
      } else if (roll < mix.schedule + mix.cancel + mix.step) {
        real_log_.push_back(loop_.step() ? -3 : -4);
        ref_log_.push_back(ref_step() ? -3 : -4);
      } else {
        const TimePoint t =
            loop_.now() + milliseconds(static_cast<std::int64_t>(rng_() % 5));
        loop_.run_until(t);
        ref_run_until(t);
      }
      if ((op + 1) % check_every == 0) {
        ASSERT_TRUE(agree()) << "op " << op;
      }
    }
  }

  void drain() {
    loop_.run();
    while (ref_step()) {
    }
    ASSERT_TRUE(agree()) << "final drain";
  }

 private:
  static constexpr int kNone = -2;   // inner action: cancel nothing
  static constexpr int kZero = -1;   // cancel target: the never-issued id 0

  struct Inner {
    int child = -1;  // label scheduled from inside the handler
    Duration child_delay{};
    int cancel = kNone;  // label (or kZero) cancelled from inside
  };
  struct RefEvent {
    TimePoint at;
    std::uint64_t seq;
    int label;
    // The reference's whole order: time, then FIFO sequence.
    bool operator<(const RefEvent& o) const {
      if (at != o.at) return at < o.at;
      return seq < o.seq;
    }
  };

  Duration tie_heavy_delay() {
    return milliseconds(static_cast<std::int64_t>(rng_() % 4));
  }

  int new_label(int depth) {
    const int label = static_cast<int>(inner_.size());
    inner_.emplace_back();
    ids_.push_back(0);
    ref_event_.emplace_back();
    ref_live_.push_back(false);
    Inner in;
    const std::uint64_t roll = rng_() % 100;
    if (roll < 30 && depth < 3) {
      in.child = new_label(depth + 1);
      in.child_delay = tie_heavy_delay();
    }
    if (rng_() % 100 < 30) {
      const std::uint64_t kind = rng_() % 4;
      in.cancel = kind == 0 ? label : kind == 1 ? kZero : pick_target();
      if (in.child >= 0 && rng_() % 3 == 0) in.cancel = in.child;
    }
    inner_[static_cast<std::size_t>(label)] = in;
    return label;
  }

  int pick_target() {
    if (inner_.empty() || rng_() % 10 == 0) return kZero;
    return static_cast<int>(rng_() % inner_.size());
  }

  EventId id_of(int label) const {
    return label < 0 ? 0 : ids_[static_cast<std::size_t>(label)];
  }

  void schedule_new() {
    const int label = new_label(0);
    TimePoint at = loop_.now() + tie_heavy_delay();
    if (rng_() % 10 == 0) at = loop_.now() - milliseconds(1);  // clamped
    ids_[static_cast<std::size_t>(label)] =
        loop_.schedule_at(at, [this, label] { real_fire(label); });
    ref_schedule(label, at);
  }

  void real_fire(int label) {
    // An event is no longer pending once its handler runs.
    EXPECT_FALSE(loop_.pending(ids_[static_cast<std::size_t>(label)]));
    real_log_.push_back(label);
    const Inner in = inner_[static_cast<std::size_t>(label)];
    if (in.child >= 0) {
      const int c = in.child;
      ids_[static_cast<std::size_t>(c)] =
          loop_.schedule(in.child_delay, [this, c] { real_fire(c); });
    }
    if (in.cancel != kNone) {
      real_log_.push_back(loop_.cancel(id_of(in.cancel)) ? -1 : -2);
    }
  }

  void ref_schedule(int label, TimePoint at) {
    if (at < ref_now_) at = ref_now_;
    const RefEvent e{at, ref_seq_++, label};
    ref_.insert(e);
    ref_event_[static_cast<std::size_t>(label)] = e;
    ref_live_[static_cast<std::size_t>(label)] = true;
  }

  bool ref_cancel(int label) {
    if (label < 0 || !ref_live_[static_cast<std::size_t>(label)]) return false;
    ref_live_[static_cast<std::size_t>(label)] = false;
    ref_.erase(ref_event_[static_cast<std::size_t>(label)]);
    return true;
  }

  bool ref_step() {
    if (ref_.empty()) return false;
    const RefEvent e = *ref_.begin();
    ref_.erase(ref_.begin());
    ref_now_ = e.at;
    ++ref_dispatched_;
    ref_live_[static_cast<std::size_t>(e.label)] = false;
    ref_log_.push_back(e.label);
    const Inner in = inner_[static_cast<std::size_t>(e.label)];
    if (in.child >= 0) ref_schedule(in.child, ref_now_ + in.child_delay);
    if (in.cancel != kNone) {
      ref_log_.push_back(ref_cancel(in.cancel) ? -1 : -2);
    }
    return true;
  }

  void ref_run_until(TimePoint t) {
    while (!ref_.empty() && ref_.begin()->at <= t) ref_step();
    if (ref_now_ < t) ref_now_ = t;
  }

  bool agree() {
    EXPECT_EQ(real_log_, ref_log_);
    EXPECT_EQ(loop_.now(), ref_now_);
    EXPECT_EQ(loop_.dispatched(), ref_dispatched_);
    EXPECT_EQ(loop_.pending_count(), ref_.size());
    for (std::size_t label = 0; label < ids_.size(); ++label) {
      if (loop_.pending(ids_[label]) != static_cast<bool>(ref_live_[label])) {
        ADD_FAILURE() << "pending() disagrees for label " << label;
        break;
      }
    }
    return !::testing::Test::HasFailure();
  }

  std::mt19937_64 rng_;
  std::vector<Inner> inner_;  // by label
  // The loop under test.
  EventLoop loop_;
  std::vector<EventId> ids_;  // by label; 0 until scheduled
  std::vector<int> real_log_;
  // The reference.
  std::set<RefEvent> ref_;  // live events only
  std::vector<RefEvent> ref_event_;  // by label: its latest schedule
  std::vector<char> ref_live_;  // by label
  TimePoint ref_now_ = kEpoch;
  std::uint64_t ref_seq_ = 0;
  std::uint64_t ref_dispatched_ = 0;
  std::vector<int> ref_log_;
};

TEST(EventLoop, MatchesAReferenceSchedulerUnderRandomOps) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(seed);
    SchedulerDifferential(seed).run(1500);
    if (HasFailure()) return;
  }
  // Deep: 24,000 events under the ops (the 10k-host campus peaks at
  // 13,040 pending), hundreds per timestamp, and steps instead of
  // run_until()s so that the heap stays deep; then a mass cancel that
  // compacts it, and a drain of what is left.
  const OpMix deep{45, 15, 40};
  for (std::uint64_t seed = 101; seed <= 102; ++seed) {
    SCOPED_TRACE(seed);
    SchedulerDifferential d(seed);
    d.prefill(24'000);
    d.ops(20'000, deep, 1000);
    d.cancel_most();
    d.ops(5'000, deep, 1000);
    d.drain();
    if (HasFailure()) return;
  }
}

TEST(Timer, ArmAndFire) {
  EventLoop loop;
  Timer t(loop);
  int fired = 0;
  t.arm(milliseconds(5), [&] { ++fired; });
  EXPECT_TRUE(t.armed());
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(t.armed());
}

TEST(Timer, RearmReplacesPrevious) {
  EventLoop loop;
  Timer t(loop);
  int which = 0;
  t.arm(milliseconds(5), [&] { which = 1; });
  t.arm(milliseconds(10), [&] { which = 2; });
  loop.run();
  EXPECT_EQ(which, 2);
  EXPECT_EQ(loop.now(), kEpoch + milliseconds(10));
}

TEST(Timer, CancelStopsFire) {
  EventLoop loop;
  Timer t(loop);
  bool fired = false;
  t.arm(milliseconds(5), [&] { fired = true; });
  t.cancel();
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(Timer, RearmAllocatesNothing) {
  perf::ensure_alloc_interposer();
  EventLoop loop;
  Timer t(loop);
  int fired = 0;
  // Warm: the first chunk and the key heap's compaction-bounded size.
  for (int i = 0; i < 1000; ++i) {
    t.arm(milliseconds(5), [&fired] { ++fired; }, "rearm");
    t.cancel();
  }
  const perf::AllocTotals before = perf::thread_alloc_totals();
  for (int i = 0; i < 10'000; ++i) {
    t.arm(milliseconds(5 + i % 7), [&fired] { ++fired; }, "rearm");
    t.cancel();
  }
  const perf::AllocTotals d = perf::thread_alloc_totals() - before;
  EXPECT_EQ(d.allocs, 0u);
  EXPECT_EQ(d.frees, 0u);
  t.arm(milliseconds(5), [&fired] { ++fired; });
  loop.run();
  EXPECT_EQ(fired, 1);
}

TEST(Timer, DestructorCancels) {
  EventLoop loop;
  bool fired = false;
  {
    Timer t(loop);
    t.arm(milliseconds(5), [&] { fired = true; });
  }
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(TimeHelpers, Conversions) {
  EXPECT_EQ(seconds(1), milliseconds(1000));
  EXPECT_EQ(milliseconds(1), microseconds(1000));
  EXPECT_DOUBLE_EQ(to_seconds(milliseconds(2500)), 2.5);
  EXPECT_EQ(from_seconds(0.25), milliseconds(250));
  EXPECT_DOUBLE_EQ(to_milliseconds(microseconds(1500)), 1.5);
}

}  // namespace
}  // namespace tracemod::sim
