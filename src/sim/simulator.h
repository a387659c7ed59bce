// Single-threaded discrete-event simulation engine.
//
// The engine owns a virtual clock (seconds, double) and a pending-event set.
// Events scheduled for the same instant fire in scheduling order, which
// together with seeded RNGs makes every run bit-reproducible.
//
// Two queue implementations sit behind one dispatch contract:
//
//  - QueueKind::kCalendar (default): calendar queue over a pooled event slab
//    (sim/calendar_queue.h) -- O(1) amortized schedule/cancel/dispatch, no
//    per-event heap allocation at steady state. This is the mode that scales
//    to 10^6 members.
//  - QueueKind::kBinaryHeap: the original std::priority_queue binary heap
//    with an unordered_set cancellation ledger, kept verbatim as the
//    baseline the determinism tests and bench/scale_sweep A/B against.
//
// Both modes assign the same sequential EventIds and hand events over in the
// same (time, seq) order, so replay digests -- which hash (time, id) pairs --
// are bit-identical across modes; tests/test_determinism_replay.cc enforces
// this on real scenario cells.
//
// Cancellation is by EventId: timers such as ROST's per-node switching checks
// or CER repair timeouts are cancelled when the owning node departs. In
// calendar mode the handle also carries the event's slab slot, so Cancel and
// IsPending are one slot compare -- no id -> slot lookup on any path.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_set>
#include <vector>

#include "sim/calendar_queue.h"

namespace omcast::obs {
class SimProfiler;
}  // namespace omcast::obs

namespace omcast::sim {

// Opaque handle for a scheduled event; value-semantic and cheap to copy.
// `value` is the sequential id (what traces and replay digests hash);
// `slot` is where the calendar queue stores the event, -1 in heap mode.
// Equality compares `value` only.
struct EventId {
  std::uint64_t value = 0;
  std::int32_t slot = -1;
  friend bool operator==(EventId a, EventId b) { return a.value == b.value; }
};

// Returned by EventId-producing calls that may be "nothing scheduled".
inline constexpr EventId kInvalidEventId{0};

// Pending-event set implementation; see the header comment.
enum class QueueKind {
  kCalendar,
  kBinaryHeap,
};

class Simulator {
 public:
  using Callback = std::function<void()>;
  // Observes every executed event (fired after the clock advanced, before
  // the callback runs). Used by the seed-replay determinism test to build a
  // rolling hash of the event trace; must not mutate the simulation.
  using TraceObserver = std::function<void(Time t, std::uint64_t event_id)>;

  explicit Simulator(QueueKind kind = QueueKind::kCalendar) : kind_(kind) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  QueueKind queue_kind() const { return kind_; }

  // Current virtual time. Starts at 0.
  Time now() const { return now_; }

  // Schedules `cb` at absolute time `t` (must be >= now()). `tag` is an
  // optional event-type label for profiling (obs::SimProfiler); it must be a
  // string literal (or otherwise outlive the event) and never influences
  // scheduling order.
  EventId ScheduleAt(Time t, Callback cb, const char* tag = nullptr);

  // Schedules `cb` at now() + delay (delay must be >= 0).
  EventId ScheduleAfter(Time delay, Callback cb, const char* tag = nullptr);

  // Cancels a pending event. Returns true if the event was still pending.
  // Safe to call with an already-fired or invalid id.
  bool Cancel(EventId id);

  // True if `id` is scheduled and not yet fired or cancelled.
  bool IsPending(EventId id) const;

  // Runs until the queue is empty or Stop() is called.
  void Run();

  // Runs events with time <= t, then advances the clock to exactly t
  // (even if the queue still holds later events).
  void RunUntil(Time t);

  // Requests Run()/RunUntil() to return after the current callback.
  void Stop() { stopped_ = true; }

  // Number of callbacks executed so far (for tests and micro-benches).
  std::uint64_t executed_count() const { return executed_; }

  // Number of events currently pending.
  std::size_t pending_count() const {
    return kind_ == QueueKind::kCalendar ? calendar_.size() : pending_.size();
  }

  // Event-pool occupancy of the calendar queue (zeros in heap mode, which
  // has no pool). Surfaced through obs::SimProfiler and --profile tables.
  CalendarQueue::PoolStats pool_stats() const {
    return kind_ == QueueKind::kCalendar ? calendar_.pool_stats()
                                         : CalendarQueue::PoolStats{};
  }

  // Installs (or clears, with nullptr) the per-event trace observer.
  void SetTraceObserver(TraceObserver observer) {
    trace_ = std::move(observer);
  }

  // Installs (or clears, with nullptr) a profiler that brackets every
  // dispatched callback with wall-time measurement and queue-depth sampling,
  // and times the run loop itself (queue-operation cost included).
  // Profiling never touches sim time or event order, so it is safe to attach
  // to a deterministic run; the profiler must outlive Run()/RunUntil().
  void SetProfiler(obs::SimProfiler* profiler) { profiler_ = profiler; }

 private:
  struct Event {
    Time time = 0.0;
    std::uint64_t seq = 0;  // FIFO tie-break at equal times
    std::uint64_t id = 0;
    const char* tag = nullptr;  // profiling label; not owned
    Callback cb;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  // Pops and runs the next non-cancelled event; returns false if none left.
  bool RunOne();
  // Executes one popped event: clock advance, ordering DCHECKs, trace hook,
  // profiler bracketing. Shared by both queue modes.
  void Dispatch(Time time, std::uint64_t seq, std::uint64_t id,
                const char* tag, Callback cb);

  const QueueKind kind_;
  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_id_ = 1;  // 0 is kInvalidEventId
  std::uint64_t executed_ = 0;
  // Sequence number of the most recently executed event at the current
  // instant; used by the DCHECK tier to assert FIFO order at equal times.
  std::uint64_t last_seq_at_now_ = std::numeric_limits<std::uint64_t>::max();
  bool stopped_ = false;
  // kCalendar state.
  CalendarQueue calendar_;
  // kBinaryHeap state (the seed implementation, unchanged).
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  // Never iterated: membership-only cancellation ledger, so the hash order
  // cannot leak into protocol decisions.
  // omcast-lint: allow(unordered-iter)
  std::unordered_set<std::uint64_t> pending_;
  TraceObserver trace_;
  obs::SimProfiler* profiler_ = nullptr;  // not owned
};

}  // namespace omcast::sim
