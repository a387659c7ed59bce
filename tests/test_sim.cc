#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <utility>
#include <vector>

namespace omcast::sim {
namespace {

TEST(Simulator, StartsAtTimeZero) {
  Simulator s;
  EXPECT_EQ(s.now(), 0.0);
  EXPECT_EQ(s.pending_count(), 0u);
  EXPECT_EQ(s.executed_count(), 0u);
}

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.ScheduleAt(3.0, [&] { order.push_back(3); });
  s.ScheduleAt(1.0, [&] { order.push_back(1); });
  s.ScheduleAt(2.0, [&] { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), 3.0);
}

TEST(Simulator, SameTimeEventsRunFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) s.ScheduleAt(5.0, [&, i] { order.push_back(i); });
  s.Run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, ScheduleAfterUsesCurrentTime) {
  Simulator s;
  double fired_at = -1.0;
  s.ScheduleAt(10.0, [&] {
    s.ScheduleAfter(5.0, [&] { fired_at = s.now(); });
  });
  s.Run();
  EXPECT_EQ(fired_at, 15.0);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator s;
  bool fired = false;
  const EventId id = s.ScheduleAt(1.0, [&] { fired = true; });
  EXPECT_TRUE(s.IsPending(id));
  EXPECT_TRUE(s.Cancel(id));
  EXPECT_FALSE(s.IsPending(id));
  EXPECT_FALSE(s.Cancel(id));  // second cancel is a no-op
  s.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(s.executed_count(), 0u);
}

TEST(Simulator, CancelOfFiredEventReturnsFalse) {
  Simulator s;
  const EventId id = s.ScheduleAt(1.0, [] {});
  s.Run();
  EXPECT_FALSE(s.Cancel(id));
}

TEST(Simulator, CancelInvalidIdIsSafe) {
  Simulator s;
  EXPECT_FALSE(s.Cancel(kInvalidEventId));
}

TEST(Simulator, RunUntilAdvancesClockPastLastEvent) {
  Simulator s;
  int count = 0;
  s.ScheduleAt(1.0, [&] { ++count; });
  s.ScheduleAt(9.0, [&] { ++count; });
  s.RunUntil(5.0);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(s.now(), 5.0);  // clock lands exactly on the boundary
  s.RunUntil(20.0);
  EXPECT_EQ(count, 2);
  EXPECT_EQ(s.now(), 20.0);
}

TEST(Simulator, RunUntilIncludesBoundaryEvents) {
  Simulator s;
  bool fired = false;
  s.ScheduleAt(5.0, [&] { fired = true; });
  s.RunUntil(5.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, StopHaltsTheLoop) {
  Simulator s;
  int count = 0;
  s.ScheduleAt(1.0, [&] {
    ++count;
    s.Stop();
  });
  s.ScheduleAt(2.0, [&] { ++count; });
  s.Run();
  EXPECT_EQ(count, 1);
  s.Run();  // resumes with remaining events
  EXPECT_EQ(count, 2);
}

TEST(Simulator, EventsScheduledDuringRunExecute) {
  Simulator s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 100) s.ScheduleAfter(1.0, recurse);
  };
  s.ScheduleAt(0.0, recurse);
  s.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(s.now(), 99.0);
}

TEST(Simulator, CancelledHeadDoesNotBlockRunUntil) {
  Simulator s;
  const EventId id = s.ScheduleAt(1.0, [] {});
  bool fired = false;
  s.ScheduleAt(2.0, [&] { fired = true; });
  s.Cancel(id);
  s.RunUntil(3.0);
  EXPECT_TRUE(fired);
  EXPECT_EQ(s.pending_count(), 0u);
}

TEST(Simulator, ExecutedCountTracksCallbacks) {
  Simulator s;
  for (int i = 0; i < 7; ++i) s.ScheduleAt(static_cast<double>(i), [] {});
  s.Run();
  EXPECT_EQ(s.executed_count(), 7u);
}

TEST(Simulator, ZeroDelayEventRunsAtCurrentTime) {
  Simulator s;
  std::vector<int> order;
  s.ScheduleAt(1.0, [&] {
    order.push_back(1);
    s.ScheduleAfter(0.0, [&] { order.push_back(2); });
  });
  s.ScheduleAt(1.0, [&] { order.push_back(3); });
  s.Run();
  // The zero-delay event lands after the already-queued same-time event.
  EXPECT_EQ(order, (std::vector<int>{1, 3, 2}));
}

// Handle semantics under both queue kinds. The calendar queue recycles slab
// slots through a LIFO free list, so the event scheduled right after one
// fires or is cancelled lands in that event's slot: the old handle must not
// reach the new event.
class SimulatorHandles : public ::testing::TestWithParam<QueueKind> {};

TEST_P(SimulatorHandles, FiredHandleMissesTheEventThatReusedItsSlot) {
  Simulator s(GetParam());
  const EventId a = s.ScheduleAt(1.0, [] {});
  s.Run();
  bool b_fired = false;
  const EventId b = s.ScheduleAt(2.0, [&] { b_fired = true; });
  if (GetParam() == QueueKind::kCalendar) {
    ASSERT_EQ(b.slot, a.slot);
  }
  EXPECT_FALSE(s.IsPending(a));
  EXPECT_FALSE(s.Cancel(a));
  EXPECT_TRUE(s.IsPending(b));
  s.Run();
  EXPECT_TRUE(b_fired);
}

TEST_P(SimulatorHandles, CancelledHandleMissesTheEventThatReusedItsSlot) {
  Simulator s(GetParam());
  const EventId a = s.ScheduleAt(1.0, [] {});
  ASSERT_TRUE(s.Cancel(a));
  bool b_fired = false;
  const EventId b = s.ScheduleAt(1.0, [&] { b_fired = true; });
  if (GetParam() == QueueKind::kCalendar) {
    ASSERT_EQ(b.slot, a.slot);
  }
  EXPECT_FALSE(s.IsPending(a));
  EXPECT_FALSE(s.Cancel(a));
  s.Run();
  EXPECT_TRUE(b_fired);
}

TEST_P(SimulatorHandles, CancelFromTheEventsOwnCallbackIsANoOp) {
  Simulator s(GetParam());
  EventId self;
  EventId rearm;
  bool pending_inside = true;
  bool cancelled_inside = true;
  int rearm_fired = 0;
  self = s.ScheduleAt(1.0, [&] {
    // Re-arm first, so in calendar mode the new event takes this event's
    // freed slot before the stale self-cancel runs.
    rearm = s.ScheduleAfter(4.0, [&] { ++rearm_fired; });
    pending_inside = s.IsPending(self);
    cancelled_inside = s.Cancel(self);
  });
  s.Run();
  if (GetParam() == QueueKind::kCalendar) {
    EXPECT_EQ(rearm.slot, self.slot);
  }
  EXPECT_FALSE(pending_inside);
  EXPECT_FALSE(cancelled_inside);
  EXPECT_EQ(rearm_fired, 1);
  EXPECT_EQ(s.now(), 5.0);
}

INSTANTIATE_TEST_SUITE_P(
    BothQueues, SimulatorHandles,
    ::testing::Values(QueueKind::kCalendar, QueueKind::kBinaryHeap),
    [](const ::testing::TestParamInfo<QueueKind>& p) {
      return p.param == QueueKind::kCalendar ? "Calendar" : "Heap";
    });

// One simulator driven by a seeded op stream; records every value the
// handle API returns and every dispatched (time, id).
struct HandleDriver {
  explicit HandleDriver(QueueKind kind) : sim(kind), rng(7) {
    sim.SetTraceObserver(
        [this](Time t, std::uint64_t id) { fired.emplace_back(t, id); });
  }
  void Schedule(Time t) {
    const EventId id = sim.ScheduleAt(t, [this] { OnFire(); });
    handles.push_back(id);
    results.push_back(id.value);
  }
  // Every other event behaves like a heartbeat monitor: it cancels some
  // (often stale) handle and re-arms 4 s out.
  void OnFire() {
    if (rng() % 2 == 0) return;
    results.push_back(sim.Cancel(handles[rng() % handles.size()]));
    Schedule(sim.now() + 4.0);
  }
  EventId Pick(std::uint64_t arg) const {
    return arg % 50 == 0 ? kInvalidEventId : handles[arg % handles.size()];
  }

  Simulator sim;
  std::mt19937_64 rng;
  std::vector<EventId> handles;
  std::vector<std::pair<Time, std::uint64_t>> fired;
  std::vector<std::uint64_t> results;
};

TEST(SimulatorQueueKinds, CalendarAndHeapAgreeHandleByHandle) {
  HandleDriver cal(QueueKind::kCalendar);
  HandleDriver heap(QueueKind::kBinaryHeap);
  std::mt19937_64 ops(2006);
  for (HandleDriver* d : {&cal, &heap}) d->Schedule(1.0);
  for (int op = 0; op < 10000; ++op) {
    const std::uint64_t kind = ops() % 100;
    const std::uint64_t arg = ops();
    for (HandleDriver* d : {&cal, &heap}) {
      // Quarter-second grid: many events share a time.
      if (kind < 45) {
        d->Schedule(d->sim.now() + 0.25 * static_cast<double>(arg % 17));
      } else if (kind < 65) {
        d->results.push_back(d->sim.Cancel(d->Pick(arg)));
      } else if (kind < 80) {
        d->results.push_back(d->sim.IsPending(d->Pick(arg)));
      } else {
        d->sim.RunUntil(d->sim.now() + 0.25 * static_cast<double>(arg % 9));
        d->results.push_back(d->sim.pending_count());
      }
    }
    ASSERT_EQ(cal.handles.size(), heap.handles.size()) << "after op " << op;
  }
  for (HandleDriver* d : {&cal, &heap}) d->sim.Run();
  EXPECT_EQ(cal.results, heap.results);
  EXPECT_EQ(cal.fired, heap.fired);
  EXPECT_GT(cal.fired.size(), 2000u);  // the mix really dispatched
}

TEST(SimulatorDeath, SchedulingInThePastAborts) {
  Simulator s;
  s.ScheduleAt(5.0, [] {});
  s.Run();
  EXPECT_DEATH(s.ScheduleAt(1.0, [] {}), "past");
}

}  // namespace
}  // namespace omcast::sim
