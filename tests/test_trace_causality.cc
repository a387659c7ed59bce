// Causality invariants over the protocol trace: runs one chaos scenario
// (lossy control plane, heartbeat detection, ROST lock-lease handshakes,
// CER stripe repair, correlated + mid-repair kills) with a Tracer attached,
// then replays the event stream and checks the orderings the protocol
// promises:
//
//   * a node's lock leases never overlap -- a second grant cannot open
//     while an earlier lease is still outstanding, and lease serials are
//     strictly increasing per node;
//   * every committed switch falls inside the holder's own lease window,
//     so no two commits can race on the same ROST lock;
//   * every stripe repair_start traces back to a cer_group_formed with the
//     same group id, which itself traces back to the failed parent's leave.
//
// The tracer is sized so nothing is evicted (dropped() must stay 0);
// otherwise the checks would silently run on a suffix of the history.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <vector>

#include "exp/chaos.h"
#include "net/topology.h"
#include "obs/trace.h"
#include "test_support.h"

namespace omcast {
namespace {

using obs::EventKind;
using obs::TraceEvent;
using obs::Tracer;

struct TraceFixture {
  Tracer tracer{1u << 20};
  exp::ChaosResult result;
  std::vector<TraceEvent> events;
};

// One shared scenario run for every test in this file (the checks are all
// read-only over the same history).
const TraceFixture& Fixture() {
  static TraceFixture* fixture = [] {
    auto* f = new TraceFixture;
    const net::Topology& topology = test::TinyTopology();
    exp::ChaosConfig c;
    c.population = 80;
    c.warmup_s = 120.0;
    c.stream_s = 30.0;
    c.drain_s = 45.0;
    c.seed = 7;
    c.fault.loss_rate = 0.01;
    c.fault.dup_prob = 0.01;
    c.fault.jitter_s = 0.05;
    c.session.root_bandwidth = 20.0;  // force depth so failures orphan someone
    c.rost.switching_interval_s = 60.0;
    c.domain_kill_at_s = 5.0;
    c.domain_kill_index = 1;
    c.mid_repair_kill_at_s = 15.0;
    c.packet.packet_rate = 5.0;
    c.tracer = &f->tracer;
    f->result = exp::RunChaosScenario(topology, c);
    f->events = f->tracer.Events();
    return f;
  }();
  return *fixture;
}

TEST(TraceCausality, NothingWasEvictedFromTheRing) {
  const TraceFixture& f = Fixture();
  ASSERT_GT(f.events.size(), 0u) << "scenario produced no trace events";
  EXPECT_EQ(f.tracer.dropped(), 0u)
      << "ring overflowed; the causality checks below would only see a "
         "suffix of the history";
}

TEST(TraceCausality, TraceIsTimeOrdered) {
  const TraceFixture& f = Fixture();
  for (std::size_t i = 1; i < f.events.size(); ++i) {
    ASSERT_GE(f.events[i].t, f.events[i - 1].t)
        << "event id " << f.events[i].id << " went back in time";
    ASSERT_EQ(f.events[i].id, f.events[i - 1].id + 1);
  }
}

// Per-node lease bookkeeping replayed from the trace.
struct LeaseLedger {
  bool open = false;
  std::int64_t serial = 0;   // serial of the open lease
  std::int64_t last_serial = 0;
  double opened_at = 0.0;
};

TEST(TraceCausality, LeasesOnOneNodeNeverOverlap) {
  const TraceFixture& f = Fixture();
  std::map<std::int64_t, LeaseLedger> ledgers;  // subject node -> state
  long grants = 0;
  for (const TraceEvent& e : f.events) {
    LeaseLedger& led = ledgers[e.subject];
    switch (e.kind) {
      case EventKind::kLockGrant:
        ++grants;
        ASSERT_FALSE(led.open)
            << "node " << e.subject << " granted lease serial " << e.detail
            << " at t=" << e.t << " while serial " << led.serial
            << " (opened t=" << led.opened_at << ") was still outstanding";
        ASSERT_GT(e.detail, led.last_serial)
            << "node " << e.subject << " reused lease serial " << e.detail;
        led.open = true;
        led.serial = e.detail;
        led.last_serial = e.detail;
        led.opened_at = e.t;
        break;
      case EventKind::kLockRelease:
      case EventKind::kLockExpire:
        // Releases are delivered over the lossy plane; a stale one for an
        // already-superseded serial never reaches the trace (the serial
        // guard drops it), so a close must match the open lease exactly.
        ASSERT_TRUE(led.open)
            << "node " << e.subject << " closed serial " << e.detail
            << " at t=" << e.t << " with no lease open";
        ASSERT_EQ(e.detail, led.serial);
        led.open = false;
        break;
      default:
        break;
    }
  }
  EXPECT_GT(grants, 0) << "scenario never exercised the lease path";
}

TEST(TraceCausality, EveryCommitFallsInsideTheHoldersOwnLease) {
  // The holder self-leases when the handshake starts and the commit is
  // emitted before teardown releases it, so at commit time the holder's
  // open self-lease must exist. Two commits racing on one lock would make
  // one of them fall outside its window.
  const TraceFixture& f = Fixture();
  struct OpenLease {
    bool open = false;
    std::int64_t holder = -1;
  };
  std::map<std::int64_t, OpenLease> open;  // subject node -> open lease
  long commits = 0;
  for (const TraceEvent& e : f.events) {
    switch (e.kind) {
      case EventKind::kLockGrant:
        open[e.subject] = {true, e.peer};
        break;
      case EventKind::kLockRelease:
      case EventKind::kLockExpire:
        open[e.subject].open = false;
        break;
      case EventKind::kSwitchCommit: {
        ++commits;
        const auto it = open.find(e.subject);
        ASSERT_TRUE(it != open.end() && it->second.open &&
                    it->second.holder == e.subject)
            << "switch_commit by node " << e.subject << " at t=" << e.t
            << " outside its own lease window";
        break;
      }
      default:
        break;
    }
  }
  EXPECT_GT(commits, 0) << "scenario never committed a switch; the "
                           "invariant was checked vacuously";
}

TEST(TraceCausality, EveryRepairTracesBackToAGroupAndALeave) {
  const TraceFixture& f = Fixture();
  std::map<std::int64_t, std::uint64_t> last_leave;     // node -> event id
  std::map<std::int64_t, std::uint64_t> group_formed;   // group id -> event id
  std::map<std::int64_t, std::int64_t> group_failed;    // group id -> parent
  long repairs = 0;
  for (const TraceEvent& e : f.events) {
    switch (e.kind) {
      case EventKind::kLeave:
        last_leave[e.subject] = e.id;
        break;
      case EventKind::kCerGroupFormed: {
        group_formed[e.detail] = e.id;
        group_failed[e.detail] = e.peer;
        // The failed parent must already have departed.
        const auto leave = last_leave.find(e.peer);
        ASSERT_TRUE(leave != last_leave.end() && leave->second < e.id)
            << "group " << e.detail << " formed for parent " << e.peer
            << " with no prior leave";
        break;
      }
      case EventKind::kRepairStart: {
        ++repairs;
        const auto formed = group_formed.find(e.detail);
        ASSERT_TRUE(formed != group_formed.end() && formed->second < e.id)
            << "repair_start for unknown group " << e.detail;
        break;
      }
      case EventKind::kRepairFailover: {
        // A takeover belongs to an already-formed group too.
        ASSERT_TRUE(group_formed.contains(e.detail))
            << "failover for unknown group " << e.detail;
        break;
      }
      default:
        break;
    }
  }
  EXPECT_GT(repairs, 0) << "scenario never started a CER repair; the "
                           "invariant was checked vacuously";
}

TEST(TraceCausality, ScenarioStayedHealthy) {
  // The chaos harness's own invariants must hold with tracing attached
  // (instrumentation cannot perturb the run).
  const TraceFixture& f = Fixture();
  EXPECT_EQ(f.result.registry.at("chaos.wedged_leases"), 0);
  EXPECT_EQ(f.result.unrooted_members, 0);
}

}  // namespace
}  // namespace omcast
