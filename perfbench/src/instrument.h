// Benchmark-side instrumentation of the simulator stack, measured from
// outside src/: spans around the calls the benchmark makes into each layer,
// pass-through decorators on the Protocol and MembershipOracle seams, and a
// counting TraceSink. None of it touches simulated time, RNG streams or
// event order, so a traced run must reproduce the untraced run's digest
// exactly (run.py checks this).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "overlay/session.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// Seconds elapsed since `t0` on the host clock.
double SecondsSince(Clock::time_point t0);

// Host-speed calibration. The benchmark's host may be a shared machine
// whose memory system slows by up to 2x for seconds to minutes while other
// tenants are busy, which moves every host time the benchmark reports. A
// fixed kernel -- random upserts into an open-addressing table allocated
// once, so it depends on no program code and no heap state -- runs in short
// slices on the workload's own thread: one whenever Tick() finds
// kTickIntervalS passed since the last slice, and Slice() on demand. The
// mean slice time over a rep, against kReferenceSliceS, gives the host's
// speed during that rep; run.py scales the rep's host times by it, so they
// read as seconds on a host running at the reference speed. Time spent in
// slices is excluded from every timing (Stopwatch).
class HostSpeed {
 public:
  // Slice time at the reference speed (a quiet 4-vCPU Xeon VM at 2.1 GHz).
  static constexpr double kReferenceSliceS = 0.0006;
  static constexpr double kTickIntervalS = 0.02;

  HostSpeed();

  void Tick();
  void Slice();

  double slice_s() const { return slice_s_; }  // time in slices so far
  long slices() const { return slices_; }
  // Resident size of the calibration table, part of the process's RSS.
  double table_mb() const;

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t value = 0;
  };
  std::vector<Slot> table_;
  std::uint64_t op_ = 0;
  Clock::time_point last_;
  double slice_s_ = 0.0;
  long slices_ = 0;
};

// Host seconds since construction, less the calibration slices run since.
class Stopwatch {
 public:
  explicit Stopwatch(const HostSpeed& hs)
      : hs_(hs), t0_(Clock::now()), s0_(hs.slice_s()) {}
  double Seconds() const {
    return std::chrono::duration<double>(Clock::now() - t0_).count() -
           (hs_.slice_s() - s0_);
  }

 private:
  const HostSpeed& hs_;
  Clock::time_point t0_;
  double s0_;
};

// In-memory span log. Begin/End nest: a span's parent is the span open when
// it began. Spans are only written out (WriteJsonl) after the run ends.
class SpanRecorder {
 public:
  struct Span {
    const char* name = nullptr;  // string literal
    std::int32_t parent = -1;    // index into spans(), -1 for a root
    std::int64_t start_ns = 0;   // relative to the recorder's epoch
    std::int64_t end_ns = 0;
  };

  SpanRecorder();

  // Opens a span and returns its index.
  std::int32_t Begin(const char* name);
  // Closes the innermost open span, which must be `index`.
  void End(std::int32_t index);

  // Durations in microseconds of every span named `name`.
  std::vector<double> DurationsUs(const char* name) const;

  // One JSON object per line: id, parent, name, start_us, dur_us.
  bool WriteJsonl(const std::string& path) const;

 private:
  std::int64_t NowNs() const;

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

// RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), index_(rec != nullptr ? rec->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::int32_t index_;
};

// Forwards every Protocol hook to `inner`, recording a "proto.try_attach"
// span per TryAttach call and the total host time spent in
// OnPrepopulated. Nothing downcasts session.protocol(), so the session can
// own the decorator in place of the protocol.
class TimedProtocol final : public omcast::overlay::Protocol {
 public:
  TimedProtocol(std::unique_ptr<omcast::overlay::Protocol> inner,
                SpanRecorder& spans);

  std::string name() const override { return inner_->name(); }
  bool TryAttach(omcast::overlay::Session& session,
                 omcast::overlay::NodeId id) override;
  void OnAttached(omcast::overlay::Session& session,
                  omcast::overlay::NodeId id) override;
  void OnDeparture(omcast::overlay::Session& session,
                   omcast::overlay::NodeId id) override;
  void OnOrphaned(omcast::overlay::Session& session,
                  omcast::overlay::NodeId id) override;
  void OnPrepopulated(omcast::overlay::Session& session,
                      omcast::overlay::NodeId id) override;
  void SetFaultPlane(omcast::sim::FaultPlane* fault_plane) override;
  void ExportCounters(omcast::obs::Registry& reg) const override;
  long WedgedLeases(omcast::sim::Time now) const override;

  double prepopulated_s() const { return prepopulated_s_; }

 private:
  std::unique_ptr<omcast::overlay::Protocol> inner_;
  SpanRecorder& spans_;
  double prepopulated_s_ = 0.0;
};

// Forwards KnownMembers to `inner`, recording a "membership.known_members"
// span per call.
class TimedOracle final : public omcast::overlay::MembershipOracle {
 public:
  TimedOracle(omcast::overlay::MembershipOracle& inner, SpanRecorder& spans)
      : inner_(inner), spans_(spans) {}

  std::vector<omcast::overlay::NodeId> KnownMembers(
      omcast::overlay::Session& session, omcast::overlay::NodeId requester,
      int k) override;

 private:
  omcast::overlay::MembershipOracle& inner_;
  SpanRecorder& spans_;
};

// Tallies the trace bus: emissions by kind (the obs layer's work count, and
// the packet_chaos admission count -- every admitted member either departs
// with kLeave or is alive at the end) and each member's latest playback
// regime.
class TraceTally final : public omcast::obs::TraceSink {
 public:
  explicit TraceTally(HostSpeed* speed = nullptr) : speed_(speed) {}
  void OnEvent(const omcast::obs::TraceEvent& ev) override;

  long total() const { return total_; }
  long Of(omcast::obs::EventKind kind) const;
  // Members whose playback entered the stalled regime at or before `since`
  // and never left it, not counting members that departed before
  // `departed_after`.
  long StalledSince(double since, double departed_after) const;

 private:
  struct Regime {
    int regime = 0;
    double since = 0.0;
    double departed_at = -1.0;
  };
  HostSpeed* speed_;
  std::vector<long> by_kind_;
  long total_ = 0;
  std::map<std::int64_t, Regime> regime_;
};

// p-quantile (0..1, nearest rank) of `v`; 0 for an empty sample.
double Quantile(std::vector<double> v, double p);

}  // namespace perfbench
