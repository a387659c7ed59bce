#include "instrument.h"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "util/check.h"

namespace perfbench {

using omcast::overlay::NodeId;
using omcast::overlay::Session;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

namespace {

std::uint64_t Mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

// 2^19 16-byte slots (8 MB, beyond the caches' share a core gets), filled
// to half; a slice is kSliceOps upserts at random keys.
constexpr std::size_t kTableSlots = std::size_t{1} << 19;
constexpr int kSliceOps = 20000;

}  // namespace

HostSpeed::HostSpeed() : table_(kTableSlots), last_(Clock::now()) {}

double HostSpeed::table_mb() const {
  return static_cast<double>(table_.size() * sizeof(Slot)) / (1024.0 * 1024.0);
}

void HostSpeed::Tick() {
  if (SecondsSince(last_) >= kTickIntervalS) Slice();
}

void HostSpeed::Slice() {
  const Clock::time_point t0 = Clock::now();
  constexpr std::uint64_t kMask = kTableSlots - 1;
  for (int i = 0; i < kSliceOps; ++i, ++op_) {
    const std::uint64_t key = Mix(op_) % (kTableSlots / 2) + 1;
    std::uint64_t h = Mix(key) & kMask;
    while (table_[h].key != 0 && table_[h].key != key) h = (h + 1) & kMask;
    table_[h].key = key;
    table_[h].value += op_;
  }
  last_ = Clock::now();
  slice_s_ += std::chrono::duration<double>(last_ - t0).count();
  ++slices_;
}

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

std::int64_t SpanRecorder::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

std::int32_t SpanRecorder::Begin(const char* name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  const auto index = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(s);
  open_.push_back(index);
  // Stamp last so the bookkeeping above is not charged to the span.
  spans_.back().start_ns = NowNs();
  return index;
}

void SpanRecorder::End(std::int32_t index) {
  const std::int64_t now = NowNs();
  omcast::util::Check(!open_.empty() && open_.back() == index,
                      "spans must close innermost first");
  spans_[static_cast<std::size_t>(index)].end_ns = now;
  open_.pop_back();
}

std::vector<double> SpanRecorder::DurationsUs(const char* name) const {
  std::vector<double> out;
  const std::string want(name);
  for (const Span& s : spans_)
    if (want == s.name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  return out;
}

bool SpanRecorder::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
        << s.name << "\",\"start_us\":" << s.start_ns / 1000
        << ",\"dur_us\":" << (s.end_ns - s.start_ns) / 1000 << "}\n";
  }
  return static_cast<bool>(out);
}

TimedProtocol::TimedProtocol(std::unique_ptr<omcast::overlay::Protocol> inner,
                             SpanRecorder& spans)
    : inner_(std::move(inner)), spans_(spans) {}

bool TimedProtocol::TryAttach(Session& session, NodeId id) {
  ScopedSpan span(&spans_, "proto.try_attach");
  return inner_->TryAttach(session, id);
}

void TimedProtocol::OnAttached(Session& session, NodeId id) {
  inner_->OnAttached(session, id);
}

void TimedProtocol::OnDeparture(Session& session, NodeId id) {
  inner_->OnDeparture(session, id);
}

void TimedProtocol::OnOrphaned(Session& session, NodeId id) {
  inner_->OnOrphaned(session, id);
}

void TimedProtocol::OnPrepopulated(Session& session, NodeId id) {
  const Clock::time_point t0 = Clock::now();
  inner_->OnPrepopulated(session, id);
  prepopulated_s_ += SecondsSince(t0);
}

void TimedProtocol::SetFaultPlane(omcast::sim::FaultPlane* fault_plane) {
  inner_->SetFaultPlane(fault_plane);
}

void TimedProtocol::ExportCounters(omcast::obs::Registry& reg) const {
  inner_->ExportCounters(reg);
}

long TimedProtocol::WedgedLeases(omcast::sim::Time now) const {
  return inner_->WedgedLeases(now);
}

std::vector<NodeId> TimedOracle::KnownMembers(Session& session,
                                              NodeId requester, int k) {
  ScopedSpan span(&spans_, "membership.known_members");
  return inner_.KnownMembers(session, requester, k);
}

void TraceTally::OnEvent(const omcast::obs::TraceEvent& ev) {
  if (speed_ != nullptr) speed_->Tick();
  const auto kind = static_cast<std::size_t>(ev.kind);
  if (kind >= by_kind_.size()) by_kind_.resize(kind + 1, 0);
  ++by_kind_[kind];
  ++total_;
  if (ev.kind == omcast::obs::EventKind::kPlaybackRegime) {
    regime_[ev.subject] = {static_cast<int>(ev.detail), ev.t, -1.0};
  } else if (ev.kind == omcast::obs::EventKind::kLeave) {
    const auto it = regime_.find(ev.subject);
    if (it != regime_.end()) it->second.departed_at = ev.t;
  }
}

long TraceTally::StalledSince(double since, double departed_after) const {
  long n = 0;
  for (const auto& [member, r] : regime_)
    if (r.regime == 2 && r.since <= since &&
        (r.departed_at < 0.0 || r.departed_at >= departed_after))
      ++n;
  return n;
}

long TraceTally::Of(omcast::obs::EventKind kind) const {
  const auto k = static_cast<std::size_t>(kind);
  return k < by_kind_.size() ? by_kind_[k] : 0;
}

double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  const std::size_t idx = rank == 0 ? 0 : std::min(rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

}  // namespace perfbench
