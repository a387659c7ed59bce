#include "stream/multi_tree.h"

#include <algorithm>

#include "proto/min_depth.h"
#include "util/check.h"

namespace omcast::stream {

using overlay::NodeId;
using overlay::Session;

namespace {

// The CER repair and outage timing of every description tree.
const StreamParams kRepair{};

}  // namespace

MultiTreeStream::MultiTreeStream(sim::Simulator& simulator,
                                 const net::Topology& topology,
                                 MultiTreeParams params, std::uint64_t seed)
    : sim_(simulator),
      params_(params),
      rng_(seed),
      bandwidth_dist_(rnd::PaperBandwidthDist()),
      lifetime_dist_(rnd::PaperLifetimeDist()) {
  util::Check(params_.trees >= 1, "need at least one tree");
  node_to_member_.resize(static_cast<std::size_t>(params_.trees));
  residual_.assign(static_cast<std::size_t>(params_.trees),
                   core::ResidualBandwidth(kRepair));
  for (int k = 0; k < params_.trees; ++k) {
    overlay::SessionParams sp;
    // Each member relays each 1/K-rate description with a 1/K uplink share,
    // so its per-tree out-degree stays floor(bandwidth); members are
    // injected with their full bandwidth value into every session.
    std::unique_ptr<overlay::Protocol> protocol =
        params_.make_protocol ? params_.make_protocol()
                              : std::make_unique<proto::MinDepthProtocol>();
    sessions_.push_back(std::make_unique<Session>(
        sim_, topology, std::move(protocol), sp,
        seed + 1000ull * static_cast<std::uint64_t>(k + 1)));
    Session* session = sessions_.back().get();
    const int tree = k;
    session->hooks().AddOnDeparture([this, session, tree](NodeId failed) {
      const double now = sim_.now();
      for (const NodeId orphan : session->tree().ChildrenOf(failed)) {
        double begin = now;
        double end = now + kRepair.detect_s + kRepair.rejoin_s;
        if (params_.cer_recovery) {
          // Shorten the outage to the stall CER cannot repair; the residual
          // stall bites around the playback deadline of the hole. Residual
          // bandwidths draw from the arrival process's RNG.
          const core::OutageResult outage = SimulateOrphanOutage(
              *session, orphan, failed, kRepair,
              residual_[static_cast<std::size_t>(tree)], rng_);
          begin = now + kRepair.buffer_s;
          end = begin + outage.starving_s;
        }
        if (end <= begin) continue;
        RecordOutage(tree, orphan, begin, end);
        session->tree().ForEachDescendant(orphan, [&](NodeId d) {
          RecordOutage(tree, d, begin, end);
        });
      }
    });
  }
}

void MultiTreeStream::RecordOutage(int tree, NodeId session_node, double begin,
                                   double end) {
  const auto& map = node_to_member_[static_cast<std::size_t>(tree)];
  if (map.size() <= static_cast<std::size_t>(session_node)) return;
  const int member = map[static_cast<std::size_t>(session_node)];
  if (member < 0) return;
  members_[static_cast<std::size_t>(member)]
      .outages[static_cast<std::size_t>(tree)]
      .push_back({begin, end});
  ++outages_;
}

void MultiTreeStream::StartArrivals(double rate_per_s) {
  util::Check(rate_per_s > 0.0, "arrival rate must be positive");
  arrival_rate_ = rate_per_s;
  arrivals_on_ = true;
  sim_.ScheduleAfter(rng_.ExponentialMean(1.0 / arrival_rate_),
                     [this] { Arrive(); });
}

void MultiTreeStream::StopArrivals() { arrivals_on_ = false; }

void MultiTreeStream::Arrive() {
  if (!arrivals_on_) return;
  sim_.ScheduleAfter(rng_.ExponentialMean(1.0 / arrival_rate_),
                     [this] { Arrive(); });
  // One draw, mirrored into every description tree.
  const double bandwidth = bandwidth_dist_.Sample(rng_);
  const double lifetime = lifetime_dist_.Sample(rng_);
  MemberRecord rec;
  rec.join = sim_.now();
  rec.depart = sim_.now() + lifetime;
  rec.outages.resize(static_cast<std::size_t>(params_.trees));
  const int member = static_cast<int>(members_.size());
  for (int k = 0; k < params_.trees; ++k) {
    const NodeId id = sessions_[static_cast<std::size_t>(k)]->InjectMember(
        bandwidth, lifetime);
    auto& map = node_to_member_[static_cast<std::size_t>(k)];
    if (map.size() <= static_cast<std::size_t>(id))
      map.resize(static_cast<std::size_t>(id) + 1, -1);
    map[static_cast<std::size_t>(id)] = member;
  }
  members_.push_back(std::move(rec));
}

namespace {

// Merges possibly-overlapping intervals clipped to [lo, hi].
std::vector<MultiTreeStream::Interval> MergeClip(
    std::vector<MultiTreeStream::Interval> v, double lo, double hi);

}  // namespace

void MultiTreeStream::Finalize(double begin_s, double end_s) {
  util::Check(begin_s < end_s, "empty measurement window");
  for (const MemberRecord& rec : members_) {
    const double lo = std::max(rec.join + kRepair.buffer_s, begin_s);
    const double hi = std::min(rec.depart, end_s);
    const double view = hi - lo;
    if (view <= 0.0) continue;

    // Per tree: merged, clipped outage intervals. Then a sweep counting how
    // many descriptions are simultaneously out.
    struct Edge {
      double t = 0.0;
      int delta = 0;
    };
    std::vector<Edge> edges;
    for (int k = 0; k < params_.trees; ++k) {
      for (const Interval& iv :
           MergeClip(rec.outages[static_cast<std::size_t>(k)], lo, hi)) {
        edges.push_back({iv.begin, +1});
        edges.push_back({iv.end, -1});
      }
    }
    std::sort(edges.begin(), edges.end(),
              [](const Edge& a, const Edge& b) { return a.t < b.t; });
    double degraded = 0.0;
    double stalled = 0.0;
    int coverage = 0;
    double prev = lo;
    for (const Edge& e : edges) {
      if (coverage >= 1) degraded += e.t - prev;
      if (coverage >= params_.trees) stalled += e.t - prev;
      prev = e.t;
      coverage += e.delta;
    }
    stall_.Add(std::min(1.0, stalled / view));
    degraded_.Add(std::min(1.0, degraded / view));
  }
}

namespace {

std::vector<MultiTreeStream::Interval> MergeClip(
    std::vector<MultiTreeStream::Interval> v, double lo, double hi) {
  std::vector<MultiTreeStream::Interval> out;
  std::sort(v.begin(), v.end(),
            [](const MultiTreeStream::Interval& a,
               const MultiTreeStream::Interval& b) { return a.begin < b.begin; });
  for (MultiTreeStream::Interval iv : v) {
    iv.begin = std::max(iv.begin, lo);
    iv.end = std::min(iv.end, hi);
    if (iv.end <= iv.begin) continue;
    if (!out.empty() && iv.begin <= out.back().end)
      out.back().end = std::max(out.back().end, iv.end);
    else
      out.push_back(iv);
  }
  return out;
}

}  // namespace

double MultiTreeStream::average_population() const {
  double sum = 0.0;
  for (const auto& s : sessions_) sum += s->alive_count();
  return sessions_.empty() ? 0.0 : sum / static_cast<double>(sessions_.size());
}

}  // namespace omcast::stream
