// Helpers shared by the gtest suites: the fixed tiny topology most tests
// run on, and hand-shaping of a session's tree.
#pragma once

#include "net/topology.h"
#include "overlay/tree.h"
#include "rand/rng.h"

namespace omcast::test {

// The seed-1 tiny GT-ITM topology, generated once per test binary
// (topologies are immutable, so tests can share it).
inline const net::Topology& TinyTopology() {
  static const net::Topology topology = [] {
    rnd::Rng rng(1);
    return net::Topology::Generate(net::TinyTopologyParams(), rng);
  }();
  return topology;
}

// Moves `child`, with its subtree, under `parent` unless it is there.
inline void Reparent(overlay::Tree& tree, overlay::NodeId child,
                     overlay::NodeId parent) {
  if (tree.Parent(child) == parent) return;
  tree.Detach(child);
  tree.Attach(parent, child);
}

}  // namespace omcast::test
