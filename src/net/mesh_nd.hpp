// N-dimensional mesh / torus (k-ary n-cube, thesis §2.1.1: "meshes are
// rectangular matrix shaped, in a 2D or 3D configuration"; with wraparound
// they become the k-ary n-cube family — torus for n=2, hypercube for k=2).
// This is the only grid implementation: Mesh2D is a 2D view of it.
//
// One terminal per router; dimension-order minimal routing (the canonical
// candidate order exhausts dimension 0 first, XY routing in 2D).
//
// Torus note: minimal routing on wraparound rings has cyclic channel
// dependencies, so sustained saturation can wedge the lossless
// backpressure. The thesis evaluation only uses the open mesh — use
// moderate loads on wrapped configurations.
#pragma once

#include <span>

#include "net/topology.hpp"

namespace prdrb {

class MeshND : public Topology {
 public:
  /// `dims[i]` is the extent of dimension i (all >= 2 except trailing 1s);
  /// port 2*i steps +1 in dimension i, port 2*i+1 steps -1. A dimension of
  /// extent 1 leaves both of its ports unconnected.
  MeshND(std::vector<int> dims, bool wraparound = false);

  int dimensions() const { return static_cast<int>(dims_.size()); }
  int extent(int dim) const { return dims_[static_cast<std::size_t>(dim)]; }
  bool wraparound() const { return wraparound_; }

  // Each override is final so that the distance() calls inside
  // msp_candidates() bind directly, even through a Mesh2D.
  int num_nodes() const final { return total_; }
  int num_routers() const final { return total_; }
  int radix(RouterId) const final { return 2 * dimensions(); }
  PortTarget neighbor(RouterId r, int port) const final;
  RouterId node_router(NodeId n) const final { return n; }
  void minimal_ports(RouterId r, NodeId target,
                     std::vector<int>& out) const final;
  int distance(NodeId a, NodeId b) const final;
  int deterministic_choice(RouterId, NodeId, NodeId, int) const final {
    return 0;  // dimension-order routing
  }
  void msp_candidates(NodeId src, NodeId dst, int ring,
                      std::vector<MspCandidate>& out) const final;
  std::string name() const final;

  /// Coordinate of router `r` along dimension `dim`.
  int coord(RouterId r, int dim) const { return row(r)[dim]; }

  /// Router at the given coordinates.
  RouterId at(std::span<const int> coords) const;

 private:
  /// Router `r`'s coordinates, dimensions() of them.
  const int* row(RouterId r) const {
    return coords_.data() + static_cast<std::size_t>(r) * dims_.size();
  }

  /// Sets `out` to every router `ring` hops from `centre`, in id order (the
  /// order a scan over the routers lists them in), by walking the ring.
  void ring_routers(RouterId centre, int ring,
                    std::vector<NodeId>& out) const;

  std::vector<int> dims_;
  std::vector<int> strides_;
  // Every router's coordinates, dimensions() ints per router. distance()
  // and minimal_ports() read two rows per call, ring_routers() one, and a
  // coordinate derived from the strides costs two integer divisions
  // (DESIGN.md "Topology & path enumeration").
  std::vector<int> coords_;
  int total_;
  bool wraparound_;
};

}  // namespace prdrb
