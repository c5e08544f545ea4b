#include "net/mesh_nd.hpp"

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <sstream>

namespace prdrb {

namespace {

// Signed minimal displacement from coordinate `from` to `to` along a
// dimension of `extent` (the shorter way on a torus, ties going positive; a
// 2-wide ring never wraps).
int axis_delta(int from, int to, int extent, bool wrap) {
  int d = to - from;
  if (!wrap || extent <= 2) return d;
  if (d > extent / 2) d -= extent;
  if (d < -(extent - 1) / 2) d += extent;
  return d;
}

}  // namespace

MeshND::MeshND(std::vector<int> dims, bool wraparound)
    : dims_(std::move(dims)), wraparound_(wraparound) {
  assert(!dims_.empty());
  strides_.resize(dims_.size());
  total_ = 1;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    assert(dims_[i] >= 1);
    strides_[i] = total_;
    total_ *= dims_[i];
  }
  assert(total_ >= 2);
  coords_.reserve(static_cast<std::size_t>(total_) * dims_.size());
  for (RouterId r = 0; r < total_; ++r) {
    for (std::size_t i = 0; i < dims_.size(); ++i) {
      coords_.push_back((r / strides_[i]) % dims_[i]);
    }
  }
}

RouterId MeshND::at(std::span<const int> coords) const {
  assert(coords.size() == dims_.size());
  RouterId r = 0;
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    assert(coords[i] >= 0 && coords[i] < dims_[i]);
    r += coords[i] * strides_[i];
  }
  return r;
}

PortTarget MeshND::neighbor(RouterId r, int port) const {
  const int dim = port / 2;
  if (dim >= dimensions()) return PortTarget{};
  const int step = (port % 2 == 0) ? 1 : -1;
  const int extent = dims_[static_cast<std::size_t>(dim)];
  if (extent == 1) return PortTarget{};  // degenerate dimension
  int c = coord(r, dim) + step;
  if (wraparound_) {
    c = (c + extent) % extent;
  } else if (c < 0 || c >= extent) {
    return PortTarget{};
  }
  const RouterId other =
      r + (c - coord(r, dim)) * strides_[static_cast<std::size_t>(dim)];
  // The reverse link is the opposite-direction port of the same dimension.
  return PortTarget{other, port ^ 1};
}

void MeshND::minimal_ports(RouterId r, NodeId target,
                           std::vector<int>& out) const {
  const int* from = row(r);
  const int* to = row(node_router(target));
  for (int dim = 0; dim < dimensions(); ++dim) {
    const int d = axis_delta(from[dim], to[dim], extent(dim), wraparound_);
    if (d != 0) out.push_back(d > 0 ? 2 * dim : 2 * dim + 1);
  }
}

int MeshND::distance(NodeId a, NodeId b) const {
  const int* ca = row(node_router(a));
  const int* cb = row(node_router(b));
  int sum = 0;
  for (int dim = 0; dim < dimensions(); ++dim) {
    sum += std::abs(axis_delta(ca[dim], cb[dim], extent(dim), wraparound_));
  }
  return sum;
}

void MeshND::msp_candidates(NodeId src, NodeId dst, int ring,
                            std::vector<MspCandidate>& out) const {
  // Thesis §3.2.3 / Fig. 3.6: IN1 ranges over terminals at hop distance
  // `ring` around the source, IN2 around the destination. MSP segments are
  // routed minimally, so any pair yields a valid multi-step path. Appends
  // into the caller's buffer; thread_local scratch keeps the enumeration
  // allocation-free once warm.
  static thread_local std::vector<NodeId> near_src;
  static thread_local std::vector<NodeId> near_dst;
  near_src.clear();
  near_dst.clear();
  // One pass over the coordinate table, both distances per row. The
  // members are read into locals first: the appends could alias them, which
  // would reload them on every row.
  const int dims = dimensions();
  const int* extents = dims_.data();
  const bool wrap = wraparound_;
  const int* s = row(src);
  const int* d = row(dst);
  const int* c = coords_.data();
  for (NodeId n = 0; n < total_; ++n, c += dims) {
    if (n == src || n == dst) continue;
    int to_src = 0;
    int to_dst = 0;
    for (int i = 0; i < dims; ++i) {
      to_src += std::abs(axis_delta(s[i], c[i], extents[i], wrap));
      to_dst += std::abs(axis_delta(d[i], c[i], extents[i], wrap));
    }
    if (to_src == ring) near_src.push_back(n);
    if (to_dst == ring) near_dst.push_back(n);
  }
  const std::size_t base = out.size();
  for (NodeId a : near_src) {
    for (NodeId b : near_dst) {
      if (a != b) out.push_back(MspCandidate{a, b});
    }
  }
  // Prefer the shortest detours so early expansions stay near-minimal
  // (§3.2.6: "if paths are long in hops ... shortest paths are selected").
  // Every candidate's first and last segments are `ring` hops long, so the
  // middle segment alone orders the path lengths; ties go to the
  // lexicographic (in1, in2) order the pairs were enumerated in.
  std::sort(out.begin() + static_cast<long>(base), out.end(),
            [&](const MspCandidate& l, const MspCandidate& r) {
              const int ll = distance(l.in1, l.in2);
              const int lr = distance(r.in1, r.in2);
              if (ll != lr) return ll < lr;
              if (l.in1 != r.in1) return l.in1 < r.in1;
              return l.in2 < r.in2;
            });
  // Bound the per-ring fan-out: DRB opens paths one at a time, so a modest
  // ordered candidate set per ring suffices.
  if (out.size() - base > 24) out.resize(base + 24);
}

std::string MeshND::name() const {
  std::ostringstream os;
  os << (wraparound_ ? "torus" : "mesh");
  for (std::size_t i = 0; i < dims_.size(); ++i) {
    os << (i ? "x" : "-") << dims_[i];
  }
  return os.str();
}

}  // namespace prdrb
