#include "net/mesh_nd.hpp"

#include <algorithm>
#include <array>
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

// One dimension of a walk around a centre router: the offsets axis_delta
// can return from the centre's coordinate, one per coordinate.
struct Axis {
  int centre;
  int extent;
  int stride;
  int lo;    // most negative offset
  int hi;    // most positive offset
  int tail;  // the farthest the axes after this one reach together
};

// Appends every router whose offsets along axes[0, n) sum in absolute value
// to `left`; `id` carries the strides of the offsets chosen so far (a 1-wide
// dimension's coordinate is always 0). Each offset maps to one coordinate,
// so no router is listed twice.
void walk_ring(const Axis* axes, std::size_t n, int left, RouterId id,
               std::vector<NodeId>& out) {
  const Axis& a = axes[0];
  // The later axes cover at most a.tail, so this one needs |d| >= need.
  const int need = left - a.tail;
  const int last = std::min(a.hi, left);
  for (int d = std::max(a.lo, -left); d <= last; ++d) {
    if (d > -need && d < need) {
      d = need;
      if (d > last) break;
    }
    int c = a.centre + d;
    if (c < 0) {
      c += a.extent;
    } else if (c >= a.extent) {
      c -= a.extent;
    }
    const RouterId r = id + c * a.stride;
    if (n == 1) {
      out.push_back(r);
    } else {
      walk_ring(axes + 1, n - 1, left - std::abs(d), r, out);
    }
  }
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

void MeshND::ring_routers(RouterId centre, int ring,
                          std::vector<NodeId>& out) const {
  // The walk's axes: every dimension wider than 1 (a 1-wide dimension only
  // has offset 0), and the farthest reach, the largest distance from the
  // centre.
  static thread_local std::vector<Axis> axes;
  axes.clear();
  const int* c = row(centre);
  for (int dim = 0; dim < dimensions(); ++dim) {
    const int e = extent(dim);
    if (e == 1) continue;
    Axis a{c[dim], e, strides_[static_cast<std::size_t>(dim)], -c[dim],
           e - 1 - c[dim], 0};
    if (wraparound_ && e > 2) {  // the shorter way round
      a.lo = -(e - 1) / 2;
      a.hi = e / 2;
    }
    axes.push_back(a);
  }
  int reach = 0;
  for (auto a = axes.rbegin(); a != axes.rend(); ++a) {
    a->tail = reach;
    reach += std::max(-a->lo, a->hi);
  }
  out.clear();
  if (ring < 1 || ring > reach) return;
  walk_ring(axes.data(), axes.size(), ring, 0, out);
  std::sort(out.begin(), out.end());
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
  ring_routers(node_router(src), ring, near_src);
  if (near_src.empty()) return;  // ring below 1 or past the farthest router
  ring_routers(node_router(dst), ring, near_dst);
  std::erase(near_src, dst);
  std::erase(near_dst, src);

  // Prefer the shortest detours so early expansions stay near-minimal
  // (§3.2.6: "if paths are long in hops ... shortest paths are selected"),
  // and bound the per-ring fan-out: DRB opens paths one at a time, so a
  // modest ordered candidate set per ring suffices. Every candidate's first
  // and last segments are `ring` hops long, so the middle segment alone
  // orders the path lengths; ties go to the lexicographic (in1, in2) order.
  // That order is total, so keeping the first kMaxCandidates pairs in a
  // bounded max-heap selects exactly what a full sort would keep.
  struct Ranked {
    int len;
    MspCandidate c;
  };
  constexpr std::size_t kMaxCandidates = 24;
  auto before = [](const Ranked& l, const Ranked& r) {
    if (l.len != r.len) return l.len < r.len;
    if (l.c.in1 != r.c.in1) return l.c.in1 < r.c.in1;
    return l.c.in2 < r.c.in2;
  };
  std::array<Ranked, kMaxCandidates> best;
  std::size_t kept = 0;
  for (NodeId a : near_src) {
    for (NodeId b : near_dst) {
      if (a == b) continue;
      const Ranked x{distance(a, b), MspCandidate{a, b}};
      if (kept < kMaxCandidates) {
        best[kept++] = x;
        if (kept == kMaxCandidates) {
          std::make_heap(best.begin(), best.end(), before);
        }
      } else if (before(x, best.front())) {
        std::pop_heap(best.begin(), best.end(), before);
        best.back() = x;
        std::push_heap(best.begin(), best.end(), before);
      }
    }
  }
  if (kept < kMaxCandidates) {
    std::sort(best.begin(), best.begin() + static_cast<long>(kept), before);
  } else {
    std::sort_heap(best.begin(), best.end(), before);
  }
  out.reserve(out.size() + kept);
  for (std::size_t i = 0; i < kept; ++i) out.push_back(best[i].c);
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
