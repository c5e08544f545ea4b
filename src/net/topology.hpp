// Topology abstraction: physical interconnection graph plus the minimal
// routing relation, link classification, and the path-enumeration hooks the
// routing layer builds on.
//
// Concrete topologies: one grid class for the k-ary n-cube family, mesh,
// torus and hypercube in any number of dimensions (net/mesh_nd; Mesh2D is
// its 2D view for the hot-spot experiments, Table 4.2), the k-ary n-tree
// fat-tree (permutation and application experiments, Table 4.3), and the
// (a, g, h, p) dragonfly (net/dragonfly).
//
// Path-enumeration contract (shared by DRB and the UGAL-family baselines):
//   * minimal_ports / msp_candidates APPEND into caller-owned buffers in a
//     canonical deterministic order — no per-call allocation once the
//     buffer's capacity is warm (proven by the interposer tests).
//   * nonminimal_intermediate is the one entry point for non-minimal route
//     construction: Valiant/UGAL detours and DRB alternative paths both go
//     through intermediate terminals routed minimally per segment, so a
//     topology expresses its detour structure exactly once.
//   * link_class exposes the local/global/terminal link taxonomy to routing
//     heuristics and per-class observability splits.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace prdrb {

/// Far end of a unidirectional router-to-router link.
struct PortTarget {
  RouterId router = kInvalidRouter;
  int port = -1;  // input port index at the far router (same as its output)

  bool valid() const { return router != kInvalidRouter; }
  friend bool operator==(const PortTarget&, const PortTarget&) = default;
};

/// Candidate multi-step path: up to two intermediate terminals.
struct MspCandidate {
  NodeId in1 = kInvalidNode;
  NodeId in2 = kInvalidNode;
  friend bool operator==(const MspCandidate&, const MspCandidate&) = default;
};

/// Link taxonomy (dragonfly vocabulary, degenerate elsewhere): local links
/// stay inside a router group, global links cross groups, terminal links
/// attach processing nodes. Unconnected ports are kInvalid.
enum class LinkClass : std::uint8_t {
  kLocal = 0,
  kGlobal = 1,
  kTerminal = 2,
  kInvalid = 3,
};

/// Stable lower-case name ("local", "global", "terminal", "invalid").
const char* link_class_name(LinkClass c);

class Topology {
 public:
  virtual ~Topology() = default;

  virtual int num_nodes() const = 0;
  virtual int num_routers() const = 0;

  /// Number of inter-router ports at `r` (terminal links are separate).
  virtual int radix(RouterId r) const = 0;

  /// Far end of output port `port` at router `r`; invalid if unconnected.
  virtual PortTarget neighbor(RouterId r, int port) const = 0;

  /// Router a terminal is attached to.
  virtual RouterId node_router(NodeId n) const = 0;

  /// Minimal output ports at router `r` toward terminal `target`. Appends
  /// candidates to `out` in a canonical order; appends nothing when `target`
  /// is attached to `r` itself (local delivery).
  virtual void minimal_ports(RouterId r, NodeId target,
                             std::vector<int>& out) const = 0;

  /// Hop distance (number of router-to-router links) between the routers of
  /// two terminals along a minimal path.
  virtual int distance(NodeId a, NodeId b) const = 0;

  /// Deterministic choice among `n` minimal candidates at router `r` for a
  /// packet src->dst. Must be a pure function of its arguments so that the
  /// Deterministic policy always takes the same path per pair (§2.1.4).
  virtual int deterministic_choice(RouterId r, NodeId src, NodeId dst,
                                   int n) const;

  /// Class of output port `port` at router `r`. Default: every connected
  /// inter-router port is local, dangling ports are invalid. Reciprocal
  /// ports must share a class.
  virtual LinkClass link_class(RouterId r, int port) const;

  /// DRB metapath expansion (§3.2.3): append the candidate intermediate
  /// terminals at distance ring `ring` (1 = immediate neighbourhood of
  /// source/destination, growing outwards) to `out` in a canonical
  /// deterministic order. Appends nothing once the ring is exhausted; every
  /// ring beyond `num_nodes()` is exhausted. Existing contents of `out` are
  /// preserved — callers clear the buffer to reuse it allocation-free.
  virtual void msp_candidates(NodeId src, NodeId dst, int ring,
                              std::vector<MspCandidate>& out) const = 0;

  /// First-class non-minimal entry point (shared by Valiant, UGAL and DRB
  /// alternative paths): a deterministic pseudo-random intermediate terminal
  /// for a src -> IN -> dst detour, where each segment routes minimally.
  /// `salt` varies the draw (per message or per probe); the same arguments
  /// always yield the same terminal. Returns kInvalidNode when no useful
  /// detour exists (fewer than three terminals). Topologies override this
  /// to respect their structure — the dragonfly picks a terminal in a
  /// random *other group*, the default picks any third terminal.
  virtual NodeId nonminimal_intermediate(NodeId src, NodeId dst,
                                         std::uint64_t salt) const;

  virtual std::string name() const = 0;

 protected:
  /// Shared avalanche mix for the deterministic pseudo-random hooks.
  static std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c);
};

}  // namespace prdrb
