// Synthetic destination patterns (thesis Table 4.1 and §4.6).
//
// The permutations describe communication kernels of numerical programs:
//   bit reversal      d_i = s_(n-1-i)
//   perfect shuffle   d_i = s_((i-1) mod n)   (left rotation of the bits)
//   matrix transpose  d_i = s_((i+n/2) mod n)
// plus the Uniform pattern that draws a random destination per message.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "util/random.hpp"
#include "util/types.hpp"

namespace prdrb {

// --- bit-permutation helpers (node count must be a power of two) ---

/// Reverse the low `bits` bits of `v`.
std::uint32_t bit_reverse(std::uint32_t v, int bits);

/// Rotate the low `bits` bits of `v` left by one (perfect shuffle).
std::uint32_t bit_rotate_left(std::uint32_t v, int bits);

/// Rotate the low `bits` bits of `v` by `bits`/2 (matrix transpose).
std::uint32_t bit_transpose(std::uint32_t v, int bits);

/// log2 of a power-of-two node count; asserts on non-powers.
int log2_exact(int n);

/// Destination mapping used by a traffic source.
class DestinationPattern {
 public:
  virtual ~DestinationPattern() = default;

  /// Destination for a message from `src`. `rng` is only consulted by
  /// randomized patterns (Uniform).
  virtual NodeId destination(NodeId src, Rng& rng) const = 0;

  /// Whether destination(src) is invariant over time ("the destination
  /// nodes remain invariable throughout the pattern", §4.6).
  virtual bool fixed() const { return true; }

  virtual std::string name() const = 0;
};

class UniformPattern final : public DestinationPattern {
 public:
  explicit UniformPattern(int num_nodes) : num_nodes_(num_nodes) {}
  NodeId destination(NodeId src, Rng& rng) const override;
  bool fixed() const override { return false; }
  std::string name() const override { return "uniform"; }

 private:
  int num_nodes_;
};

class BitReversalPattern final : public DestinationPattern {
 public:
  explicit BitReversalPattern(int num_nodes);
  NodeId destination(NodeId src, Rng&) const override;
  std::string name() const override { return "bit-reversal"; }

 private:
  int bits_;
};

class PerfectShufflePattern final : public DestinationPattern {
 public:
  explicit PerfectShufflePattern(int num_nodes);
  NodeId destination(NodeId src, Rng&) const override;
  std::string name() const override { return "perfect-shuffle"; }

 private:
  int bits_;
};

class MatrixTransposePattern final : public DestinationPattern {
 public:
  explicit MatrixTransposePattern(int num_nodes);
  NodeId destination(NodeId src, Rng&) const override;
  std::string name() const override { return "matrix-transpose"; }

 private:
  int bits_;
};

// --- additional standard kernels from the interconnection-network
//     literature (Duato et al. Ch. 9 / Dally & Towles Ch. 3), beyond the
//     Table 4.1 set ---

/// d_i = NOT s_i : every node talks to its topological opposite.
class BitComplementPattern final : public DestinationPattern {
 public:
  explicit BitComplementPattern(int num_nodes);
  NodeId destination(NodeId src, Rng&) const override;
  std::string name() const override { return "bit-complement"; }

 private:
  int bits_;
};

/// d = (s + N/2 - 1) mod N : adversarial for rings/tori (near-halfway
/// shifts keep every link in one direction busy).
class TornadoPattern final : public DestinationPattern {
 public:
  explicit TornadoPattern(int num_nodes) : num_nodes_(num_nodes) {}
  NodeId destination(NodeId src, Rng&) const override;
  std::string name() const override { return "tornado"; }

 private:
  int num_nodes_;
};

/// d = (s + 1) mod N : pure nearest-neighbour shift.
class NeighborPattern final : public DestinationPattern {
 public:
  explicit NeighborPattern(int num_nodes) : num_nodes_(num_nodes) {}
  NodeId destination(NodeId src, Rng&) const override;
  std::string name() const override { return "neighbor"; }

 private:
  int num_nodes_;
};

/// Butterfly: swap the most and least significant address bits.
class ButterflyPattern final : public DestinationPattern {
 public:
  explicit ButterflyPattern(int num_nodes);
  NodeId destination(NodeId src, Rng&) const override;
  std::string name() const override { return "butterfly"; }

 private:
  int bits_;
};

/// d = (s + group_nodes) mod N : every terminal targets its peer in the
/// next group of a dragonfly (group_nodes = a*p terminals per group). The
/// classic adversarial permutation: all minimal traffic from one group
/// funnels onto the q parallel global channels toward the next group, so
/// minimal routing saturates at q*h/a of capacity while Valiant/UGAL spread
/// the load over every group. Constructed by the scenario layer, which
/// knows the group size (like the hot-spot layouts).
class GroupShiftPattern final : public DestinationPattern {
 public:
  GroupShiftPattern(int num_nodes, int group_nodes)
      : num_nodes_(num_nodes), group_nodes_(group_nodes) {}
  NodeId destination(NodeId src, Rng&) const override;
  std::string name() const override { return "adversarial-group"; }

 private:
  int num_nodes_;
  int group_nodes_;
};

/// One named pattern of make_pattern's table.
struct NamedPattern {
  std::string_view name;
  /// A bit permutation: defined on a power-of-two node count only.
  bool needs_power_of_two;
  std::unique_ptr<DestinationPattern> (*make)(int num_nodes);
};

/// Every pattern make_pattern builds: Table 4.1 ("uniform", "bit-reversal",
/// "perfect-shuffle", "matrix-transpose") plus "bit-complement", "tornado",
/// "neighbor" and "butterfly".
std::span<const NamedPattern> pattern_table();

/// Factory by name (used by benches to sweep patterns) over
/// pattern_table(). Throws std::invalid_argument on an unknown name and on
/// a bit permutation over a node count that is not a power of two.
std::unique_ptr<DestinationPattern> make_pattern(const std::string& name,
                                                 int num_nodes);

}  // namespace prdrb
