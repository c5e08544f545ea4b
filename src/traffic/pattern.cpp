#include "traffic/pattern.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <iterator>
#include <stdexcept>

namespace prdrb {

int log2_exact(int n) {
  assert(n > 0 && (n & (n - 1)) == 0 && "node count must be a power of two");
  int bits = 0;
  while ((1 << bits) < n) ++bits;
  return bits;
}

std::uint32_t bit_reverse(std::uint32_t v, int bits) {
  std::uint32_t out = 0;
  for (int i = 0; i < bits; ++i) {
    out |= ((v >> i) & 1u) << (bits - 1 - i);
  }
  return out;
}

std::uint32_t bit_rotate_left(std::uint32_t v, int bits) {
  const std::uint32_t mask = (bits >= 32) ? ~0u : ((1u << bits) - 1);
  return ((v << 1) | (v >> (bits - 1))) & mask;
}

std::uint32_t bit_transpose(std::uint32_t v, int bits) {
  const int half = bits / 2;
  const std::uint32_t mask = (bits >= 32) ? ~0u : ((1u << bits) - 1);
  return ((v << half) | (v >> (bits - half))) & mask;
}

NodeId UniformPattern::destination(NodeId src, Rng& rng) const {
  if (num_nodes_ <= 1) return src;
  // Uniform over all nodes except the source itself.
  auto d = static_cast<NodeId>(rng.next_below(static_cast<std::uint64_t>(num_nodes_ - 1)));
  if (d >= src) ++d;
  return d;
}

BitReversalPattern::BitReversalPattern(int num_nodes)
    : bits_(log2_exact(num_nodes)) {}

NodeId BitReversalPattern::destination(NodeId src, Rng&) const {
  return static_cast<NodeId>(bit_reverse(static_cast<std::uint32_t>(src), bits_));
}

PerfectShufflePattern::PerfectShufflePattern(int num_nodes)
    : bits_(log2_exact(num_nodes)) {}

NodeId PerfectShufflePattern::destination(NodeId src, Rng&) const {
  return static_cast<NodeId>(bit_rotate_left(static_cast<std::uint32_t>(src), bits_));
}

MatrixTransposePattern::MatrixTransposePattern(int num_nodes)
    : bits_(log2_exact(num_nodes)) {}

NodeId MatrixTransposePattern::destination(NodeId src, Rng&) const {
  return static_cast<NodeId>(bit_transpose(static_cast<std::uint32_t>(src), bits_));
}

BitComplementPattern::BitComplementPattern(int num_nodes)
    : bits_(log2_exact(num_nodes)) {}

NodeId BitComplementPattern::destination(NodeId src, Rng&) const {
  const std::uint32_t mask = (bits_ >= 32) ? ~0u : ((1u << bits_) - 1);
  return static_cast<NodeId>(~static_cast<std::uint32_t>(src) & mask);
}

NodeId TornadoPattern::destination(NodeId src, Rng&) const {
  return static_cast<NodeId>((src + num_nodes_ / 2 - 1 + num_nodes_) %
                             num_nodes_);
}

NodeId NeighborPattern::destination(NodeId src, Rng&) const {
  return static_cast<NodeId>((src + 1) % num_nodes_);
}

ButterflyPattern::ButterflyPattern(int num_nodes)
    : bits_(log2_exact(num_nodes)) {}

NodeId ButterflyPattern::destination(NodeId src, Rng&) const {
  const auto v = static_cast<std::uint32_t>(src);
  const std::uint32_t lo = v & 1u;
  const std::uint32_t hi = (v >> (bits_ - 1)) & 1u;
  std::uint32_t out = v;
  out &= ~1u;
  out &= ~(1u << (bits_ - 1));
  out |= hi;               // old MSB becomes LSB
  out |= lo << (bits_ - 1);  // old LSB becomes MSB
  return static_cast<NodeId>(out);
}

NodeId GroupShiftPattern::destination(NodeId src, Rng&) const {
  return static_cast<NodeId>((src + group_nodes_) % num_nodes_);
}

namespace {

template <typename P>
std::unique_ptr<DestinationPattern> build(int num_nodes) {
  return std::make_unique<P>(num_nodes);
}

constexpr NamedPattern kPatterns[] = {
    {"uniform", false, build<UniformPattern>},
    {"bit-reversal", true, build<BitReversalPattern>},
    {"perfect-shuffle", true, build<PerfectShufflePattern>},
    {"matrix-transpose", true, build<MatrixTransposePattern>},
    {"bit-complement", true, build<BitComplementPattern>},
    {"tornado", false, build<TornadoPattern>},
    {"neighbor", false, build<NeighborPattern>},
    {"butterfly", true, build<ButterflyPattern>},
};

}  // namespace

std::span<const NamedPattern> pattern_table() { return kPatterns; }

std::unique_ptr<DestinationPattern> make_pattern(const std::string& name,
                                                 int num_nodes) {
  const auto* p = std::ranges::find(kPatterns, name, &NamedPattern::name);
  if (p == std::end(kPatterns)) {
    throw std::invalid_argument("unknown pattern: " + name);
  }
  if (p->needs_power_of_two &&
      !std::has_single_bit(static_cast<unsigned>(num_nodes))) {
    throw std::invalid_argument(name + " needs a power-of-two node count");
  }
  return p->make(num_nodes);
}

}  // namespace prdrb
