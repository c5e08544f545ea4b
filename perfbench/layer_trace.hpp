// Per-layer tracing from outside the simulator.
//
// Timing decorators wrap the four virtual interfaces Network calls into
// (Topology, RoutingPolicy, RouterMonitor, NetworkObserver). Every spanned
// call is folded into per-layer aggregates as it closes (calls, total time,
// self time = total minus the direct children's totals); Simulator::run is
// the root span. A bounded systematic sample of raw spans keeps each span's
// parent and packet id. The cost of an empty span is calibrated once and
// taken out when self times are reported, so the tracing does not land on
// the layers it measures.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "net/network.hpp"
#include "net/topology.hpp"
#include "routing/policy.hpp"
#include "sim/simulator.hpp"

namespace perfbench {

enum class Layer : std::uint8_t {
  kRun,            // Simulator::run (root): kernel, pipeline, traffic drivers
  kMinimalPorts,   // Topology::minimal_ports
  kMspCandidates,  // Topology::msp_candidates (MSP enumeration)
  kSelectPort,     // RoutingPolicy::select_port (hop choice)
  kChoosePath,     // RoutingPolicy::choose_path (source choice)
  kOnAck,          // RoutingPolicy::on_ack (DRB ACK loop, predictive engine)
  kCfd,            // RouterMonitor::on_transmit (CongestionDetector)
  kObserver,       // NetworkObserver (MetricsCollector)
};
inline constexpr std::size_t kNumLayers = 8;

/// Metric-name stem of a layer ("routing.on_ack", ...).
const char* layer_name(Layer layer);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The span clock: the time-stamp counter on x86-64, which reads in a few
/// nanoseconds against ~20 for steady_clock; steady_clock elsewhere.
inline std::int64_t now_ticks() {
#if defined(__x86_64__)
  return static_cast<std::int64_t>(__rdtsc());
#else
  return now_ns();
#endif
}

/// Nanoseconds per now_ticks() tick, measured once against steady_clock.
double ns_per_tick();

struct LayerTotals {
  std::uint64_t calls = 0;
  std::uint64_t children = 0;  // spans that closed directly inside these
  std::int64_t total_ticks = 0;
  std::int64_t self_ticks = 0;  // total minus the direct children's time
};

/// One sampled span. `id` is the packet id of the call, 0 for calls that
/// carry none (choose_path, msp_candidates, message-level observer calls).
struct RawSpan {
  std::uint64_t seq = 0;
  std::uint64_t parent_seq = 0;  // 0 = no parent
  Layer layer = Layer::kRun;
  Layer parent_layer = Layer::kRun;
  std::uint64_t id = 0;
  std::int64_t start_ticks = 0;  // since the recorder was constructed
  std::int64_t dur_ticks = 0;
};

/// Calibrated cost of one empty span, in ticks. `inner` falls between its
/// two clock reads, so inside its own duration; `outer` is the rest, which
/// lands on the enclosing span.
struct SpanCost {
  double inner = 0;
  double outer = 0;
};

class SpanRecorder {
 public:
  /// Every kSampleStride-th span is kept raw, up to kSampleCap of them.
  static constexpr std::uint64_t kSampleStride = 1024;
  static constexpr std::size_t kSampleCap = 8192;

  SpanRecorder() : origin_(now_ticks()) {}

  /// Read `sim`'s queue size at every span start (sim.pending_peak).
  void watch(const prdrb::Simulator* sim) { sim_ = sim; }

  void begin(Layer layer, std::uint64_t id) {
    if (sim_) {
      const std::size_t pending = sim_->queue().size();
      if (pending > pending_peak_) pending_peak_ = pending;
    }
    Frame f;
    f.layer = layer;
    f.id = id;
    f.seq = next_seq_++;
    if (!stack_.empty()) {
      f.parent_seq = stack_.back().seq;
      f.parent_layer = stack_.back().layer;
    }
    f.start = now_ticks();
    stack_.push_back(f);
  }

  void end() {
    const std::int64_t t = now_ticks();
    const Frame f = stack_.back();
    stack_.pop_back();
    const std::int64_t dur = t - f.start;
    LayerTotals& s = totals_[static_cast<std::size_t>(f.layer)];
    ++s.calls;
    s.children += f.children;
    s.total_ticks += dur;
    s.self_ticks += dur - f.child_ticks;
    if (!stack_.empty()) {
      stack_.back().child_ticks += dur;
      ++stack_.back().children;
    }
    if (f.seq % kSampleStride == 0 && sample_.size() < kSampleCap) {
      sample_.push_back(RawSpan{f.seq, f.parent_seq, f.layer, f.parent_layer,
                                f.id, f.start - origin_, dur});
    }
  }

  void add_msp_candidates(std::size_t n) { msp_candidates_ += n; }

  const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<std::size_t>(layer)];
  }
  /// Self time in seconds, with the calibrated span cost taken out.
  double self_s(Layer layer, const SpanCost& cost) const;
  std::size_t pending_peak() const { return pending_peak_; }
  std::uint64_t msp_candidates() const { return msp_candidates_; }
  const std::vector<RawSpan>& sample() const { return sample_; }

 private:
  struct Frame {
    Layer layer = Layer::kRun;
    Layer parent_layer = Layer::kRun;
    std::uint64_t id = 0;
    std::uint64_t seq = 0;
    std::uint64_t parent_seq = 0;
    std::int64_t start = 0;
    std::int64_t child_ticks = 0;
    std::uint64_t children = 0;
  };

  const prdrb::Simulator* sim_ = nullptr;
  std::vector<Frame> stack_;
  std::array<LayerTotals, kNumLayers> totals_{};
  std::vector<RawSpan> sample_;
  std::uint64_t next_seq_ = 1;
  std::size_t pending_peak_ = 0;
  std::uint64_t msp_candidates_ = 0;
  std::int64_t origin_;
};

/// Times batches of `n` empty spans nested in a root span and returns the
/// per-span cost of the median batch.
SpanCost calibrate_span_cost(std::size_t n = 200000);

/// Writes the per-layer aggregates and the raw span sample as JSON.
void write_trace_json(std::ostream& os, const std::string& workload,
                      std::uint64_t seed, const SpanRecorder& rec,
                      const SpanCost& cost);

class Span {
 public:
  Span(SpanRecorder& rec, Layer layer, std::uint64_t id = 0) : rec_(rec) {
    rec_.begin(layer, id);
  }
  ~Span() { rec_.end(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanRecorder& rec_;
};

// --- timing decorators: forward every call, span the calls a layer metric
//     names ---

class TimedTopology final : public prdrb::Topology {
 public:
  TimedTopology(const prdrb::Topology& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  int num_nodes() const override { return inner_.num_nodes(); }
  int num_routers() const override { return inner_.num_routers(); }
  int radix(prdrb::RouterId r) const override { return inner_.radix(r); }
  prdrb::PortTarget neighbor(prdrb::RouterId r, int port) const override {
    return inner_.neighbor(r, port);
  }
  prdrb::RouterId node_router(prdrb::NodeId n) const override {
    return inner_.node_router(n);
  }
  void minimal_ports(prdrb::RouterId r, prdrb::NodeId target,
                     std::vector<int>& out) const override {
    Span s(rec_, Layer::kMinimalPorts);
    inner_.minimal_ports(r, target, out);
  }
  int distance(prdrb::NodeId a, prdrb::NodeId b) const override {
    return inner_.distance(a, b);
  }
  int deterministic_choice(prdrb::RouterId r, prdrb::NodeId src,
                           prdrb::NodeId dst, int n) const override {
    return inner_.deterministic_choice(r, src, dst, n);
  }
  prdrb::LinkClass link_class(prdrb::RouterId r, int port) const override {
    return inner_.link_class(r, port);
  }
  void msp_candidates(prdrb::NodeId src, prdrb::NodeId dst, int ring,
                      std::vector<prdrb::MspCandidate>& out) const override {
    const std::size_t before = out.size();
    {
      Span s(rec_, Layer::kMspCandidates);
      inner_.msp_candidates(src, dst, ring, out);
    }
    rec_.add_msp_candidates(out.size() - before);
  }
  prdrb::NodeId nonminimal_intermediate(prdrb::NodeId src, prdrb::NodeId dst,
                                        std::uint64_t salt) const override {
    return inner_.nonminimal_intermediate(src, dst, salt);
  }
  std::string name() const override { return inner_.name(); }

 private:
  const prdrb::Topology& inner_;
  SpanRecorder& rec_;
};

class TimedPolicy final : public prdrb::RoutingPolicy {
 public:
  TimedPolicy(prdrb::RoutingPolicy& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  void attach(prdrb::Network& net) override {
    RoutingPolicy::attach(net);
    inner_.attach(net);
  }
  int select_port(prdrb::RouterId r, const prdrb::Packet& p,
                  std::span<const int> candidates) override {
    Span s(rec_, Layer::kSelectPort, p.id);
    return inner_.select_port(r, p, candidates);
  }
  prdrb::PathChoice choose_path(prdrb::NodeId src, prdrb::NodeId dst,
                                prdrb::SimTime now) override {
    Span s(rec_, Layer::kChoosePath);
    return inner_.choose_path(src, dst, now);
  }
  void on_ack(prdrb::NodeId at, const prdrb::Packet& ack,
              prdrb::SimTime now) override {
    Span s(rec_, Layer::kOnAck, ack.id);
    inner_.on_ack(at, ack, now);
  }
  void on_message_sent(prdrb::NodeId src, prdrb::NodeId dst,
                       std::uint64_t message_id, const prdrb::PathChoice& path,
                       prdrb::SimTime now) override {
    inner_.on_message_sent(src, dst, message_id, path, now);
  }
  bool wants_acks() const override { return inner_.wants_acks(); }
  std::string name() const override { return inner_.name(); }

 private:
  prdrb::RoutingPolicy& inner_;
  SpanRecorder& rec_;
};

class TimedMonitor final : public prdrb::RouterMonitor {
 public:
  TimedMonitor(prdrb::RouterMonitor& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  void on_transmit(prdrb::Network& net, prdrb::RouterId r, int port,
                   prdrb::Packet& head, prdrb::SimTime wait,
                   const std::deque<prdrb::Packet*>& queue) override {
    Span s(rec_, Layer::kCfd, head.id);
    inner_.on_transmit(net, r, port, head, wait, queue);
  }

 private:
  prdrb::RouterMonitor& inner_;
  SpanRecorder& rec_;
};

class TimedObserver final : public prdrb::NetworkObserver {
 public:
  TimedObserver(prdrb::NetworkObserver& inner, SpanRecorder& rec)
      : inner_(inner), rec_(rec) {}

  void on_packet_delivered(const prdrb::Packet& p,
                           prdrb::SimTime now) override {
    Span s(rec_, Layer::kObserver, p.id);
    inner_.on_packet_delivered(p, now);
  }
  void on_message_delivered(prdrb::NodeId src, prdrb::NodeId dst,
                            std::int64_t bytes, prdrb::SimTime inject_time,
                            prdrb::SimTime now) override {
    Span s(rec_, Layer::kObserver);
    inner_.on_message_delivered(src, dst, bytes, inject_time, now);
  }
  void on_port_wait(prdrb::RouterId r, int port, prdrb::SimTime wait,
                    prdrb::SimTime now) override {
    Span s(rec_, Layer::kObserver);
    inner_.on_port_wait(r, port, wait, now);
  }
  void on_message_injected(prdrb::NodeId src, prdrb::NodeId dst,
                           std::int64_t bytes, prdrb::SimTime now) override {
    Span s(rec_, Layer::kObserver);
    inner_.on_message_injected(src, dst, bytes, now);
  }
  void on_packet_forwarded(const prdrb::Packet& p, prdrb::RouterId r,
                           prdrb::SimTime now) override {
    Span s(rec_, Layer::kObserver, p.id);
    inner_.on_packet_forwarded(p, r, now);
  }

 private:
  prdrb::NetworkObserver& inner_;
  SpanRecorder& rec_;
};

}  // namespace perfbench
