#include "layer_trace.hpp"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <ostream>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kRun: return "run";
    case Layer::kMinimalPorts: return "topology.minimal_ports";
    case Layer::kMspCandidates: return "topology.msp_candidates";
    case Layer::kSelectPort: return "routing.select_port";
    case Layer::kChoosePath: return "routing.choose_path";
    case Layer::kOnAck: return "routing.on_ack";
    case Layer::kCfd: return "cfd.on_transmit";
    case Layer::kObserver: return "metrics.observer";
  }
  return "unknown";
}

double ns_per_tick() {
  static const double rate = [] {
    const std::int64_t ns0 = now_ns();
    const std::int64_t ticks0 = now_ticks();
    while (now_ns() - ns0 < 20'000'000) {
    }
    return static_cast<double>(now_ns() - ns0) /
           static_cast<double>(now_ticks() - ticks0);
  }();
  return rate;
}

double SpanRecorder::self_s(Layer layer, const SpanCost& cost) const {
  const LayerTotals& t = totals(layer);
  const double ticks = static_cast<double>(t.self_ticks) -
                       static_cast<double>(t.calls) * cost.inner -
                       static_cast<double>(t.children) * cost.outer;
  return std::max(ticks, 0.0) * ns_per_tick() * 1e-9;
}

SpanCost calibrate_span_cost(std::size_t n) {
  constexpr int kBatches = 5;
  // An empty simulator, so each span also pays the queue-size read.
  const prdrb::Simulator sim;
  std::vector<SpanCost> batches;
  for (int b = 0; b < kBatches; ++b) {
    SpanRecorder rec;
    rec.watch(&sim);
    rec.begin(Layer::kRun, 0);
    const std::int64_t t0 = now_ticks();
    for (std::size_t i = 0; i < n; ++i) {
      Span s(rec, Layer::kObserver, i);
    }
    const std::int64_t t1 = now_ticks();
    rec.end();
    const double spans = static_cast<double>(n);
    const double inner =
        static_cast<double>(rec.totals(Layer::kObserver).total_ticks) / spans;
    batches.push_back({inner, static_cast<double>(t1 - t0) / spans - inner});
  }
  std::sort(batches.begin(), batches.end(),
            [](const SpanCost& a, const SpanCost& b) {
              return a.inner + a.outer < b.inner + b.outer;
            });
  return batches[kBatches / 2];
}

void write_trace_json(std::ostream& os, const std::string& workload,
                      std::uint64_t seed, const SpanRecorder& rec,
                      const SpanCost& cost) {
  const double ns = ns_per_tick();
  os << std::setprecision(17);
  os << "{\"schema\": \"perfbench-trace-v1\", \"workload\": \"" << workload
     << "\", \"seed\": " << seed << ",\n \"span_cost_ns\": {\"inner\": "
     << cost.inner * ns << ", \"outer\": " << cost.outer * ns
     << "},\n \"pending_peak\": " << rec.pending_peak()
     << ", \"msp_candidates\": " << rec.msp_candidates()
     << ",\n \"layers\": [";
  for (std::size_t i = 0; i < kNumLayers; ++i) {
    const auto layer = static_cast<Layer>(i);
    const LayerTotals& t = rec.totals(layer);
    os << (i ? ",\n  " : "\n  ") << "{\"name\": \"" << layer_name(layer)
       << "\", \"calls\": " << t.calls << ", \"children\": " << t.children
       << ", \"total_s\": " << static_cast<double>(t.total_ticks) * ns * 1e-9
       << ", \"self_s\": " << rec.self_s(layer, cost) << "}";
  }
  os << "],\n \"sample_stride\": " << SpanRecorder::kSampleStride
     << ",\n \"spans\": [";
  bool first = true;
  for (const RawSpan& s : rec.sample()) {
    os << (first ? "\n  " : ",\n  ") << "{\"seq\": " << s.seq
       << ", \"parent\": " << s.parent_seq << ", \"layer\": \""
       << layer_name(s.layer) << "\", \"parent_layer\": \""
       << (s.parent_seq ? layer_name(s.parent_layer) : "") << "\", \"id\": "
       << s.id << ", \"start_ns\": "
       << std::llround(static_cast<double>(s.start_ticks) * ns)
       << ", \"dur_ns\": " << std::llround(static_cast<double>(s.dur_ticks) * ns)
       << "}";
    first = false;
  }
  os << "]}\n";
}

}  // namespace perfbench
