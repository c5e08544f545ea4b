#include "obs/stream.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "metrics/map_render.hpp"
#include "net/network.hpp"
#include "obs/json.hpp"

namespace prdrb::obs {

namespace {

const char* class_name(StreamTelemetry::TrafficClass cls) {
  switch (cls) {
    case StreamTelemetry::TrafficClass::kData:
      return "data";
    case StreamTelemetry::TrafficClass::kAck:
      return "ack";
    case StreamTelemetry::TrafficClass::kPredictiveAck:
      return "predictive-ack";
  }
  return "data";
}

constexpr LinkClass kExportedClasses[] = {
    LinkClass::kLocal, LinkClass::kGlobal, LinkClass::kTerminal};

/// The "link_class" object shared by snapshots and the telemetry export.
void write_class_totals(JsonWriter& w, const StreamTelemetry& st) {
  w.key("link_class").begin_object();
  for (const LinkClass c : kExportedClasses) {
    const StreamTelemetry::ClassTotals ct = st.class_totals(c);
    w.key(link_class_name(c)).begin_object();
    w.field("links", ct.links);
    w.field("busy_s", ct.busy_s);
    w.field("stalls", ct.stalls);
    w.field("packets", ct.packets);
    w.end_object();
  }
  w.end_object();
}

/// One window aggregate as a compact [busy_s, stalls, packets] triple.
void write_agg(JsonWriter& w, const StreamTelemetry::WindowAgg& a) {
  w.begin_array();
  w.value(a.busy);
  w.value(static_cast<std::uint64_t>(a.stalls));
  w.value(static_cast<std::uint64_t>(a.packets));
  w.end_array();
}

}  // namespace

StreamTelemetry::StreamTelemetry(StreamConfig cfg) : cfg_(cfg) {
  // The rollup pops window PAIRS, so a ring must hold at least two; a
  // degenerate snapshot_every would divide by zero in roll().
  cfg_.ring_windows = std::max<std::size_t>(cfg_.ring_windows, 2);
  cfg_.rollup_levels = std::max(cfg_.rollup_levels, 0);
  cfg_.snapshot_every = std::max<std::size_t>(cfg_.snapshot_every, 1);
  if (!(cfg_.window_s > 0)) cfg_.window_s = 1e-3;
}

void StreamTelemetry::bind(const Network& net) {
  const std::size_t routers = static_cast<std::size_t>(net.num_routers());
  link_offset_.assign(routers + 1, 0);
  for (std::size_t r = 0; r < routers; ++r) {
    link_offset_[r + 1] =
        link_offset_[r] + net.router(static_cast<RouterId>(r)).ports.size();
  }
  links_.assign(link_offset_[routers], LinkState{});
  // Capture each link's class once: the split costs one byte per link and
  // an index into three running totals per hook.
  link_class_.assign(links_.size(), static_cast<std::uint8_t>(LinkClass::kLocal));
  for (auto& ct : class_totals_) ct = ClassTotals{};
  const Topology& topo = net.topology();
  for (std::size_t r = 0; r < routers; ++r) {
    for (std::size_t l = link_offset_[r]; l < link_offset_[r + 1]; ++l) {
      const LinkClass c = topo.link_class(
          static_cast<RouterId>(r), static_cast<int>(l - link_offset_[r]));
      link_class_[l] = static_cast<std::uint8_t>(c);
      ++class_totals_[static_cast<std::size_t>(c)].links;
    }
  }
  const std::size_t levels = 1 + static_cast<std::size_t>(cfg_.rollup_levels);
  data_.assign(levels, {});
  for (auto& level : data_) {
    level.assign(links_.size() * cfg_.ring_windows, WindowAgg{});
  }
  level_head_.assign(levels, 0);
  level_count_.assign(levels, 0);
  // The whole run's NDJSON and heatmap rows accumulate here; one large
  // reservation each keeps emission from reallocating every few windows.
  out_.reserve(1 << 16);
  heat_.clear();
  heat_.reserve(1 << 16);
  bound_ = true;
}

void StreamTelemetry::note_flow(LinkState& link, const Packet& p) {
  // ACK-family packets travel dst -> src of the flow they acknowledge;
  // key them in data-flow orientation so they match that flow's metapath
  // opens, but keep their own traffic class for the lead histograms.
  std::uint64_t key;
  TrafficClass cls;
  if (p.type == PacketType::kData) {
    key = flow_key(p.source, p.destination);
    cls = TrafficClass::kData;
  } else {
    key = flow_key(p.destination, p.source);
    cls = p.type == PacketType::kPredictiveAck ? TrafficClass::kPredictiveAck
                                               : TrafficClass::kAck;
  }
  for (const RecentFlow& f : link.recent) {
    if (f.key == key) return;
  }
  link.recent[link.recent_next] = RecentFlow{key, cls};
  link.recent_next =
      static_cast<std::uint8_t>((link.recent_next + 1) % kRecentFlows);
}

void StreamTelemetry::on_transmit(RouterId r, int port, const Packet& p,
                                  SimTime start, SimTime ser) {
  if (links_.empty() || finalized_ || !(ser > 0)) return;
  const std::size_t idx = link_index(r, port);
  LinkState& link = links_[idx];
  ClassTotals& ct = class_totals_[link_class_[idx]];
  ct.busy_s += ser;
  ++ct.packets;
  // Split the serialization interval at the current window boundary:
  // per-link transmissions never overlap (the port busy flag serializes
  // them), so the in-window part plus a carry of the remainder splits the
  // interval exactly across windows without addressing future ones.
  const SimTime boundary =
      static_cast<double>(windows_rolled_ + 1) * cfg_.window_s;
  const SimTime end = start + ser;
  if (start < boundary) {
    link.cur.busy += std::min(end, boundary) - start;
    if (end > boundary) link.carry += end - boundary;
  } else {
    link.carry += ser;
  }
  ++link.cur.packets;
  link.busy_total += ser;
  ++link.packets_total;
  total_busy_s_ += ser;
  ++total_packets_;
  note_flow(link, p);
}

void StreamTelemetry::on_credit_stall(RouterId r, int port, SimTime /*now*/) {
  if (links_.empty() || finalized_) return;
  const std::size_t idx = link_index(r, port);
  LinkState& link = links_[idx];
  ++link.cur.stalls;
  ++link.stalls_total;
  ++total_stalls_;
  ++class_totals_[link_class_[idx]].stalls;
}

void StreamTelemetry::on_metapath_open(NodeId src, NodeId dst, int /*paths*/,
                                       bool predictive, SimTime now) {
  if (finalized_) return;
  if (predictive) {
    ++opens_predictive_;
  } else {
    ++opens_reactive_;
  }
  FlowState& f = flows_[flow_key(src, dst)];
  if (f.pending_onset >= 0) {
    // The onset came first: this open is the late reaction. The magnitude
    // lands in the negative histogram; the open is consumed so it cannot
    // also match a later onset as a prediction.
    lead_[static_cast<int>(f.pending_cls)].negative.record(
        now - f.pending_onset);
    f.pending_onset = -1;
    f.open_matched = true;
  } else {
    f.open_matched = false;
  }
  f.open_active = true;
  f.open_predictive = predictive;
  f.last_open = now;
}

void StreamTelemetry::on_metapath_close(NodeId src, NodeId dst, int paths,
                                        SimTime /*now*/) {
  if (finalized_ || paths > 1) return;
  auto it = flows_.find(flow_key(src, dst));
  if (it != flows_.end()) it->second.open_active = false;
}

void StreamTelemetry::detect_onset(LinkState& link, SimTime now) {
  if (link.armed && link.ewma >= cfg_.onset_threshold) {
    link.armed = false;
    ++onsets_total_;
    ++onsets_since_snapshot_;
    for (const RecentFlow& entry : link.recent) {
      if (entry.key == 0) continue;
      FlowState& f = flows_[entry.key];
      if (f.open_active && !f.open_matched) {
        // A metapath was opened before this link saturated: positive
        // prediction lead time (the paper's claim, measured).
        LeadStats& ls = lead_[static_cast<int>(entry.cls)];
        ls.positive.record(now - f.last_open);
        if (f.open_predictive) ++ls.predictive_opens;
        f.open_matched = true;
      } else if (!f.open_active && f.pending_onset < 0) {
        f.pending_onset = now;
        f.pending_cls = entry.cls;
      }
    }
  } else if (!link.armed && link.ewma <= cfg_.onset_clear) {
    link.armed = true;
  }
}

void StreamTelemetry::cascade() {
  const std::size_t ring = cfg_.ring_windows;
  const int levels = static_cast<int>(data_.size());
  int d = 0;
  while (d < levels && level_count_[static_cast<std::size_t>(d)] == ring) {
    ++d;
  }
  if (d == levels) {
    // Every level is full: the top level's two oldest windows fold into
    // the per-link ancient aggregate (totals stay exact, resolution is
    // gone — that is the bounded-memory trade).
    const auto top = static_cast<std::size_t>(levels - 1);
    const std::size_t h = level_head_[top];
    const std::size_t s0 = h;
    const std::size_t s1 = (h + 1) % ring;
    for (std::size_t l = 0; l < links_.size(); ++l) {
      WindowAgg m = data_[top][l * ring + s0];
      m.merge(data_[top][l * ring + s1]);
      links_[l].ancient.merge(m);
    }
    ancient_base_ += 2ull << top;
    level_head_[top] = (h + 2) % ring;
    level_count_[top] -= 2;
    d = levels - 1;
  }
  // Free one slot at every full level below `d` by merging its two oldest
  // windows one level up (top-down so the destination always has room).
  for (int L = d - 1; L >= 0; --L) {
    const auto lo = static_cast<std::size_t>(L);
    const std::size_t up = lo + 1;
    const std::size_t h = level_head_[lo];
    const std::size_t s0 = h;
    const std::size_t s1 = (h + 1) % ring;
    const std::size_t tail = (level_head_[up] + level_count_[up]) % ring;
    for (std::size_t l = 0; l < links_.size(); ++l) {
      WindowAgg m = data_[lo][l * ring + s0];
      m.merge(data_[lo][l * ring + s1]);
      data_[up][l * ring + tail] = m;
    }
    ++level_count_[up];
    level_head_[lo] = (h + 2) % ring;
    level_count_[lo] -= 2;
  }
}

void StreamTelemetry::add_heat_row() {
  for (std::size_t r = 0; r < num_routers(); ++r) {
    const std::size_t first = link_offset_[r];
    const std::size_t last = link_offset_[r + 1];
    double busy = 0;
    for (std::size_t l = first; l < last; ++l) busy += links_[l].cur.busy;
    const double capacity = static_cast<double>(last - first) * cfg_.window_s;
    const double u = first == last ? 0.0 : std::min(1.0, busy / capacity);
    heat_.push_back(static_cast<std::uint8_t>(std::lround(255.0 * u)));
  }
}

void StreamTelemetry::roll(SimTime now) {
  if (!bound_ || finalized_) return;
  add_heat_row();
  if (level_count_[0] == cfg_.ring_windows) cascade();
  const std::size_t ring = cfg_.ring_windows;
  const std::size_t tail = (level_head_[0] + level_count_[0]) % ring;
  for (std::size_t l = 0; l < links_.size(); ++l) {
    LinkState& link = links_[l];
    data_[0][l * ring + tail] = link.cur;
    util_sketch_.record(link.cur.busy);
    const double u = std::min(1.0, link.cur.busy / cfg_.window_s);
    util_max_ = std::max(util_max_, u);
    link.ewma = cfg_.ewma_alpha * u + (1.0 - cfg_.ewma_alpha) * link.ewma;
    detect_onset(link, now);
    // Open the next window: it starts with whatever busy time carried
    // over the boundary (a carry can span several windows).
    link.cur = WindowAgg{};
    const double take = std::min(link.carry, cfg_.window_s);
    link.cur.busy = take;
    link.carry -= take;
  }
  ++level_count_[0];
  ++windows_rolled_;
  last_time_ = std::max(last_time_, now);
  if (windows_rolled_ % cfg_.snapshot_every == 0) {
    emit_snapshot(now, /*summary=*/false);
  }
}

double StreamTelemetry::lead_median(TrafficClass cls) const {
  const LeadStats& ls = lead_[static_cast<int>(cls)];
  const std::uint64_t n = ls.negative.count();
  const std::uint64_t p = ls.positive.count();
  const std::uint64_t total = n + p;
  if (total == 0) return 0.0;
  // Median over the signed concatenation: negatives ascending are the
  // LARGEST magnitudes first, positives follow. Rank arithmetic on the two
  // histograms gives the value at bucket resolution.
  const std::uint64_t rank = (total + 1) / 2;  // 1-based lower median
  if (rank <= n) {
    const double q = static_cast<double>(n - rank + 1) /
                     static_cast<double>(n);
    return -ls.negative.percentile(q);
  }
  const double q =
      static_cast<double>(rank - n) / static_cast<double>(p);
  return ls.positive.percentile(q);
}

std::uint64_t StreamTelemetry::lead_count(TrafficClass cls,
                                          bool positive) const {
  const LeadStats& ls = lead_[static_cast<int>(cls)];
  return positive ? ls.positive.count() : ls.negative.count();
}

const LatencyHistogram& StreamTelemetry::lead_histogram(TrafficClass cls,
                                                        bool positive) const {
  const LeadStats& ls = lead_[static_cast<int>(cls)];
  return positive ? ls.positive : ls.negative;
}

double StreamTelemetry::link_busy_seconds(RouterId r, int port) const {
  return links_[link_index(r, port)].busy_total;
}

std::uint64_t StreamTelemetry::link_stalls(RouterId r, int port) const {
  return links_[link_index(r, port)].stalls_total;
}

std::uint64_t StreamTelemetry::link_packets(RouterId r, int port) const {
  return links_[link_index(r, port)].packets_total;
}

StreamTelemetry::ClassTotals StreamTelemetry::class_totals(
    LinkClass c) const {
  return class_totals_[static_cast<std::size_t>(c)];
}

std::vector<StreamTelemetry::WindowView> StreamTelemetry::window_layout()
    const {
  std::vector<WindowView> views;
  std::uint64_t start = ancient_base_;
  for (std::size_t L = data_.size(); L-- > 0;) {
    const auto span = static_cast<std::uint32_t>(1u << L);
    for (std::size_t i = 0; i < level_count_[L]; ++i) {
      views.push_back(WindowView{static_cast<int>(L), start, span});
      start += span;
    }
  }
  return views;
}

StreamTelemetry::WindowAgg StreamTelemetry::window_at(RouterId r, int port,
                                                      std::size_t view) const {
  const std::size_t link = link_index(r, port);
  const std::size_t ring = cfg_.ring_windows;
  std::size_t seen = 0;
  for (std::size_t L = data_.size(); L-- > 0;) {
    if (view < seen + level_count_[L]) {
      const std::size_t slot = (level_head_[L] + (view - seen)) % ring;
      return data_[L][link * ring + slot];
    }
    seen += level_count_[L];
  }
  return WindowAgg{};
}

StreamTelemetry::WindowAgg StreamTelemetry::ancient(RouterId r,
                                                    int port) const {
  return links_[link_index(r, port)].ancient;
}

std::size_t StreamTelemetry::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += link_offset_.capacity() * sizeof(std::size_t);
  bytes += links_.capacity() * sizeof(LinkState);
  bytes += link_class_.capacity() * sizeof(std::uint8_t);
  for (const auto& level : data_) bytes += level.capacity() * sizeof(WindowAgg);
  bytes += level_head_.capacity() * sizeof(std::size_t);
  bytes += level_count_.capacity() * sizeof(std::size_t);
  // Red-black node estimate: payload plus parent/child pointers + colour.
  bytes += flows_.size() *
           (sizeof(std::pair<const std::uint64_t, FlowState>) +
            4 * sizeof(void*));
  return bytes;
}

void StreamTelemetry::emit_snapshot(SimTime now, bool summary) {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "prdrb-stream-v1");
  w.field("kind", summary ? "summary" : "snapshot");
  w.field("seq", snapshot_seq_++);
  w.field("t", std::max(now, last_time_));
  w.field("window_s", cfg_.window_s);
  w.field("windows", windows_rolled_);
  w.field("links", static_cast<std::uint64_t>(links_.size()));
  w.field("busy_s", total_busy_s_);
  w.field("stalls", total_stalls_);
  w.field("packets", total_packets_);
  write_class_totals(w, *this);
  w.key("util").begin_object();
  w.field("p50",
          std::min(1.0, util_sketch_.percentile(0.5) / cfg_.window_s));
  w.field("p95",
          std::min(1.0, util_sketch_.percentile(0.95) / cfg_.window_s));
  w.field("p99",
          std::min(1.0, util_sketch_.percentile(0.99) / cfg_.window_s));
  w.field("max", util_max_);
  w.end_object();
  w.field("onsets", onsets_since_snapshot_);
  w.field("onsets_total", onsets_total_);
  w.key("opens").begin_object();
  w.field("predictive", opens_predictive_);
  w.field("reactive", opens_reactive_);
  w.end_object();
  w.key("lead").begin_object();
  for (int c = 0; c < kNumClasses; ++c) {
    const auto cls = static_cast<TrafficClass>(c);
    const LeadStats& ls = lead_[c];
    w.key(class_name(cls)).begin_object();
    w.field("pos", ls.positive.count());
    w.field("neg", ls.negative.count());
    w.field("median_s", lead_median(cls));
    w.field("pos_p95_s", ls.positive.p95());
    w.field("predictive", ls.predictive_opens);
    w.end_object();
  }
  w.end_object();
  if (summary) w.field("ancient_windows", ancient_base_);
  w.field("state_bytes", static_cast<std::uint64_t>(memory_bytes()));
  w.end_object();
  out_ += w.str();
  out_ += '\n';
  onsets_since_snapshot_ = 0;
}

void StreamTelemetry::finalize(SimTime now) {
  if (finalized_) return;
  // The partial current window is NOT rolled (its width would lie); the
  // cumulative totals already include it, so nothing is lost from the
  // summary. Trailing summary line = the parse target for prdrb_report.
  // The heatmap does show it, as its last row.
  if (bound_) add_heat_row();
  emit_snapshot(now, /*summary=*/true);
  finalized_ = true;
  bound_ = false;
}

void StreamTelemetry::write(std::ostream& os) const { os << out_; }

bool StreamTelemetry::write_file(const std::string& path) const {
  return write_text_file(path, out_);
}

std::string StreamTelemetry::telemetry_json() const {
  const std::vector<WindowView> layout = window_layout();
  JsonWriter w;
  w.begin_object();
  w.field("schema", "prdrb-telemetry-v2");
  w.field("window_s", cfg_.window_s);
  w.field("windows", windows_rolled_);
  w.field("ancient_windows", ancient_base_);
  // [first base window, base windows covered] per retained window, oldest
  // first; every link's "windows" array follows this order.
  w.key("layout").begin_array();
  for (const WindowView& v : layout) {
    w.begin_array();
    w.value(v.start);
    w.value(static_cast<std::uint64_t>(v.span));
    w.end_array();
  }
  w.end_array();
  write_class_totals(w, *this);
  w.key("links").begin_array();
  for (std::size_t r = 0; r < num_routers(); ++r) {
    for (std::size_t l = link_offset_[r]; l < link_offset_[r + 1]; ++l) {
      const LinkState& link = links_[l];
      if (link.busy_total == 0 && link.stalls_total == 0) continue;
      const int port = static_cast<int>(l - link_offset_[r]);
      w.begin_object();
      w.field("router", static_cast<std::int64_t>(r));
      w.field("port", static_cast<std::int64_t>(port));
      w.field("class", link_class_name(static_cast<LinkClass>(link_class_[l])));
      w.field("busy_s", link.busy_total);
      w.field("stalls", link.stalls_total);
      w.field("packets", link.packets_total);
      w.key("ancient");
      write_agg(w, link.ancient);
      w.key("windows").begin_array();
      for (std::size_t v = 0; v < layout.size(); ++v) {
        write_agg(w, window_at(static_cast<RouterId>(r), port, v));
      }
      w.end_array();
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  return w.str() + '\n';
}

std::string StreamTelemetry::telemetry_csv() const {
  std::ostringstream os;
  os << "kind,router,port,class,start_s,span_s,busy_s,stalls,packets\n";
  // `head` = "kind,router,port,class"; `span` = "start_s,span_s", empty
  // for run totals.
  const auto row = [&os](const std::string& head, const std::string& span,
                         double busy, std::uint64_t stalls,
                         std::uint64_t packets) {
    os << head << ',' << span << ',' << json_number(busy) << ',' << stalls
       << ',' << packets << '\n';
  };
  const auto span_s = [this](std::uint64_t first, std::uint64_t windows) {
    return json_number(static_cast<double>(first) * cfg_.window_s) + ',' +
           json_number(static_cast<double>(windows) * cfg_.window_s);
  };
  const std::vector<WindowView> layout = window_layout();
  for (std::size_t r = 0; r < num_routers(); ++r) {
    for (std::size_t l = link_offset_[r]; l < link_offset_[r + 1]; ++l) {
      const LinkState& link = links_[l];
      if (link.busy_total == 0 && link.stalls_total == 0) continue;
      const int port = static_cast<int>(l - link_offset_[r]);
      const std::string where =
          std::to_string(r) + ',' + std::to_string(port) + ',' +
          link_class_name(static_cast<LinkClass>(link_class_[l]));
      row("link," + where, ",", link.busy_total, link.stalls_total,
          link.packets_total);
      row("ancient," + where, span_s(0, ancient_base_), link.ancient.busy,
          link.ancient.stalls, link.ancient.packets);
      for (std::size_t v = 0; v < layout.size(); ++v) {
        const WindowAgg a = window_at(static_cast<RouterId>(r), port, v);
        row("window," + where, span_s(layout[v].start, layout[v].span),
            a.busy, a.stalls, a.packets);
      }
    }
  }
  for (const LinkClass c : kExportedClasses) {
    const ClassTotals ct = class_totals(c);
    row(std::string("class,,,") + link_class_name(c), ",", ct.busy_s,
        ct.stalls, ct.packets);
  }
  return os.str();
}

bool StreamTelemetry::write_telemetry_file(const std::string& path) const {
  return write_text_file(
      path, path.ends_with(".csv") ? telemetry_csv() : telemetry_json());
}

std::string StreamTelemetry::heatmap_ascii(const Topology& topo) const {
  std::vector<double> per_router(num_routers(), 0.0);
  for (std::size_t r = 0; r < per_router.size(); ++r) {
    for (std::size_t l = link_offset_[r]; l < link_offset_[r + 1]; ++l) {
      per_router[r] += links_[l].busy_total;
    }
  }
  std::ostringstream os;
  os << "link-busy heatmap: per-router total link-busy time\n";
  render_map(os, topo, per_router);
  return os.str();
}

std::string StreamTelemetry::heatmap_pgm() const {
  const std::size_t routers = num_routers();
  const std::size_t cols = std::max<std::size_t>(routers, 1);
  const std::size_t rows =
      std::max<std::size_t>(routers ? heat_.size() / routers : 0, 1);
  std::ostringstream os;
  os << "P2\n# prdrb link-utilization heatmap: row=time bin, col=router\n"
     << cols << ' ' << rows << "\n255\n";
  for (std::size_t row = 0; row < rows; ++row) {
    for (std::size_t r = 0; r < cols; ++r) {
      const std::size_t i = row * routers + r;
      os << (r < routers && i < heat_.size() ? static_cast<int>(heat_[i]) : 0)
         << (r + 1 == cols ? '\n' : ' ');
    }
  }
  return os.str();
}

bool StreamTelemetry::write_heatmap_file(const std::string& path,
                                         const Topology& topo) const {
  return write_text_file(
      path, path.ends_with(".pgm") ? heatmap_pgm() : heatmap_ascii(topo));
}

}  // namespace prdrb::obs
