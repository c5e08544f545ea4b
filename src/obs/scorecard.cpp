#include "obs/scorecard.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <vector>

#include "net/packet.hpp"
#include "obs/json.hpp"
#include "routing/metapath.hpp"

namespace prdrb::obs {

namespace {

constexpr double kUs = 1e6;

double mean_us(double sum_s, std::uint64_t n) {
  return n ? sum_s * kUs / static_cast<double>(n) : 0.0;
}

}  // namespace

const char* Scorecard::class_name(TrafficClass c) {
  switch (c) {
    case TrafficClass::kData: return "data";
    case TrafficClass::kAck: return "ack";
    case TrafficClass::kPredictiveAck: return "predictive-ack";
  }
  return "unknown";
}

const char* Scorecard::route_name(RouteKind r) {
  switch (r) {
    case RouteKind::kDirect: return "direct";
    case RouteKind::kAlternative: return "alternative";
    case RouteKind::kPredicted: return "predicted";
  }
  return "unknown";
}

const char* Scorecard::phase_name(Phase p) {
  switch (p) {
    case Phase::kEndToEnd: return "e2e";
    case Phase::kInjectWait: return "inject-wait";
    case Phase::kQueueing: return "queueing";
    case Phase::kTransmit: return "transmit";
    case Phase::kStall: return "stall";
  }
  return "unknown";
}

void Scorecard::record_phase(TrafficClass c, RouteKind r, Phase p,
                             SimTime seconds) {
  Cell& cell = cells_[cell_index(c, r, p)];
  cell.hist.record(seconds);
  cell.seconds += seconds;
}

void Scorecard::on_delivered(const Packet& p, SimTime now) {
  ++deliveries_;
  TrafficClass cls = TrafficClass::kData;
  if (p.type == PacketType::kAck) cls = TrafficClass::kAck;
  if (p.type == PacketType::kPredictiveAck) cls = TrafficClass::kPredictiveAck;

  // ACKs echo the acknowledged message's msp_index but always travel the
  // direct minimal path themselves; only data packets ride alternatives.
  RouteKind route = RouteKind::kDirect;
  const bool data = p.type == PacketType::kData;
  if (data && p.msp_index > 0) {
    const FlowRecord& f = flow(p.source, p.destination);
    route = f.install_active ? RouteKind::kPredicted : RouteKind::kAlternative;
  }

  const SimTime e2e = std::max(now - p.inject_time, 0.0);
  record_phase(cls, route, Phase::kEndToEnd, e2e);
  record_phase(cls, route, Phase::kInjectWait, p.inject_wait);
  record_phase(cls, route, Phase::kQueueing, p.path_latency);
  record_phase(cls, route, Phase::kTransmit, p.transmit_time);
  record_phase(cls, route, Phase::kStall, p.stall_wait);

  if (!data) return;
  FlowRecord& f = flow(p.source, p.destination);
  const auto r = static_cast<std::size_t>(route);
  ++f.packets[r];
  f.bytes[r] += static_cast<std::uint64_t>(p.size_bytes);
  if (f.multipath_since >= 0) {
    f.latency_during += e2e;
    ++f.n_during;
  } else {
    f.latency_before += e2e;
    ++f.n_before;
  }
  if (f.episode != 0) {
    f.episode_lat += e2e;
    ++f.episode_n;
  }
}

void Scorecard::on_metapath_open(NodeId src, NodeId dst, int open_paths,
                                 SimTime now) {
  ++opens_;
  FlowRecord& f = flow(src, dst);
  ++f.opens;
  if (open_paths > 1 && f.multipath_since < 0) f.multipath_since = now;
  if (f.episode == 2) ++f.episode_opens;  // gradual open despite an install
}

void Scorecard::on_metapath_close(NodeId src, NodeId dst, int open_paths,
                                  SimTime now) {
  ++closes_;
  FlowRecord& f = flow(src, dst);
  ++f.closes;
  if (open_paths <= 1 && f.multipath_since >= 0) {
    const double span = now - f.multipath_since;
    f.multipath_time += span;
    multipath_time_ += span;
    f.multipath_since = -1;
  }
}

void Scorecard::end_episode(FlowRecord& f, SimTime now) {
  const double duration = std::max(now - f.episode_start, 0.0);
  if (f.episode == 1) {
    ++cold_episodes_;
    cold_time_ += duration;
    cold_duration_.record(duration);
    cold_latency_ += f.episode_lat;
    cold_n_ += f.episode_n;
  } else if (f.episode == 2) {
    ++warm_episodes_;
    warm_time_ += duration;
    warm_duration_.record(duration);
    warm_latency_ += f.episode_lat;
    warm_n_ += f.episode_n;
    if (f.episode_opens > 0) ++false_opens_;
  }
  f.episode = 0;
  f.episode_opens = 0;
  f.episode_lat = 0;
  f.episode_n = 0;
}

void Scorecard::on_zone(NodeId src, NodeId dst, Zone previous, Zone current,
                        SimTime now) {
  FlowRecord& f = flow(src, dst);
  if (previous == Zone::kHigh && current == Zone::kMedium && f.episode != 0) {
    // Congestion controlled — the episode resolved.
    end_episode(f, now);
    return;
  }
  if (current == Zone::kLow) {
    // Quiet phase: the predictive layer rearms; an episode that never
    // calmed through Medium still ends here.
    f.install_active = false;
    if (f.episode != 0) end_episode(f, now);
  }
}

void Scorecard::on_sdb_hit(NodeId src, NodeId dst, int paths, SimTime now) {
  ++hits_;
  FlowRecord& f = flow(src, dst);
  if (f.episode == 1) end_episode(f, now);  // cold episode upgraded by a hit
  f.episode = 2;
  f.episode_start = now;
  f.episode_opens = 0;
  f.episode_lat = 0;
  f.episode_n = 0;
  f.install_active = true;
  // Wholesale installation flips the flow to multipath instantly.
  if (paths > 1 && f.multipath_since < 0) f.multipath_since = now;
}

void Scorecard::on_sdb_miss(NodeId src, NodeId dst, SimTime now) {
  ++misses_;
  FlowRecord& f = flow(src, dst);
  if (f.episode == 0) {
    f.episode = 1;
    f.episode_start = now;
    f.episode_opens = 0;
    f.episode_lat = 0;
    f.episode_n = 0;
  }
}

void Scorecard::on_sdb_save(NodeId /*src*/, NodeId /*dst*/, int /*paths*/,
                            SimTime /*now*/) {
  ++saves_;
}

void Scorecard::on_sdb_empty_probe(NodeId /*src*/, NodeId /*dst*/,
                                   SimTime /*now*/) {
  ++empty_probes_;
}

void Scorecard::finalize(SimTime now) {
  for (auto& [key, f] : flows_) {
    if (f.multipath_since >= 0) {
      const double span = std::max(now - f.multipath_since, 0.0);
      f.multipath_time += span;
      multipath_time_ += span;
      f.multipath_since = -1;
    }
    if (f.episode != 0) end_episode(f, now);
    f.install_active = false;
  }
}

void Scorecard::write_json(std::ostream& os) const {
  JsonWriter w;
  w.begin_object();
  w.field("schema", "prdrb-scorecard-v1");
  w.field("deliveries", deliveries_);

  // Attribution: one entry per occupied (class, route, phase) cell, in
  // fixed index order — deterministic and O(bins) regardless of traffic.
  w.key("attribution").begin_array();
  for (int c = 0; c < kNumClasses; ++c) {
    for (int r = 0; r < kNumRoutes; ++r) {
      for (int p = 0; p < kNumPhases; ++p) {
        const auto cls = static_cast<TrafficClass>(c);
        const auto route = static_cast<RouteKind>(r);
        const auto phase = static_cast<Phase>(p);
        const Cell& cell = cells_[cell_index(cls, route, phase)];
        if (cell.hist.count() == 0) continue;
        w.begin_object();
        w.field("class", class_name(cls));
        w.field("route", route_name(route));
        w.field("phase", phase_name(phase));
        w.field("count", cell.hist.count());
        w.field("seconds", cell.seconds);
        w.field("p50_us", cell.hist.p50() * kUs);
        w.field("p95_us", cell.hist.p95() * kUs);
        w.field("p99_us", cell.hist.p99() * kUs);
        w.end_object();
      }
    }
  }
  w.end_array();

  // Ledger: aggregate plus the heaviest flows (by data packets, then key).
  w.key("ledger").begin_object();
  w.field("flows", static_cast<std::uint64_t>(flows_.size()));
  w.field("opens", opens_);
  w.field("closes", closes_);
  w.field("multipath_s", multipath_time_);
  std::vector<std::pair<std::uint64_t, const FlowRecord*>> ranked;
  ranked.reserve(flows_.size());
  for (const auto& [key, f] : flows_) ranked.emplace_back(key, &f);
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    std::uint64_t pa = 0, pb = 0;
    for (int r = 0; r < kNumRoutes; ++r) {
      pa += a.second->packets[r];
      pb += b.second->packets[r];
    }
    if (pa != pb) return pa > pb;
    return a.first < b.first;
  });
  if (ranked.size() > kTopFlows) ranked.resize(kTopFlows);
  w.key("top_flows").begin_array();
  for (const auto& [key, f] : ranked) {
    w.begin_object();
    w.field("src", static_cast<std::int64_t>(key >> 32));
    w.field("dst", static_cast<std::int64_t>(key & 0xffffffffu));
    w.field("opens", f->opens);
    w.field("closes", f->closes);
    w.field("multipath_s", f->multipath_time);
    w.key("packets").begin_object();
    for (int r = 0; r < kNumRoutes; ++r) {
      w.field(route_name(static_cast<RouteKind>(r)), f->packets[r]);
    }
    w.end_object();
    w.key("bytes").begin_object();
    for (int r = 0; r < kNumRoutes; ++r) {
      w.field(route_name(static_cast<RouteKind>(r)), f->bytes[r]);
    }
    w.end_object();
    w.key("before").begin_object();
    w.field("packets", f->n_before);
    w.field("mean_us", mean_us(f->latency_before, f->n_before));
    w.end_object();
    w.key("during").begin_object();
    w.field("packets", f->n_during);
    w.field("mean_us", mean_us(f->latency_during, f->n_during));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();

  w.key("sdb").begin_object();
  w.field("hits", hits_);
  w.field("misses", misses_);
  w.field("saves", saves_);
  w.field("empty_probes", empty_probes_);
  w.end_object();

  // Scorecard: warm (SDB hit installed) vs cold (gradual DRB) episodes.
  const double cold_mean = mean_us(cold_latency_, cold_n_);
  const double warm_mean = mean_us(warm_latency_, warm_n_);
  const double cold_dur_mean =
      cold_episodes_ ? cold_time_ / static_cast<double>(cold_episodes_) : 0;
  const double warm_dur_mean =
      warm_episodes_ ? warm_time_ / static_cast<double>(warm_episodes_) : 0;
  w.key("episodes").begin_object();
  w.key("cold").begin_object();
  w.field("count", cold_episodes_);
  w.field("time_s", cold_time_);
  w.field("mean_duration_us", cold_dur_mean * kUs);
  w.field("p95_duration_us", cold_duration_.p95() * kUs);
  w.field("mean_latency_us", cold_mean);
  w.end_object();
  w.key("warm").begin_object();
  w.field("count", warm_episodes_);
  w.field("time_s", warm_time_);
  w.field("mean_duration_us", warm_dur_mean * kUs);
  w.field("p95_duration_us", warm_duration_.p95() * kUs);
  w.field("mean_latency_us", warm_mean);
  w.end_object();
  w.field("false_opens", false_opens_);
  w.field("false_open_rate",
          warm_episodes_
              ? static_cast<double>(false_opens_) /
                    static_cast<double>(warm_episodes_)
              : 0.0);
  // Positive = warm episodes resolved with lower delivered latency than
  // cold ones: the SDB hit demonstrably helped.
  w.field("hit_efficacy_pct",
          cold_mean > 0 ? 100.0 * (cold_mean - warm_mean) / cold_mean : 0.0);
  // < 1: warm episodes calm faster than cold ones (convergence gain).
  w.field("convergence_ratio",
          cold_dur_mean > 0 ? warm_dur_mean / cold_dur_mean : 0.0);
  w.end_object();

  w.end_object();
  os << w.str() << '\n';
}

std::string Scorecard::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

bool Scorecard::write_file(const std::string& path) const {
  return write_text_file(path, to_json());
}

}  // namespace prdrb::obs
