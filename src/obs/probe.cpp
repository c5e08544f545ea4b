#include "obs/probe.hpp"

#include "net/network.hpp"
#include "obs/counters.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/scorecard.hpp"
#include "obs/stream.hpp"
#include "obs/tracer.hpp"

namespace prdrb::obs {

namespace {

using Kind = FlightRecorder::EventKind;

/// Bytes of multi-header and predictive-header overhead a packet carries on
/// the wire beyond its payload: 4 bytes per used intermediate-node slot and
/// per congested-router field, 8 per contending-flow entry (Figs. 3.16-3.18
/// field widths). Tracked by the "net.header.overhead_bytes" counter.
std::int64_t header_overhead_bytes(const Packet& p) {
  std::int64_t b = 0;
  if (p.intermediate1 != kInvalidNode) b += 4;
  if (p.intermediate2 != kInvalidNode) b += 4;
  if (p.congested_router != kInvalidRouter) b += 4;
  b += static_cast<std::int64_t>(p.contending.size()) * 8;
  return b;
}

}  // namespace

Probe::Probe(const Sinks& sinks)
    : tracer_(sinks.tracer),
      recorder_(sinks.recorder),
      scorecard_(sinks.scorecard),
      stream_(sinks.stream) {
  if (CounterRegistry* reg = sinks.counters) {
    link_packets_ = &reg->counter("net.link.packets");
    link_bytes_ = &reg->counter("net.link.bytes");
    ack_bytes_ = &reg->counter("net.ack.bytes");
    header_overhead_bytes_ = &reg->counter("net.header.overhead_bytes");
    header_truncated_flows_ = &reg->counter("net.header.truncated_flows");
    credit_stalls_ = &reg->counter("net.credit.stalls");
  }
}

void Probe::bind(const Network& net) {
  if (stream_) stream_->bind(net);
}

void Probe::inject(NodeId src, NodeId dst, std::int64_t bytes, SimTime now) {
  if (tracer_) tracer_->inject(src, dst, bytes, now);
}

void Probe::nic_transmit(Packet& p, SimTime now, SimTime ser) {
  // Phase timers are written only with a scorecard attached, so other runs
  // never touch the fields.
  if (scorecard_) {
    p.inject_wait = now - p.queued_at;
    p.transmit_time += ser;
  }
}

void Probe::inject_stall(NodeId n, SimTime now) {
  if (credit_stalls_) credit_stalls_->increment();
  if (recorder_) recorder_->record(Kind::kInjectStall, now, n);
}

void Probe::hop(const Packet& p, RouterId r, SimTime now) {
  if (tracer_) tracer_->hop(p, r, now);
}

void Probe::credit_stall(RouterId r, int port, Packet& head, bool new_stall,
                         SimTime now) {
  if (new_stall) {
    if (credit_stalls_) credit_stalls_->increment();
    if (stream_) stream_->on_credit_stall(r, port, now);
    if (recorder_) recorder_->record(Kind::kCreditStall, now, r, port);
  }
  // Keep the earliest stall start: waiters wake via schedule_in(0), so the
  // stall ends exactly at the successful transmit.
  if (scorecard_ && head.stall_since < 0) head.stall_since = now;
}

void Probe::transmit(RouterId r, int port, Packet& p, SimTime now,
                     SimTime ser) {
  if (link_packets_) {
    const auto bytes = static_cast<std::uint64_t>(p.size_bytes);
    link_packets_->increment();
    link_bytes_->add(bytes);
    header_overhead_bytes_->add(
        static_cast<std::uint64_t>(header_overhead_bytes(p)));
    if (p.is_ack()) ack_bytes_->add(bytes);
  }
  if (scorecard_) {
    if (p.stall_since >= 0) {
      p.stall_wait += now - p.stall_since;
      p.stall_since = -1;
    }
    p.transmit_time += ser;
  }
  if (stream_) stream_->on_transmit(r, port, p, now, ser);
}

void Probe::deliver(const Packet& p, SimTime now) {
  if (scorecard_) scorecard_->on_delivered(p, now);
  if (tracer_ && !p.is_ack()) tracer_->deliver(p, now);
}

void Probe::header_truncation() {
  if (header_truncated_flows_) header_truncated_flows_->increment();
}

void Probe::congestion(RouterId r, int port, SimTime wait, std::size_t flows,
                       SimTime now) {
  if (tracer_) tracer_->congestion_detected(r, port, wait, flows, now);
  if (recorder_) {
    recorder_->record(Kind::kCongestion, now, r, port,
                      static_cast<std::int32_t>(flows), wait);
  }
}

void Probe::predictive_ack(RouterId r, NodeId to, SimTime now) {
  if (tracer_) tracer_->predictive_ack(r, to, now);
  if (recorder_) recorder_->record(Kind::kPredictiveAck, now, r, to);
}

void Probe::metapath_open(NodeId src, NodeId dst, int paths, SimTime now) {
  if (tracer_) tracer_->routing("mp-open", src, dst, paths, now);
  if (recorder_) recorder_->record(Kind::kMetapathOpen, now, src, dst, paths);
  if (scorecard_) scorecard_->on_metapath_open(src, dst, paths, now);
  // Gradual expansion is the REACTIVE open: congestion was measured (or a
  // trend projected) before the path was added.
  if (stream_) {
    stream_->on_metapath_open(src, dst, paths, /*predictive=*/false, now);
  }
}

void Probe::metapath_close(NodeId src, NodeId dst, int paths, SimTime now) {
  if (tracer_) tracer_->routing("mp-close", src, dst, paths, now);
  if (recorder_) recorder_->record(Kind::kMetapathClose, now, src, dst, paths);
  if (scorecard_) scorecard_->on_metapath_close(src, dst, paths, now);
  if (stream_) stream_->on_metapath_close(src, dst, paths, now);
}

void Probe::zone_change(NodeId src, NodeId dst, Zone previous, Zone current,
                        SimTime now) {
  if (scorecard_) scorecard_->on_zone(src, dst, previous, current, now);
}

void Probe::sdb_empty_probe(NodeId src, NodeId dst, SimTime now) {
  if (recorder_) recorder_->record(Kind::kSdbEmptyProbe, now, src, dst);
  if (scorecard_) scorecard_->on_sdb_empty_probe(src, dst, now);
}

void Probe::sdb_hit(NodeId src, NodeId dst, int paths, SimTime now) {
  if (tracer_) tracer_->routing("sdb-hit", src, dst, paths, now);
  if (recorder_) recorder_->record(Kind::kSdbHit, now, src, dst, paths);
  if (scorecard_) scorecard_->on_sdb_hit(src, dst, paths, now);
  // A wholesale SDB install is the PREDICTIVE open: paths chosen from a
  // recognized congestion signature, not from measured latency alone.
  if (stream_) {
    stream_->on_metapath_open(src, dst, paths, /*predictive=*/true, now);
  }
}

void Probe::sdb_miss(NodeId src, NodeId dst, SimTime now) {
  if (tracer_) tracer_->routing("sdb-miss", src, dst, -1, now);
  if (recorder_) recorder_->record(Kind::kSdbMiss, now, src, dst);
  if (scorecard_) scorecard_->on_sdb_miss(src, dst, now);
}

void Probe::sdb_save(NodeId src, NodeId dst, int paths, SimTime now) {
  if (tracer_) tracer_->routing("sdb-save", src, dst, paths, now);
  if (recorder_) recorder_->record(Kind::kSdbSave, now, src, dst, paths);
  if (scorecard_) scorecard_->on_sdb_save(src, dst, paths, now);
}

}  // namespace prdrb::obs
