#include "obs/tracer.hpp"

#include <ostream>
#include <sstream>

#include "net/packet.hpp"
#include "obs/json.hpp"

namespace prdrb::obs {

namespace {

/// Chrome trace timestamps are microseconds; SimTime is seconds.
std::string ts_us(SimTime t) { return json_number(t * 1e6); }

}  // namespace

bool Tracer::admit() {
  if (events_ - dropped_ >= limit_) {
    ++events_;
    ++dropped_;
    return false;
  }
  ++events_;
  return true;
}

void Tracer::instant(std::string_view name, int pid, std::int64_t tid,
                     SimTime ts, const std::string& args_json) {
  append(name, pid, tid, ts, nullptr, args_json);
}

void Tracer::span(std::string_view name, int pid, std::int64_t tid,
                  SimTime ts, SimTime dur, const std::string& args_json) {
  append(name, pid, tid, ts, &dur, args_json);
}

void Tracer::append(std::string_view name, int pid, std::int64_t tid,
                    SimTime ts, const SimTime* dur,
                    const std::string& args_json) {
  if (!admit()) return;
  if (!buf_.empty()) buf_ += ",\n";
  buf_ += "{\"name\":\"";
  buf_ += json_escape(name);
  buf_ += dur ? "\",\"ph\":\"X\",\"pid\":"
             : "\",\"ph\":\"i\",\"s\":\"t\",\"pid\":";
  buf_ += std::to_string(pid);
  buf_ += ",\"tid\":";
  buf_ += std::to_string(tid);
  buf_ += ",\"ts\":";
  buf_ += ts_us(ts);
  if (dur) {
    buf_ += ",\"dur\":";
    buf_ += ts_us(*dur);
  }
  if (!args_json.empty()) {
    buf_ += ",\"args\":{";
    buf_ += args_json;
    buf_ += '}';
  }
  buf_ += '}';
}

// ---------------------------------------------------------------------------
// Packet lifecycle

void Tracer::inject(NodeId src, NodeId dst, std::int64_t bytes, SimTime now) {
  instant("inject", kPidNodes, src, now,
          "\"dst\":" + std::to_string(dst) +
              ",\"bytes\":" + std::to_string(bytes));
}

void Tracer::hop(const Packet& p, RouterId r, SimTime now) {
  // The hop span covers the packet's wait in this router's output queue
  // (queued_at -> transmit start): the contention surface, per hop.
  const SimTime wait = now - p.queued_at;
  span(p.is_ack() ? "hop-ack" : "hop", kPidNetwork, r, p.queued_at, wait,
       "\"packet\":" + std::to_string(p.id) +
           ",\"src\":" + std::to_string(p.source) +
           ",\"dst\":" + std::to_string(p.destination));
}

void Tracer::deliver(const Packet& p, SimTime now) {
  instant("deliver", kPidNodes, p.destination, now,
          "\"packet\":" + std::to_string(p.id) +
              ",\"src\":" + std::to_string(p.source) + ",\"latency_us\":" +
              json_number((now - p.inject_time) * 1e6));
}

// ---------------------------------------------------------------------------
// PR-DRB control plane

void Tracer::congestion_detected(RouterId r, int port, SimTime wait,
                                 std::size_t flows, SimTime now) {
  instant("congestion", kPidNetwork, r, now,
          "\"port\":" + std::to_string(port) +
              ",\"wait_us\":" + json_number(wait * 1e6) +
              ",\"flows\":" + std::to_string(flows));
}

void Tracer::predictive_ack(RouterId r, NodeId to, SimTime now) {
  instant("predictive-ack", kPidNetwork, r, now,
          "\"to\":" + std::to_string(to));
}

void Tracer::routing(std::string_view name, NodeId src, NodeId dst,
                     int paths, SimTime now) {
  std::string args = "\"dst\":" + std::to_string(dst);
  if (paths >= 0) args += ",\"paths\":" + std::to_string(paths);
  instant(name, kPidRouting, src, now, args);
}

// ---------------------------------------------------------------------------
// Output

void Tracer::write(std::ostream& os) const {
  os << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n";
  // Name the three process tracks so Perfetto labels them.
  os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kPidNetwork
     << ",\"tid\":0,\"args\":{\"name\":\"network (routers)\"}},\n"
     << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kPidNodes
     << ",\"tid\":0,\"args\":{\"name\":\"nodes (NICs)\"}},\n"
     << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << kPidRouting
     << ",\"tid\":0,\"args\":{\"name\":\"routing (metapaths)\"}}";
  if (!buf_.empty()) os << ",\n" << buf_;
  os << "\n],\"otherData\":{\"events\":" << events_
     << ",\"dropped\":" << dropped_ << "}}\n";
}

std::string Tracer::to_json() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

bool Tracer::write_file(const std::string& path) const {
  return write_text_file(path, to_json());
}

void Tracer::clear() {
  buf_.clear();
  events_ = 0;
  dropped_ = 0;
}

}  // namespace prdrb::obs
