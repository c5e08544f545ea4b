#include "net/packet.hpp"

#include <algorithm>
#include <sstream>

namespace prdrb {

FlowAppend append_flow(ContendingList& list, const ContendingFlow& f,
                       int cap) {
  if (std::find(list.begin(), list.end(), f) != list.end()) {
    return FlowAppend::kDuplicate;
  }
  if (static_cast<int>(list.size()) >= cap) return FlowAppend::kCapped;
  list.push_back(f);
  return FlowAppend::kAdded;
}

std::string Packet::describe() const {
  std::ostringstream os;
  os << (type == PacketType::kData
             ? "DATA"
             : (type == PacketType::kAck ? "ACK" : "PACK"))
     << " #" << id << " " << source << "->" << destination;
  if (intermediate1 != kInvalidNode) os << " via " << intermediate1;
  if (intermediate2 != kInvalidNode) os << "," << intermediate2;
  os << " hdr=" << int(header_id) << " lat=" << path_latency;
  return os.str();
}

}  // namespace prdrb
