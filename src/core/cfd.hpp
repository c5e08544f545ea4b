// Contending-Flows Detection (CFD) and Generation of Predictive ACKs (GPA) —
// the router-side modules of the PR-DRB router (thesis §3.3.2, Fig. 3.19).
//
// The module watches every output-queue departure. When a packet's waiting
// time exceeds the congestion threshold, the flows currently racing for that
// output port are identified and the largest contributors selected
// (Fig. 3.13: only the pairs that contribute most to the congestion are
// notified). Under destination-based notification (§3.2.2) the flow set is
// appended to the transiting packet's predictive header and processed at the
// destination; under router-based notification (§3.4.1) the router injects
// predictive ACK packets straight back to the contributing sources and sets
// the P bit so the destination does not duplicate the notification.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "net/network.hpp"

namespace prdrb {

enum class NotificationMode : std::uint8_t {
  kDestinationBased,  // flows travel in the data packet (§3.2.2)
  kRouterBased,       // router injects predictive ACKs early (§3.4.1)
};

class CongestionDetector final : public RouterMonitor {
 public:
  explicit CongestionDetector(
      NotificationMode mode = NotificationMode::kDestinationBased);

  void on_transmit(Network& net, RouterId r, int port, Packet& head,
                   SimTime wait, const std::deque<Packet*>& queue) override;

  NotificationMode mode() const { return mode_; }

  /// Minimum interval between predictive ACKs to the same source from the
  /// same router ("the notification is performed only once per buffer's
  /// access", §3.2.7).
  void set_notify_cooldown(SimTime s) { cooldown_ = s; }

  // --- statistics ---
  std::uint64_t detections() const { return detections_; }
  std::uint64_t predictive_acks() const { return predictive_acks_; }

  /// Contending flows dropped because a predictive header was already at
  /// max_contending_flows (destination-based mode).
  std::uint64_t truncated_flows() const { return truncated_flows_; }

 private:
  /// Pick the top-contributing flows in the queue (by queued bytes) into
  /// flows_.
  void select_contenders(const Packet& head,
                         const std::deque<Packet*>& queue, int max_flows);

  struct Share {
    ContendingFlow flow;
    std::int64_t bytes = 0;
    std::size_t first = 0;  // order of first appearance in the queue
  };

  NotificationMode mode_;
  // Scratch reused by every detection, so a warm detector allocates nothing.
  std::vector<Share> shares_;
  std::vector<ContendingFlow> flows_;
  SimTime cooldown_ = 5e-6;
  // (router, source) -> last predictive-ACK injection time.
  std::unordered_map<std::uint64_t, SimTime> last_notify_;
  std::uint64_t detections_ = 0;
  std::uint64_t predictive_acks_ = 0;
  std::uint64_t truncated_flows_ = 0;
};

}  // namespace prdrb
