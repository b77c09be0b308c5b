#pragma once
// Node failure detection protocol (paper §6.3, Figure 8).
//
// One surveillance deadline per monitored node.  Node activity is
// signalled *implicitly* by normal data traffic — the driver's
// can-data.nty extension reports every data-frame arrival, own
// transmissions included — so explicit life-sign (ELS) remote frames are
// issued only by nodes whose own deadline passes first, i.e. nodes that
// transmitted nothing for a whole heartbeat period Th.  A remote node
// silent for Th + Ttd is declared failed, and the FDA micro-protocol
// disseminates the failure-sign consistently to every correct node.
//
// Fig. 8 gives every monitored node its own timer, restarted by each of
// its frames.  Here a restart only stores the new deadline, and one tick
// alarm per detector stands for all of them (docs/PROTOCOLS.md §3): it
// fires at the earliest pending deadline, expires every deadline that is
// due, and re-arms for the next one.  Expiry instants, and the order of
// this node's same-instant expiries, are those of the per-node timers.

#include <array>
#include <functional>

#include "can/types.hpp"
#include "canely/driver.hpp"
#include "canely/fda.hpp"
#include "canely/params.hpp"
#include "obs/recorder.hpp"
#include "sim/hash.hpp"
#include "sim/timer.hpp"

namespace canely {

/// One instance per node.
class FailureDetector {
 public:
  using NtyHandler = std::function<void(can::NodeId failed)>;

  FailureDetector(CanDriver& driver, sim::TimerService& timers,
                  FdaProtocol& fda, const Params& params,
                  const sim::Tracer* tracer = nullptr,
                  obs::Recorder* recorder = nullptr);
  FailureDetector(const FailureDetector&) = delete;
  FailureDetector& operator=(const FailureDetector&) = delete;

  /// fd-can.req(START, r) — begin surveillance of node `r` (lines f00-f02).
  /// For the local node the deadline is Th away (it drives ELS emission);
  /// for remote nodes it is Th + Ttd away (line a04).
  void fd_can_req_start(can::NodeId r);

  /// fd-can.req(STOP, r) — end surveillance (lines f17-f19).
  void fd_can_req_stop(can::NodeId r);

  /// fd-can.nty — consistent node-failure notification (line f15).
  void set_nty_handler(NtyHandler handler) { nty_ = std::move(handler); }

  [[nodiscard]] bool monitoring(can::NodeId r) const { return monitored_[r]; }

  /// Count of explicit life-signs this node has broadcast (diagnostics —
  /// the bandwidth evaluation of Fig. 10 cares about this number).
  [[nodiscard]] std::uint64_t els_sent() const { return els_sent_; }

  /// Pending surveillance deadline of node `r`: its last activity (or
  /// surveillance start) plus Th for the local node, plus
  /// Th + Ttd + skew·id for a remote one.  Time::max() when nothing is
  /// pending: `r` is not monitored, its remote deadline already expired,
  /// or the node crashed — Node::crash() cancels the tick together with
  /// every other timer, and every deadline the tick stood for dies with it.
  [[nodiscard]] sim::Time deadline(can::NodeId r) const {
    return ticking_ || timers_.active(tick_) ? watch_[r].due
                                             : sim::Time::max();
  }

  /// Canonical surveillance state for the checker's equivalence dedup:
  /// per-node monitored flag + pending deadline, the same feed the
  /// per-node timers of Fig. 8 gave.  The tick's timer id, the arm order
  /// and the list links are bookkeeping derived from the deadlines and
  /// deliberately not fed.  els_sent_ / els_credit_ are excluded — pure
  /// diagnostics feeding obs counters, never read back by the protocol.
  void hash_state(sim::StateHasher& h) const {
    for (can::NodeId r = 0; r < can::kMaxNodes; ++r) {
      h.feed_bool(monitored_[r]);
      h.feed_time(deadline(r));
    }
  }

 private:
  static constexpr can::NodeId kNil = 0xFF;

  /// Surveillance state of one node.  Remote nodes with a pending
  /// deadline form an intrusive list in arm order; every remote deadline
  /// of this detector is armed with the same duration, so arm order is
  /// deadline order and the head is the next remote expiry.  The local
  /// node's Th deadline is kept beside the list, never in it.
  struct Watch {
    sim::Time due{sim::Time::max()};  // Time::max(): nothing pending
    std::uint32_t seq{0};             // arm order: breaks a local/head tie
    can::NodeId prev{kNil};
    can::NodeId next{kNil};
  };

  void fd_alarm_start(can::NodeId r);            // a00-a06
  void on_activity(can::NodeId r, bool implicit);  // f03-f05
  void on_tick();
  void on_expiry(can::NodeId r);                 // f06-f12
  void on_fda_nty(can::NodeId r);                // f13-f16
  void disarm(can::NodeId r);
  void drop_deadlines();

  CanDriver& driver_;
  sim::TimerService& timers_;
  FdaProtocol& fda_;
  const Params& params_;
  const sim::Tracer* tracer_;
  obs::Recorder* recorder_;
  obs::Counter* ctr_els_sent_{nullptr};
  obs::Counter* ctr_els_suppressed_{nullptr};
  obs::Counter* ctr_heartbeat_implicit_{nullptr};
  obs::Counter* ctr_suspicions_{nullptr};
  NtyHandler nty_;
  std::array<Watch, can::kMaxNodes> watch_{};   // i00
  can::NodeId head_{kNil};
  can::NodeId tail_{kNil};
  std::uint32_t arm_seq_{0};
  sim::TimerId tick_{sim::kNullTimer};
  bool ticking_{false};  // inside on_tick(): the tick re-arms on return
  std::array<bool, can::kMaxNodes> monitored_{};
  std::uint64_t els_sent_{0};
  /// Start of the current explicit-life-sign accounting window (obs:
  /// els.suppressed credits one avoided ELS per Th of implicit coverage).
  sim::Time els_credit_{};
};

}  // namespace canely
