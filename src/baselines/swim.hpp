#pragma once
// SWIM failure detection and membership (Das, Gupta & Motivala, DSN
// 2002) on the lossy net::Medium — the random-probing baseline of the
// membership shootout (DESIGN.md §13).
//
// Per protocol period each node probes one peer (randomized round-robin
// order, so expected detection time is O(1) periods and worst case one
// traversal): PING; on ack silence, PING-REQ through k proxies for an
// indirect probe; still silent by period end => SUSPECT.  Suspicion
// (Lifeguard-less, fixed timeout) gives the accused node time to refute
// with a higher incarnation before the verdict becomes CONFIRM (dead,
// final).  All membership updates travel as piggyback on the protocol's
// own ping/ack traffic — epidemic dissemination, each update forwarded
// O(lambda * log2 n) times — so SWIM's bandwidth is O(1) messages per
// node per period regardless of n, the property the shootout curves
// exhibit against all-to-all gossip.

#include <cstdint>
#include <vector>

#include "baselines/membership_baseline.hpp"
#include "sim/rng.hpp"

namespace canely::baselines {

struct SwimParams {
  sim::Time period{sim::Time::ms(200)};       ///< protocol period T'
  sim::Time ack_timeout{sim::Time::ms(50)};   ///< direct-probe RTT bound
  std::size_t ping_req_fanout{3};             ///< k indirect proxies
  std::size_t suspicion_periods{3};           ///< suspect -> confirm
  std::size_t piggyback_limit{8};             ///< updates per message
  double dissemination_lambda{3.0};           ///< resend factor (x log2 n)
};

class SwimCluster final : public MembershipBaseline {
 public:
  SwimCluster(net::Medium& net, std::size_t n, SwimParams params,
              std::uint64_t seed, obs::Recorder* recorder = nullptr);

  /// Arm every node's protocol period (staggered start phases).
  void start() override;

  /// Fail-stop crash: the node stops probing, acking and disseminating.
  void crash(NodeId node) override;

  [[nodiscard]] const SwimParams& params() const { return params_; }

 private:
  enum class Status : std::uint8_t { kAlive = 0, kSuspect = 1, kDead = 2 };

  /// A disseminating membership update: retransmitted `sends_left` more
  /// times as piggyback, highest-remaining first.
  struct Update {
    NodeId subject{0};
    Status status{Status::kAlive};
    std::uint32_t incarnation{0};
    std::uint32_t sends_left{0};
  };

  struct NodeState {
    sim::Rng rng{0};
    std::vector<Status> status;              // per peer
    std::vector<std::uint32_t> incarnation;  // per peer
    std::vector<sim::Time> suspect_since;    // valid while kSuspect
    std::vector<NodeId> probe_order;         // shuffled round-robin
    std::size_t probe_idx{0};
    std::vector<Update> updates;             // dissemination buffer
    std::uint32_t own_incarnation{0};
    std::uint32_t probe_seq{0};   // id of the in-flight probe round
    NodeId probe_target{0};
    bool ack_pending{false};      // a probe round is awaiting its ack
  };

  void tick(NodeId self);
  void on_message(NodeId self, const Message& msg);
  void apply_update(NodeId self, NodeId subject, Status status,
                    std::uint32_t incarnation);
  void queue_update(NodeId self, NodeId subject, Status status,
                    std::uint32_t incarnation);
  void send_with_piggyback(NodeId self, NodeId to, std::uint32_t kind,
                           std::vector<std::uint8_t> head);
  void confirm_dead(NodeId self, NodeId subject, std::uint32_t incarnation,
                    bool local_verdict);
  [[nodiscard]] NodeId next_probe_target(NodeState& st, NodeId self);
  [[nodiscard]] std::uint32_t dissemination_budget() const;

  SwimParams params_;
  std::vector<NodeState> nodes_;
};

}  // namespace canely::baselines
