#pragma once
// Gossip-style heartbeat membership (van Renesse, Minsky & Hayden 1998;
// the SWIM paper's "heartbeating" strawman) on the lossy net::Medium —
// the bandwidth-hungry baseline of the membership shootout
// (DESIGN.md §13).
//
// Every node keeps a table of per-peer heartbeat counters.  Each period
// it bumps its own counter and pushes state to the cluster:
//
//  * fanout == 0 — all-to-all heartbeating: broadcast just the node's
//    own entry.  O(n^2) messages per period cluster-wide, but detection
//    is direct (every node times out every peer independently).
//  * fanout  > 0 — epidemic push: send the full table to `fanout`
//    randomly chosen peers; entries spread in O(log n) rounds.
//
// A peer whose counter stalls for `fail_timeout` is declared failed and
// dropped from the view; if a newer counter arrives before
// `cleanup_timeout` expires the peer is reinstated (false-positive
// recovery), after which the entry is tombstoned for good.  Detection
// latency is timeout-bound rather than probe-bound, the trade the
// shootout curves show against SWIM.

#include <cstdint>
#include <vector>

#include "baselines/membership_baseline.hpp"
#include "sim/rng.hpp"

namespace canely::baselines {

struct GossipParams {
  sim::Time period{sim::Time::ms(200)};            ///< heartbeat interval
  std::size_t fanout{0};                           ///< 0 = all-to-all
  sim::Time fail_timeout{sim::Time::ms(1000)};     ///< stall -> failed
  sim::Time cleanup_timeout{sim::Time::ms(2000)};  ///< failed -> tombstone
};

class GossipCluster final : public MembershipBaseline {
 public:
  GossipCluster(net::Medium& net, std::size_t n, GossipParams params,
                std::uint64_t seed, obs::Recorder* recorder = nullptr);

  /// Arm every node's heartbeat period (staggered start phases).
  void start() override;

  /// Fail-stop crash: the node stops heartbeating and gossiping.
  void crash(NodeId node) override;

  [[nodiscard]] const GossipParams& params() const { return params_; }

 private:
  enum class State : std::uint8_t { kAlive = 0, kFailed = 1, kRemoved = 2 };

  struct Entry {
    std::uint64_t heartbeat{0};
    sim::Time last_updated{sim::Time::zero()};
    State state{State::kAlive};
  };

  struct NodeState {
    sim::Rng rng{0};
    std::vector<Entry> table;  // one row per peer (and self)
  };

  void tick(NodeId self);
  void on_message(NodeId self, const Message& msg);
  void merge_entry(NodeId self, NodeId subject, std::uint64_t heartbeat);
  [[nodiscard]] std::vector<std::uint8_t> encode_own(NodeId self) const;
  [[nodiscard]] std::vector<std::uint8_t> encode_table(NodeId self) const;

  GossipParams params_;
  std::vector<NodeState> nodes_;
};

}  // namespace canely::baselines
