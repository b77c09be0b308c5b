#pragma once
// Deterministic, seeded, lossy point-to-point message medium
// (DESIGN.md §13) — the network the SWIM, gossip and Rapid-style
// baselines run on.
//
// Models a general asynchronous network: every ordered pair of nodes is
// a link with its own delay distribution (uniform in [delay_min,
// delay_max] — a nonzero spread makes reordering possible), independent
// drop and duplicate probabilities, and an optional partition mask.
// All draws come from one xoshiro stream seeded at construction and
// consumed in send order, so a run is a pure function of (seed, send
// sequence): same seed, same sends => byte-identical delivery schedule,
// which tests/test_net_medium.cpp asserts.
//
// Degeneracy property (also asserted): with zero loss, zero duplication
// and a constant delay the medium is a global FIFO — messages deliver in
// exactly the order they were sent, because equal-timestamp events fire
// in scheduling order (sim::Engine's determinism rule).
//
// Delivery contract the baselines rely on:
//   * handlers run from engine events, never re-entrantly inside send();
//   * a send() at time t delivers at some t' > t or never (drop);
//   * all nondeterminism (delay draws, drops, duplicates) derives from
//     the medium's own seeded Rng — a run is a pure function of
//     (seed, send sequence), per the determinism zone rules.

#include <functional>
#include <map>
#include <vector>

#include "net/types.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace canely::net {

/// Cumulative traffic counters of a medium.  `sent` counts one copy per
/// receiver: a broadcast of fan-out f counts f, and a duplicate counts
/// again.  A CAN wire reaches every node with one frame, so this per-copy
/// charge is the bandwidth edge the membership shootout measures.
struct TransportStats {
  std::uint64_t sent{0};
  std::uint64_t delivered{0};
  std::uint64_t dropped{0};     ///< loss draws + partition/crash filtering
  std::uint64_t duplicated{0};  ///< extra copies injected by dup_p
  std::uint64_t bytes_sent{0};
  std::uint64_t bytes_delivered{0};
};

/// Per-link behavior.  Defaults are a perfect wire (FIFO degeneracy).
struct LinkModel {
  sim::Time delay_min{sim::Time::zero()};
  sim::Time delay_max{sim::Time::zero()};  ///< uniform in [min, max]
  double drop_p{0.0};
  double dup_p{0.0};
};

struct MediumConfig {
  std::size_t n{0};          ///< nodes 0..n-1
  LinkModel default_link{};  ///< used unless set_link() overrides a pair
  /// Per-copy fixed cost added to the payload size when charging
  /// bytes_sent (transport/IP/UDP-style framing; 32 mirrors common
  /// membership implementations' small-header regime).
  std::uint32_t header_bytes{32};
};

class Medium {
 public:
  using Handler = std::function<void(const Message&)>;

  Medium(sim::Engine& engine, MediumConfig config, std::uint64_t seed);

  /// Register `node`'s delivery handler.  One handler per node; a
  /// message to a node with no handler is counted dropped.
  void attach(NodeId node, Handler handler);

  /// Queue a message.  `to` may be kBroadcast (delivered to every
  /// attached node except `from`, each copy charged separately).
  void send(Message msg);

  /// The engine this medium schedules on (protocol timers live here).
  [[nodiscard]] sim::Engine& engine() { return engine_; }

  [[nodiscard]] const TransportStats& stats() const { return stats_; }

  /// Override the model of the directed link `from -> to`.
  void set_link(NodeId from, NodeId to, LinkModel model);

  /// Partition mask: node i may talk to node j iff
  /// (mask[i] & mask[j]) != 0.  A node with mask 0 is fully isolated.
  /// Copies in flight when the mask changes still deliver (they are
  /// already "on the wire"); new sends are filtered.  The default mask
  /// is all-ones (one connected component).
  void set_partition(std::vector<std::uint64_t> mask);
  void clear_partition();

  /// Silence a node at the medium level: it neither sends nor receives
  /// from now on (in-flight copies addressed to it are dropped at
  /// delivery time).  This is the fail-stop model the baselines assume.
  void crash(NodeId node);
  [[nodiscard]] bool crashed(NodeId node) const {
    return node < config_.n && crashed_[node];
  }

  /// Structured observability (non-owning; may be null): net.msgs_sent /
  /// net.bytes_sent / net.msgs_dropped counters.
  void set_recorder(obs::Recorder* recorder) { recorder_ = recorder; }

  [[nodiscard]] const MediumConfig& config() const { return config_; }

 private:
  [[nodiscard]] const LinkModel& link(NodeId from, NodeId to) const;
  [[nodiscard]] bool reachable(NodeId from, NodeId to) const;
  void transmit_copy(const Message& msg, const LinkModel& m, bool duplicate);
  void deliver(const Message& msg);

  sim::Engine& engine_;
  MediumConfig config_;
  sim::Rng rng_;
  std::vector<Handler> handlers_;
  std::vector<bool> crashed_;
  std::vector<std::uint64_t> partition_;  ///< empty = no partition
  /// Sparse per-pair overrides, keyed (from << 32 | to); std::map for
  /// deterministic iteration per the zone rules (never iterated hot).
  std::map<std::uint64_t, LinkModel> links_;
  TransportStats stats_;
  obs::Recorder* recorder_{nullptr};
};

}  // namespace canely::net
