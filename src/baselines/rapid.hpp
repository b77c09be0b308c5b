#pragma once
// Rapid-style stable membership via multi-observer cut detection
// (Suresh et al., "Stable and Consistent Membership at Scale with
// Rapid", USENIX ATC 2018) on the lossy net::Medium — the
// view-stability baseline of the membership shootout (DESIGN.md §13).
//
// The expander-graph monitoring topology is modelled as K independent
// ring permutations: in ring r, each node is observed by its
// predecessor, so every node has K observers and observes K subjects.
// Observers that miss `miss_threshold` consecutive heartbeats broadcast
// an ALERT(ring, subject); hearing the subject again before the cut
// retracts it.  Every node tallies alerts per subject as a ring
// bitmask and applies the almost-everywhere agreement rule:
//
//   * tally >= H            -> subject is in the proposed cut
//   * L < tally < H         -> unstable: delay, more reports coming
//   * proposal non-empty, nothing unstable, tallies quiet for `settle`
//                           -> install the WHOLE proposal as ONE view
//                              change (the multi-node batch that keeps
//                              Rapid's view count low under correlated
//                              failure)
//
// H is lowered per subject by the number of its observers that are
// themselves in the proposal (a dead observer can never report), so
// correlated crashes that take out observers still converge.

#include <cstdint>
#include <vector>

#include "baselines/membership_baseline.hpp"
#include "sim/rng.hpp"

namespace canely::baselines {

struct RapidParams {
  std::size_t rings{8};             ///< K observers per subject (<= 32)
  sim::Time period{sim::Time::ms(200)};  ///< heartbeat interval
  std::size_t miss_threshold{3};    ///< silent periods before ALERT
  std::size_t high_watermark{6};    ///< H: tally that joins the proposal
  std::size_t low_watermark{2};     ///< L: below = noise, above = unstable
  sim::Time settle{sim::Time::ms(400)};  ///< quiet time before the cut
};

class RapidCluster final : public MembershipBaseline {
 public:
  RapidCluster(net::Medium& net, std::size_t n, RapidParams params,
               std::uint64_t seed, obs::Recorder* recorder = nullptr);

  /// Arm every node's heartbeat/observation period (staggered phases).
  void start() override;

  /// Fail-stop crash: stops heartbeating, observing and tallying.
  void crash(NodeId node) override;

  [[nodiscard]] const RapidParams& params() const { return params_; }

  /// Cut batches installed by `node` so far (each is one view change
  /// covering >= 1 subjects — the stability metric's denominator).
  [[nodiscard]] std::uint64_t cuts_installed(NodeId node) const {
    return nodes_[node].cuts;
  }

 private:
  struct Watch {              // one (ring, subject) observation duty
    std::uint32_t ring{0};
    NodeId subject{0};
    sim::Time last_heard{sim::Time::zero()};
    bool alerted{false};
  };

  struct NodeState {
    sim::Rng rng{0};
    std::vector<Watch> watches;          // the K subjects this node observes
    std::vector<std::uint32_t> tally;    // per subject: ring bitmask of alerts
    std::vector<bool> dead;              // locally cut subjects (final)
    sim::Time last_tally_change{sim::Time::zero()};
    std::uint64_t cuts{0};
  };

  void tick(NodeId self);
  void on_message(NodeId self, const Message& msg);
  void apply_alert(NodeId self, NodeId subject, std::uint32_t ring, bool raise);
  void maybe_cut(NodeId self);
  [[nodiscard]] std::size_t high_watermark_for(const NodeState& st,
                                               NodeId subject) const;

  RapidParams params_;
  std::vector<NodeState> nodes_;
  /// observers_[r][s] = the node observing subject s in ring r.
  std::vector<std::vector<NodeId>> observers_;
};

}  // namespace canely::baselines
