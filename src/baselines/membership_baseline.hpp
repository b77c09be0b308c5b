#pragma once
// Shared scaffolding of the distributed-membership baselines
// (DESIGN.md §13): per-node views, fail-stop ground truth, failure
// notification and view-change accounting, identical across SWIM,
// gossip and the Rapid-style cut detector so the shootout compares
// protocols, not harness plumbing.

#include <functional>
#include <vector>

#include "net/medium.hpp"
#include "obs/recorder.hpp"

namespace canely::baselines {

// The baselines speak the net layer's message vocabulary directly.
using net::get_u32;
using net::get_u64;
using net::kBroadcast;
using net::Members;
using net::Message;
using net::NodeId;
using net::put_u32;
using net::put_u64;

class MembershipBaseline {
 public:
  /// Fires when `observer` declares `failed` faulty and removes it from
  /// its view.  Fires once per (observer, failed) declaration — a
  /// later rejoin (false-positive recovery) re-arms it.
  using FailureHandler = std::function<void(NodeId observer, NodeId failed)>;

  virtual ~MembershipBaseline() = default;

  /// Arm every node's protocol timers (staggered start phases).
  virtual void start() = 0;

  /// Fail-stop crash at the protocol level: the node's timers and
  /// handlers go silent (pair with Medium::crash for the wire side).
  virtual void crash(NodeId node) = 0;

  void set_failure_handler(FailureHandler handler) {
    on_failure_ = std::move(handler);
  }

  /// Membership view currently held by `node`.
  [[nodiscard]] const Members& view(NodeId node) const {
    return views_[node];
  }

  /// Ground truth: has the harness crashed this node?
  [[nodiscard]] bool crashed(NodeId node) const { return crashed_[node]; }

  /// Total view installations across all nodes since start (the view-
  /// stability metric: a protocol that batches a multi-node failure into
  /// one cut counts once per node, one that trickles counts once per
  /// failure per node, and flapping counts every flap).
  [[nodiscard]] std::uint64_t view_changes() const { return view_changes_; }

  /// True when every non-crashed node's view equals `expect`.
  [[nodiscard]] bool views_agree(const Members& expect) const {
    for (NodeId i = 0; i < views_.size(); ++i) {
      if (!crashed_[i] && !(views_[i] == expect)) return false;
    }
    return true;
  }

  [[nodiscard]] std::size_t size() const { return views_.size(); }

 protected:
  MembershipBaseline(net::Medium& net, std::size_t n,
                     obs::Recorder* recorder)
      : net_{net},
        recorder_{recorder},
        views_(n, Members::all(n)),
        crashed_(n, false) {}

  /// One view installation at `node` (counter + obs wiring).  The ring
  /// event reuses CANELy's kViewInstall vocabulary so the Perfetto
  /// writer renders baseline timelines on the same tracks; the payload
  /// bitmap carries word 0 of the view (the whole view for n <= 64 —
  /// the only sizes the shootout records rings for).
  void note_view_change(NodeId node) {
    ++view_changes_;
    if (recorder_ != nullptr) {
      recorder_->metrics().counter("msh.view_changes").add();
      obs::Event e;
      e.when = net_.engine().now();
      e.kind = obs::EventKind::kViewInstall;
      e.node = static_cast<std::uint8_t>(node);
      e.u.view.members =
          views_[node].words().empty() ? 0 : views_[node].words().front();
      recorder_->emit(e);
    }
  }

  void notify_failure(NodeId observer, NodeId failed) {
    if (recorder_ != nullptr) {
      obs::Event e;
      e.when = net_.engine().now();
      e.kind = obs::EventKind::kFdSuspect;
      e.node = static_cast<std::uint8_t>(observer);
      e.u.peer.peer = static_cast<std::uint8_t>(failed);
      recorder_->emit(e);
    }
    if (on_failure_) on_failure_(observer, failed);
  }

  /// Fail-stop bookkeeping shared by every subclass's crash().
  void note_crash(NodeId node) {
    crashed_[node] = true;
    if (recorder_ != nullptr) {
      obs::Event e;
      e.when = net_.engine().now();
      e.kind = obs::EventKind::kNodeCrash;
      e.node = static_cast<std::uint8_t>(node);
      recorder_->emit(e);
    }
  }

  net::Medium& net_;
  obs::Recorder* recorder_;
  std::vector<Members> views_;
  std::vector<bool> crashed_;

 private:
  FailureHandler on_failure_;
  std::uint64_t view_changes_{0};
};

}  // namespace canely::baselines
