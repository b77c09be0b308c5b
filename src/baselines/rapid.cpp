#include "baselines/rapid.hpp"

#include <algorithm>
#include <bit>

namespace canely::baselines {
namespace {

constexpr std::uint32_t kHeartbeat = 1;  // payload: none (from = subject)
constexpr std::uint32_t kAlert = 2;      // payload: [subject u32][ring u8]
constexpr std::uint32_t kRetract = 3;    // payload: [subject u32][ring u8]

}  // namespace

RapidCluster::RapidCluster(net::Medium& net, std::size_t n, RapidParams params,
                           std::uint64_t seed, obs::Recorder* recorder)
    : MembershipBaseline{net, n, recorder}, params_{params}, nodes_(n) {
  params_.rings = std::min<std::size_t>(params_.rings, 32);
  params_.high_watermark =
      std::min(params_.high_watermark, params_.rings);

  sim::Rng master{seed};
  sim::Rng topo = master.fork();  // monitoring topology, shared by all

  observers_.assign(params_.rings, std::vector<NodeId>(n, 0));
  for (NodeId self = 0; self < n; ++self) {
    NodeState& st = nodes_[self];
    st.rng = master.fork();
    st.tally.assign(n, 0);
    st.dead.assign(n, false);
  }

  std::vector<NodeId> perm(n);
  for (std::uint32_t ring = 0; ring < params_.rings; ++ring) {
    for (NodeId i = 0; i < n; ++i) perm[i] = i;
    for (std::size_t i = n; i > 1; --i) {
      std::swap(perm[i - 1], perm[static_cast<std::size_t>(topo.below(i))]);
    }
    // Ring r: perm[i] observes its successor perm[i+1].
    for (std::size_t i = 0; i < n; ++i) {
      const NodeId watcher = perm[i];
      const NodeId subject = perm[(i + 1) % n];
      if (watcher == subject) continue;  // n == 1 degenerate
      observers_[ring][subject] = watcher;
      nodes_[watcher].watches.push_back(Watch{ring, subject,
                                              sim::Time::zero(), false});
    }
  }

  for (NodeId self = 0; self < n; ++self) {
    net_.attach(self, [this, self](const Message& m) { on_message(self, m); });
  }
}

void RapidCluster::start() {
  for (NodeId self = 0; self < nodes_.size(); ++self) {
    NodeState& st = nodes_[self];
    for (Watch& w : st.watches) w.last_heard = net_.engine().now();
    const auto phase = sim::Time::ns(static_cast<std::int64_t>(
        st.rng.below(static_cast<std::uint64_t>(params_.period.to_ns()))));
    net_.engine().schedule_after(phase, [this, self] { tick(self); });
  }
}

void RapidCluster::crash(NodeId node) { note_crash(node); }

std::size_t RapidCluster::high_watermark_for(const NodeState& st,
                                             NodeId subject) const {
  // A ring whose observer is itself condemned (locally dead, or its own
  // tally already at H) can never contribute an alert: lower H by one
  // for each such ring, so correlated crashes that take out observers
  // still cross the watermark.
  std::size_t vacant = 0;
  for (std::uint32_t ring = 0; ring < params_.rings; ++ring) {
    const NodeId o = observers_[ring][subject];
    if (st.dead[o] ||
        static_cast<std::size_t>(std::popcount(st.tally[o])) >=
            params_.high_watermark) {
      ++vacant;
    }
  }
  return params_.high_watermark > vacant + 1
             ? params_.high_watermark - vacant
             : 1;
}

void RapidCluster::tick(NodeId self) {
  if (crashed_[self]) return;
  NodeState& st = nodes_[self];
  const sim::Time now = net_.engine().now();

  // Heartbeat to each distinct observer of this node.
  std::vector<NodeId> targets;
  for (std::uint32_t ring = 0; ring < params_.rings; ++ring) {
    const NodeId o = observers_[ring][self];
    if (o != self && !st.dead[o]) targets.push_back(o);
  }
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
  for (const NodeId o : targets) {
    Message msg;
    msg.from = self;
    msg.to = o;
    msg.kind = kHeartbeat;
    net_.send(std::move(msg));
  }

  // Observation duties: raise an alert after miss_threshold silent
  // periods (retraction happens on the next heartbeat received).
  const sim::Time deadline =
      params_.period * static_cast<std::int64_t>(params_.miss_threshold);
  for (Watch& w : st.watches) {
    if (st.dead[w.subject] || w.alerted) continue;
    if (now - w.last_heard >= deadline) {
      w.alerted = true;
      std::vector<std::uint8_t> bytes;
      put_u32(bytes, w.subject);
      bytes.push_back(static_cast<std::uint8_t>(w.ring));
      Message msg;
      msg.from = self;
      msg.to = kBroadcast;
      msg.kind = kAlert;
      msg.bytes = std::move(bytes);
      net_.send(std::move(msg));
      apply_alert(self, w.subject, w.ring, /*raise=*/true);
    }
  }

  maybe_cut(self);
  net_.engine().schedule_after(params_.period, [this, self] { tick(self); });
}

void RapidCluster::on_message(NodeId self, const Message& msg) {
  if (crashed_[self]) return;
  NodeState& st = nodes_[self];
  switch (msg.kind) {
    case kHeartbeat: {
      for (Watch& w : st.watches) {
        if (w.subject != msg.from) continue;
        w.last_heard = net_.engine().now();
        if (w.alerted && !st.dead[w.subject]) {
          // The subject is back before the cut: retract our alert.
          w.alerted = false;
          std::vector<std::uint8_t> bytes;
          put_u32(bytes, w.subject);
          bytes.push_back(static_cast<std::uint8_t>(w.ring));
          Message retract;
          retract.from = self;
          retract.to = kBroadcast;
          retract.kind = kRetract;
          retract.bytes = std::move(bytes);
          net_.send(std::move(retract));
          apply_alert(self, w.subject, w.ring, /*raise=*/false);
        }
      }
      break;
    }
    case kAlert:
    case kRetract: {
      if (msg.bytes.size() < 5) break;
      const NodeId subject = get_u32(msg.bytes, 0);
      const std::uint32_t ring = msg.bytes[4];
      if (subject < st.tally.size() && ring < params_.rings &&
          observers_[ring][subject] == msg.from) {
        apply_alert(self, subject, ring, msg.kind == kAlert);
      }
      break;
    }
    default:
      break;
  }
}

void RapidCluster::apply_alert(NodeId self, NodeId subject, std::uint32_t ring,
                               bool raise) {
  NodeState& st = nodes_[self];
  if (st.dead[subject]) return;
  const std::uint32_t bit = 1u << ring;
  const std::uint32_t before = st.tally[subject];
  st.tally[subject] = raise ? before | bit : before & ~bit;
  if (st.tally[subject] != before) {
    st.last_tally_change = net_.engine().now();
    maybe_cut(self);
  }
}

void RapidCluster::maybe_cut(NodeId self) {
  NodeState& st = nodes_[self];

  std::vector<NodeId> proposal;
  for (NodeId s = 0; s < st.tally.size(); ++s) {
    if (st.dead[s] || st.tally[s] == 0) continue;
    const auto count = static_cast<std::size_t>(std::popcount(st.tally[s]));
    if (count >= high_watermark_for(st, s)) {
      proposal.push_back(s);
    } else if (count > params_.low_watermark) {
      return;  // unstable region: more reports are coming, delay the cut
    }
  }
  if (proposal.empty()) return;
  if (net_.engine().now() - st.last_tally_change < params_.settle) {
    return;  // quiet period not yet elapsed; rechecked every tick
  }

  // Install the whole proposal as ONE view change — Rapid's batching.
  for (const NodeId s : proposal) {
    st.dead[s] = true;
    st.tally[s] = 0;
    views_[self].erase(s);
    notify_failure(self, s);
  }
  note_view_change(self);
  ++st.cuts;
}

}  // namespace canely::baselines
