#include "baselines/swim.hpp"

#include <algorithm>
#include <bit>

namespace canely::baselines {
namespace {

constexpr std::uint32_t kPing = 1;     // head: [seq u32]
constexpr std::uint32_t kAck = 2;      // head: [seq u32]
constexpr std::uint32_t kPingReq = 3;  // head: [seq u32][target u32]
constexpr std::uint32_t kPingFwd = 4;  // head: [seq u32][origin u32]

constexpr std::size_t kUpdateBytes = 9;  // subject u32, status u8, inc u32

}  // namespace

SwimCluster::SwimCluster(net::Medium& net, std::size_t n, SwimParams params,
                         std::uint64_t seed, obs::Recorder* recorder)
    : MembershipBaseline{net, n, recorder}, params_{params}, nodes_(n) {
  sim::Rng master{seed};
  for (NodeId self = 0; self < n; ++self) {
    NodeState& st = nodes_[self];
    st.rng = master.fork();
    st.status.assign(n, Status::kAlive);
    st.incarnation.assign(n, 0);
    st.suspect_since.assign(n, sim::Time::zero());
    st.probe_order.reserve(n - 1);
    for (NodeId peer = 0; peer < n; ++peer) {
      if (peer != self) st.probe_order.push_back(peer);
    }
    // Initial shuffle; re-shuffled after every full traversal (the
    // SWIM paper's randomized round-robin: worst-case detection is one
    // traversal, expected is O(1) periods).
    for (std::size_t i = st.probe_order.size(); i > 1; --i) {
      std::swap(st.probe_order[i - 1],
                st.probe_order[static_cast<std::size_t>(st.rng.below(i))]);
    }
    net_.attach(self, [this, self](const Message& m) { on_message(self, m); });
  }
}

std::uint32_t SwimCluster::dissemination_budget() const {
  const auto log2n =
      static_cast<double>(std::bit_width(nodes_.size()));  // ceil log2(n+1)
  const double b = params_.dissemination_lambda * log2n;
  return b < 1.0 ? 1 : static_cast<std::uint32_t>(b + 0.999999);
}

void SwimCluster::start() {
  for (NodeId self = 0; self < nodes_.size(); ++self) {
    // Random start phase: real deployments' periods are unsynchronized,
    // and lockstep probing would make every node suspect simultaneously.
    const auto phase = sim::Time::ns(static_cast<std::int64_t>(
        nodes_[self].rng.below(
            static_cast<std::uint64_t>(params_.period.to_ns()))));
    net_.engine().schedule_after(phase, [this, self] { tick(self); });
  }
}

void SwimCluster::crash(NodeId node) { note_crash(node); }

NodeId SwimCluster::next_probe_target(NodeState& st, NodeId self) {
  for (std::size_t tries = 0; tries < st.probe_order.size(); ++tries) {
    if (st.probe_idx >= st.probe_order.size()) {
      st.probe_idx = 0;
      for (std::size_t i = st.probe_order.size(); i > 1; --i) {
        std::swap(st.probe_order[i - 1],
                  st.probe_order[static_cast<std::size_t>(st.rng.below(i))]);
      }
    }
    const NodeId t = st.probe_order[st.probe_idx++];
    if (st.status[t] != Status::kDead) return t;
  }
  return self;  // nobody left to probe
}

void SwimCluster::tick(NodeId self) {
  if (crashed_[self]) return;
  NodeState& st = nodes_[self];

  // Verdict of the previous period's probe: total silence => suspect.
  if (st.ack_pending) {
    st.ack_pending = false;
    apply_update(self, st.probe_target, Status::kSuspect,
                 st.incarnation[st.probe_target]);
  }

  // Suspicion timeouts: suspect -> confirmed dead (final).
  const sim::Time deadline =
      params_.period * static_cast<std::int64_t>(params_.suspicion_periods);
  for (NodeId p = 0; p < st.status.size(); ++p) {
    if (st.status[p] == Status::kSuspect &&
        net_.engine().now() - st.suspect_since[p] >= deadline) {
      confirm_dead(self, p, st.incarnation[p], /*local_verdict=*/true);
    }
  }

  // Probe the next round-robin target.
  const NodeId target = next_probe_target(st, self);
  if (target != self) {
    const std::uint32_t seq = ++st.probe_seq;
    st.probe_target = target;
    st.ack_pending = true;
    std::vector<std::uint8_t> head;
    put_u32(head, seq);
    send_with_piggyback(self, target, kPing, std::move(head));
    net_.engine().schedule_after(params_.ack_timeout, [this, self, seq] {
      if (crashed_[self]) return;
      NodeState& s2 = nodes_[self];
      if (!s2.ack_pending || s2.probe_seq != seq) return;
      // Direct probe silent: ask k proxies for an indirect probe.
      std::vector<NodeId> candidates;
      for (NodeId p = 0; p < s2.status.size(); ++p) {
        if (p != self && p != s2.probe_target &&
            s2.status[p] == Status::kAlive) {
          candidates.push_back(p);
        }
      }
      const std::size_t k =
          std::min(params_.ping_req_fanout, candidates.size());
      for (std::size_t i = 0; i < k; ++i) {
        const std::size_t pick =
            i + static_cast<std::size_t>(
                    s2.rng.below(candidates.size() - i));
        std::swap(candidates[i], candidates[pick]);
        std::vector<std::uint8_t> h;
        put_u32(h, seq);
        put_u32(h, s2.probe_target);
        send_with_piggyback(self, candidates[i], kPingReq, std::move(h));
      }
    });
  }

  net_.engine().schedule_after(params_.period, [this, self] { tick(self); });
}

void SwimCluster::on_message(NodeId self, const Message& msg) {
  if (crashed_[self]) return;
  NodeState& st = nodes_[self];
  const std::vector<std::uint8_t>& b = msg.bytes;

  std::size_t head_len = 4;                        // [seq]
  if (msg.kind == kPingReq || msg.kind == kPingFwd) head_len = 8;
  if (b.size() < head_len + 1) return;

  // Piggybacked updates first: they may refute a suspicion the head's
  // handling would otherwise act on.
  const std::size_t count = b[head_len];
  std::size_t at = head_len + 1;
  for (std::size_t i = 0; i < count && at + kUpdateBytes <= b.size();
       ++i, at += kUpdateBytes) {
    const NodeId subject = get_u32(b, at);
    const auto status = static_cast<Status>(b[at + 4]);
    const std::uint32_t inc = get_u32(b, at + 5);
    if (subject < st.status.size()) {
      apply_update(self, subject, status, inc);
    }
  }

  const std::uint32_t seq = get_u32(b, 0);
  switch (msg.kind) {
    case kPing: {
      std::vector<std::uint8_t> head;
      put_u32(head, seq);
      send_with_piggyback(self, msg.from, kAck, std::move(head));
      break;
    }
    case kPingReq: {  // we are the proxy: forward the probe
      const NodeId target = get_u32(b, 4);
      if (target >= st.status.size()) break;
      std::vector<std::uint8_t> head;
      put_u32(head, seq);
      put_u32(head, msg.from);  // origin: the target acks it directly
      send_with_piggyback(self, target, kPingFwd, std::move(head));
      break;
    }
    case kPingFwd: {  // we are the probed target of an indirect probe
      const NodeId origin = get_u32(b, 4);
      if (origin >= st.status.size()) break;
      std::vector<std::uint8_t> head;
      put_u32(head, seq);
      send_with_piggyback(self, origin, kAck, std::move(head));
      break;
    }
    case kAck: {
      if (st.ack_pending && st.probe_seq == seq) {
        st.ack_pending = false;
        // Firsthand liveness: clear any local suspicion of the target
        // (dissemination-level refutation still needs the incarnation
        // bump, which the suspect update delivers to the target itself).
        if (st.status[st.probe_target] == Status::kSuspect) {
          st.status[st.probe_target] = Status::kAlive;
        }
      }
      break;
    }
    default:
      break;
  }
}

void SwimCluster::apply_update(NodeId self, NodeId subject, Status status,
                               std::uint32_t incarnation) {
  NodeState& st = nodes_[self];
  if (subject == self) {
    // Someone suspects (or worse, buried) us: refute with a higher
    // incarnation.  A node cannot refute its own confirmed death — by
    // then the cluster has moved on, exactly as SWIM specifies.
    if (status == Status::kSuspect && incarnation >= st.own_incarnation) {
      st.own_incarnation = incarnation + 1;
      queue_update(self, self, Status::kAlive, st.own_incarnation);
    }
    return;
  }
  if (st.status[subject] == Status::kDead) return;  // dead is final

  switch (status) {
    case Status::kAlive:
      if (incarnation > st.incarnation[subject]) {
        st.incarnation[subject] = incarnation;
        st.status[subject] = Status::kAlive;
        queue_update(self, subject, Status::kAlive, incarnation);
      }
      break;
    case Status::kSuspect:
      if (incarnation >= st.incarnation[subject]) {
        if (st.status[subject] == Status::kAlive) {
          st.status[subject] = Status::kSuspect;
          st.suspect_since[subject] = net_.engine().now();
          queue_update(self, subject, Status::kSuspect, incarnation);
        }
        st.incarnation[subject] = incarnation;
      }
      break;
    case Status::kDead:
      confirm_dead(self, subject, incarnation, /*local_verdict=*/false);
      break;
  }
}

void SwimCluster::confirm_dead(NodeId self, NodeId subject,
                               std::uint32_t incarnation, bool local_verdict) {
  (void)local_verdict;
  NodeState& st = nodes_[self];
  if (st.status[subject] == Status::kDead) return;
  st.status[subject] = Status::kDead;
  if (incarnation > st.incarnation[subject]) {
    st.incarnation[subject] = incarnation;
  }
  views_[self].erase(subject);
  note_view_change(self);
  queue_update(self, subject, Status::kDead, st.incarnation[subject]);
  notify_failure(self, subject);
}

void SwimCluster::queue_update(NodeId self, NodeId subject, Status status,
                               std::uint32_t incarnation) {
  NodeState& st = nodes_[self];
  for (Update& u : st.updates) {
    if (u.subject == subject) {  // one slot per subject: supersede
      u.status = status;
      u.incarnation = incarnation;
      u.sends_left = dissemination_budget();
      return;
    }
  }
  st.updates.push_back(
      Update{subject, status, incarnation, dissemination_budget()});
}

void SwimCluster::send_with_piggyback(NodeId self, NodeId to,
                                      std::uint32_t kind,
                                      std::vector<std::uint8_t> head) {
  NodeState& st = nodes_[self];
  // Freshest-first: updates with the most remaining retransmissions are
  // the youngest news.  Stable sort keeps ties in queue order, so the
  // selection is deterministic.
  std::stable_sort(st.updates.begin(), st.updates.end(),
                   [](const Update& a, const Update& b) {
                     return a.sends_left > b.sends_left;
                   });
  const std::size_t take = std::min(params_.piggyback_limit,
                                    st.updates.size());
  head.push_back(static_cast<std::uint8_t>(take));
  for (std::size_t i = 0; i < take; ++i) {
    Update& u = st.updates[i];
    put_u32(head, u.subject);
    head.push_back(static_cast<std::uint8_t>(u.status));
    put_u32(head, u.incarnation);
    --u.sends_left;
  }
  st.updates.erase(std::remove_if(st.updates.begin(), st.updates.end(),
                                  [](const Update& u) {
                                    return u.sends_left == 0;
                                  }),
                   st.updates.end());
  Message msg;
  msg.from = self;
  msg.to = to;
  msg.kind = kind;
  msg.bytes = std::move(head);
  net_.send(std::move(msg));
}

}  // namespace canely::baselines
