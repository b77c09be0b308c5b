#include "baselines/gossip.hpp"

namespace canely::baselines {
namespace {

constexpr std::uint32_t kPush = 1;  // payload: [count u32] count x entry
constexpr std::size_t kEntryBytes = 12;  // subject u32, heartbeat u64

}  // namespace

GossipCluster::GossipCluster(net::Medium& net, std::size_t n,
                             GossipParams params, std::uint64_t seed,
                             obs::Recorder* recorder)
    : MembershipBaseline{net, n, recorder}, params_{params}, nodes_(n) {
  sim::Rng master{seed};
  for (NodeId self = 0; self < n; ++self) {
    NodeState& st = nodes_[self];
    st.rng = master.fork();
    st.table.assign(n, Entry{});
    net_.attach(self, [this, self](const Message& m) { on_message(self, m); });
  }
}

void GossipCluster::start() {
  for (NodeId self = 0; self < nodes_.size(); ++self) {
    NodeState& st = nodes_[self];
    // Grace: every row starts "just heard" so nobody times out a peer
    // before one full fail_timeout has elapsed.
    for (Entry& e : st.table) e.last_updated = net_.engine().now();
    const auto phase = sim::Time::ns(static_cast<std::int64_t>(
        st.rng.below(static_cast<std::uint64_t>(params_.period.to_ns()))));
    net_.engine().schedule_after(phase, [this, self] { tick(self); });
  }
}

void GossipCluster::crash(NodeId node) { note_crash(node); }

std::vector<std::uint8_t> GossipCluster::encode_own(NodeId self) const {
  std::vector<std::uint8_t> bytes;
  put_u32(bytes, 1);
  put_u32(bytes, self);
  put_u64(bytes, nodes_[self].table[self].heartbeat);
  return bytes;
}

std::vector<std::uint8_t> GossipCluster::encode_table(NodeId self) const {
  const NodeState& st = nodes_[self];
  std::vector<std::uint8_t> bytes;
  std::uint32_t count = 0;
  put_u32(bytes, 0);  // patched below
  for (NodeId p = 0; p < st.table.size(); ++p) {
    if (st.table[p].state == State::kRemoved) continue;  // tombstoned
    put_u32(bytes, p);
    put_u64(bytes, st.table[p].heartbeat);
    ++count;
  }
  bytes[0] = static_cast<std::uint8_t>(count);
  bytes[1] = static_cast<std::uint8_t>(count >> 8);
  bytes[2] = static_cast<std::uint8_t>(count >> 16);
  bytes[3] = static_cast<std::uint8_t>(count >> 24);
  return bytes;
}

void GossipCluster::tick(NodeId self) {
  if (crashed_[self]) return;
  NodeState& st = nodes_[self];
  const sim::Time now = net_.engine().now();

  ++st.table[self].heartbeat;
  st.table[self].last_updated = now;

  // Timeout sweep over this node's local clock view of every peer.
  for (NodeId p = 0; p < st.table.size(); ++p) {
    if (p == self) continue;
    Entry& e = st.table[p];
    if (e.state == State::kAlive && now - e.last_updated >= params_.fail_timeout) {
      e.state = State::kFailed;
      views_[self].erase(p);
      note_view_change(self);
      notify_failure(self, p);
    } else if (e.state == State::kFailed &&
               now - e.last_updated >= params_.cleanup_timeout) {
      e.state = State::kRemoved;  // tombstone: stale counters can't flap
    }
  }

  if (params_.fanout == 0) {
    // All-to-all heartbeating: own counter to everyone, one broadcast.
    Message msg;
    msg.from = self;
    msg.to = kBroadcast;
    msg.kind = kPush;
    msg.bytes = encode_own(self);
    net_.send(std::move(msg));
  } else {
    // Epidemic push: full table to `fanout` random distinct peers.
    std::vector<NodeId> candidates;
    for (NodeId p = 0; p < st.table.size(); ++p) {
      if (p != self && st.table[p].state == State::kAlive) {
        candidates.push_back(p);
      }
    }
    const std::size_t k = std::min(params_.fanout, candidates.size());
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t pick =
          i + static_cast<std::size_t>(st.rng.below(candidates.size() - i));
      std::swap(candidates[i], candidates[pick]);
      Message msg;
      msg.from = self;
      msg.to = candidates[i];
      msg.kind = kPush;
      msg.bytes = encode_table(self);
      net_.send(std::move(msg));
    }
  }

  net_.engine().schedule_after(params_.period, [this, self] { tick(self); });
}

void GossipCluster::on_message(NodeId self, const Message& msg) {
  if (crashed_[self] || msg.kind != kPush || msg.bytes.size() < 4) return;
  const std::uint32_t count = get_u32(msg.bytes, 0);
  std::size_t at = 4;
  for (std::uint32_t i = 0;
       i < count && at + kEntryBytes <= msg.bytes.size();
       ++i, at += kEntryBytes) {
    const NodeId subject = get_u32(msg.bytes, at);
    const std::uint64_t heartbeat = get_u64(msg.bytes, at + 4);
    if (subject < nodes_[self].table.size() && subject != self) {
      merge_entry(self, subject, heartbeat);
    }
  }
}

void GossipCluster::merge_entry(NodeId self, NodeId subject,
                                std::uint64_t heartbeat) {
  Entry& e = nodes_[self].table[subject];
  if (e.state == State::kRemoved) return;  // tombstone is final
  if (heartbeat <= e.heartbeat) return;
  e.heartbeat = heartbeat;
  e.last_updated = net_.engine().now();
  if (e.state == State::kFailed) {
    // False-positive recovery: the peer was alive after all.
    e.state = State::kAlive;
    views_[self].insert(subject);
    note_view_change(self);
  }
}

}  // namespace canely::baselines
