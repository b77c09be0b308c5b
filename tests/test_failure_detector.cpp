// Tests for the node failure detection protocol (Fig. 8): surveillance
// deadlines, implicit heartbeats via can-data.nty, explicit life-signs,
// detection latency bounds, FDA-based consistency, and the footprint of
// the single-tick surveillance bookkeeping.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "obs/recorder.hpp"
#include "sim/hash.hpp"
#include "testing.hpp"

namespace canely::testing {
namespace {

using can::NodeSet;
using sim::Time;

class FdTest : public ::testing::Test {
 protected:
  FdTest() {
    params.heartbeat_period = Time::ms(10);
    params.tx_delay_bound = Time::ms(1);
    c = std::make_unique<Cluster>(4, params);
    for (std::size_t i = 0; i < 4; ++i) {
      c->node(i).fd().set_nty_handler(
          [this, i](can::NodeId r) { ntys[i].push_back({r, c->engine().now()}); });
    }
  }

  /// Start mutual surveillance among nodes 0..k-1 (as membership would).
  void start_all(std::size_t k) {
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = 0; j < k; ++j) {
        c->node(i).fd().fd_can_req_start(static_cast<can::NodeId>(j));
      }
    }
  }

  struct Nty {
    can::NodeId failed;
    Time at;
  };
  Params params;
  std::unique_ptr<Cluster> c;
  std::array<std::vector<Nty>, 4> ntys;
};

TEST_F(FdTest, QuietNodesEmitExplicitLifeSigns) {
  start_all(4);
  c->settle(Time::ms(100));
  // Nobody transmits data: each node must have sent ~10 ELS in 100 ms.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_GE(c->node(i).fd().els_sent(), 9u) << "node " << i;
    EXPECT_LE(c->node(i).fd().els_sent(), 11u) << "node " << i;
    EXPECT_TRUE(ntys[i].empty()) << "node " << i;  // no false suspicion
  }
}

TEST_F(FdTest, DataTrafficSuppressesLifeSigns) {
  start_all(4);
  c->node(0).start_periodic(1, Time::ms(4), {1});  // 4 ms < Th = 10 ms
  c->settle(Time::ms(200));
  EXPECT_EQ(c->node(0).fd().els_sent(), 0u);
  EXPECT_GT(c->node(1).fd().els_sent(), 15u);  // quiet node keeps signing
  for (std::size_t i = 0; i < 4; ++i) EXPECT_TRUE(ntys[i].empty());
}

TEST_F(FdTest, PeriodAboveThStillNeedsExplicitSigns) {
  // Periodic traffic slower than Th cannot fully replace life-signs
  // (§6.1: explicit signs are for periods above the detection latency).
  start_all(4);
  c->node(0).start_periodic(1, Time::ms(25), {1});
  c->settle(Time::ms(200));
  const auto els = c->node(0).fd().els_sent();
  EXPECT_GT(els, 0u);
  EXPECT_LT(els, 20u);  // but fewer than a fully quiet node's ~20
}

TEST_F(FdTest, CrashDetectedWithinBound) {
  start_all(4);
  c->settle(Time::ms(50));
  const Time t_crash = c->engine().now();
  c->node(2).crash();
  c->settle(Time::ms(50));
  // All survivors notified, exactly once, within Th + Ttd + skew + FDA.
  for (std::size_t i : {0u, 1u, 3u}) {
    ASSERT_EQ(ntys[i].size(), 1u) << "node " << i;
    EXPECT_EQ(ntys[i][0].failed, 2);
    const Time latency = ntys[i][0].at - t_crash;
    const Time bound = params.heartbeat_period + params.tx_delay_bound +
                       params.fd_skew_quantum * 4 + Time::ms(1);
    EXPECT_LE(latency, bound) << "node " << i;
  }
}

TEST_F(FdTest, NotificationIsConsistentAcrossObservers) {
  start_all(4);
  c->settle(Time::ms(50));
  c->node(1).crash();
  c->settle(Time::ms(50));
  // FDA delivers the failure-sign in the same broadcast: all observers
  // notified at the same instant.
  ASSERT_FALSE(ntys[0].empty());
  ASSERT_FALSE(ntys[2].empty());
  ASSERT_FALSE(ntys[3].empty());
  EXPECT_EQ(ntys[0][0].at, ntys[2][0].at);
  EXPECT_EQ(ntys[0][0].at, ntys[3][0].at);
}

TEST_F(FdTest, StopCancelsSurveillance) {
  start_all(4);
  c->settle(Time::ms(20));
  for (std::size_t i : {0u, 1u, 3u}) {
    c->node(i).fd().fd_can_req_stop(2);
  }
  c->node(2).crash();
  c->settle(Time::ms(100));
  for (std::size_t i : {0u, 1u, 3u}) {
    EXPECT_TRUE(ntys[i].empty()) << "node " << i;
  }
}

TEST_F(FdTest, MonitoringFlagTracksStartStop) {
  auto& fd = c->node(0).fd();
  EXPECT_FALSE(fd.monitoring(2));
  fd.fd_can_req_start(2);
  EXPECT_TRUE(fd.monitoring(2));
  fd.fd_can_req_stop(2);
  EXPECT_FALSE(fd.monitoring(2));
}

TEST_F(FdTest, ActivityOfUnmonitoredNodesIgnored) {
  // Node 0 monitors only itself; node 2's silence must not trigger
  // anything, and node 2's traffic must not create state.
  c->node(0).fd().fd_can_req_start(0);
  c->node(2).start_periodic(1, Time::ms(5), {2});
  c->settle(Time::ms(100));
  EXPECT_TRUE(ntys[0].empty());
  EXPECT_FALSE(c->node(0).fd().monitoring(2));
}

TEST_F(FdTest, LateActivityAfterSuspicionStillConverges) {
  // A node pausing longer than Th + Ttd is declared failed even if it
  // resumes afterwards (the paper's reintegration rule then applies: it
  // must not rejoin before >> Tm).
  start_all(4);
  c->settle(Time::ms(30));
  // Pause node 3 by crashing... we need a pause, not a crash: stop its
  // timers so it stops ELS, then let it resume later is not supported by
  // the facade — emulate with a crash and assert detection.
  c->node(3).crash();
  c->settle(Time::ms(30));
  ASSERT_EQ(ntys[0].size(), 1u);
  EXPECT_EQ(ntys[0][0].failed, 3);
  // After FDA, surveillance of the failed node has stopped everywhere.
  EXPECT_FALSE(c->node(0).fd().monitoring(3));
  EXPECT_FALSE(c->node(1).fd().monitoring(3));
}

TEST(FdLiveness, ElsKilledBeforeWireDoesNotStrandSelfSurveillance) {
  // Regression: the self-surveillance timer must be re-armed on every
  // expiry, not only by the ELS loopback.  If the life-sign dies before
  // reaching the wire — here a bus-error storm drives the sender bus-off,
  // and fault confinement clears its controller queue — the old code left
  // the timer parked waiting for a can-rtr.ind that never comes: the node
  // stayed silent forever and its peers falsely suspected it.
  Params params;
  params.heartbeat_period = Time::ms(10);
  // Generous Ttd so the 20 ms retry beats the peers' ~22 ms budget.
  params.tx_delay_bound = Time::ms(12);
  Cluster c{4, params};
  c.node(0).controller().enable_bus_off_recovery(true);

  // Destroy every ELS node 0 sends before t = 15 ms.  The CAN controller
  // retries each destroyed attempt (TEC +8 per error), so the first ELS
  // at t = 10 ms rides the bus straight into bus-off, which clears the
  // queue: the life-sign is gone for good, not merely delayed.
  can::ScriptedFaults faults;
  faults.add(
      [](const can::TxContext& ctx) {
        const auto mid = Mid::decode(ctx.frame);
        return mid.has_value() && mid->type == MsgType::kEls &&
               mid->node == 0 && ctx.start < Time::ms(15);
      },
      can::Verdict::global_error(), /*shots=*/-1);
  c.bus().set_fault_injector(&faults);

  std::array<std::vector<can::NodeId>, 4> ntys;
  for (std::size_t i = 0; i < 4; ++i) {
    c.node(i).fd().set_nty_handler(
        [&ntys, i](can::NodeId r) { ntys[i].push_back(r); });
    for (std::size_t j = 0; j < 4; ++j) {
      c.node(i).fd().fd_can_req_start(static_cast<can::NodeId>(j));
    }
  }

  c.settle(Time::ms(40));

  // The storm really happened: errors burned through to bus-off.
  EXPECT_GE(c.bus().stats().errors, 32u);
  // The re-armed timer retried the life-sign at t = 20 ms (post-recovery,
  // post-window), so node 0 signed at least twice...
  EXPECT_GE(c.node(0).fd().els_sent(), 2u);
  EXPECT_TRUE(c.node(0).controller().alive());
  // ...and nobody ever suspected a live node.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(ntys[i].empty()) << "node " << i << " falsely suspected";
  }
}

TEST_F(FdTest, ImplicitHeartbeatBandwidthAdvantage) {
  // Measured counterpart of §6.3's claim: with cyclic application traffic
  // below Th, failure detection consumes zero extra frames.
  start_all(4);
  for (std::size_t i = 0; i < 4; ++i) {
    c->node(i).start_periodic(1, Time::ms(3),
                              {static_cast<std::uint8_t>(i)});
  }
  c->settle(Time::ms(300));
  std::uint64_t total_els = 0;
  for (std::size_t i = 0; i < 4; ++i) total_els += c->node(i).fd().els_sent();
  EXPECT_EQ(total_els, 0u);
}

TEST_F(FdTest, DeadlineIsLastActivityPlusSurveillancePeriod) {
  const Time remote_period = params.heartbeat_period + params.tx_delay_bound +
                             params.fd_skew_quantum * 1;  // observer id 1
  auto& fd = c->node(1).fd();
  c->settle(Time::ms(3));
  const Time t0 = c->engine().now();
  fd.fd_can_req_start(1);
  fd.fd_can_req_start(2);
  EXPECT_EQ(fd.deadline(1), t0 + params.heartbeat_period);
  EXPECT_EQ(fd.deadline(2), t0 + remote_period);
  EXPECT_EQ(fd.deadline(3), Time::max());  // never started

  // Activity: the detector's can-data.nty handler was registered first,
  // so by the time this one runs the deadline has been restarted.
  std::vector<can::NodeId> seen;
  c->node(1).driver().on_data_nty([&](const Mid& mid) {
    seen.push_back(mid.node);
    const Time now = c->engine().now();
    if (mid.node == 1) {
      EXPECT_EQ(fd.deadline(1), now + params.heartbeat_period);
    } else {
      EXPECT_EQ(fd.deadline(2), now + remote_period);
    }
  });
  c->node(2).send(1, std::array<std::uint8_t, 1>{2});
  c->settle(Time::ms(1));
  c->node(1).send(1, std::array<std::uint8_t, 1>{1});
  c->settle(Time::ms(1));
  EXPECT_EQ(seen, (std::vector<can::NodeId>{2, 1}));
}

TEST_F(FdTest, DeadlineIsMaxAfterStopAndAfterFdaNotification) {
  start_all(4);
  c->settle(Time::ms(20));
  auto& fd = c->node(0).fd();
  ASSERT_NE(fd.deadline(2), Time::max());
  fd.fd_can_req_stop(2);
  EXPECT_EQ(fd.deadline(2), Time::max());

  c->node(3).crash();
  c->settle(Time::ms(30));
  for (std::size_t i : {0u, 1u, 2u}) {
    ASSERT_EQ(ntys[i].size(), 1u) << "node " << i;
    EXPECT_EQ(ntys[i][0].failed, 3);
    EXPECT_FALSE(c->node(i).fd().monitoring(3));
    EXPECT_EQ(c->node(i).fd().deadline(3), Time::max()) << "node " << i;
  }
  // Surveillance of the survivors goes on until it is stopped.
  EXPECT_NE(fd.deadline(1), Time::max());
  EXPECT_NE(fd.deadline(0), Time::max());
  fd.fd_can_req_stop(0);
  EXPECT_EQ(fd.deadline(0), Time::max());
  EXPECT_NE(fd.deadline(1), Time::max());
}

TEST_F(FdTest, CrashedNodeFeedsNoPendingDeadline) {
  start_all(4);
  c->settle(Time::ms(20));
  Node& node = c->node(0);
  node.crash();  // cancels the surveillance tick with every other timer
  sim::StateHasher expected;
  for (can::NodeId r = 0; r < can::kMaxNodes; ++r) {
    EXPECT_EQ(node.fd().deadline(r), Time::max()) << "id " << int{r};
    expected.feed_bool(node.fd().monitoring(r));
    expected.feed_time(Time::max());
  }
  sim::StateHasher actual;
  node.fd().hash_state(actual);
  EXPECT_EQ(actual.digest(), expected.digest());

  // A deadline armed after the crash does not revive the cancelled ones.
  node.fd().fd_can_req_start(2);
  EXPECT_EQ(node.fd().deadline(2),
            c->engine().now() + params.heartbeat_period +
                params.tx_delay_bound);  // observer id 0: no skew
  for (can::NodeId r : {0, 1, 3}) {
    EXPECT_EQ(node.fd().deadline(r), Time::max()) << "id " << int{r};
  }
}

struct Expiry {
  can::NodeId peer;
  Time at;
};

/// Node 0 of a four-node bus starts surveillance of `arm_order`, in that
/// order, at t = 0; nobody else ever transmits.  Returns node 0's recorded
/// events of `kind` over the first 50 ms.  Fig. 8's per-node timers would
/// fire same-instant expiries in arm order — the engine runs same-instant
/// events FIFO — and so must the single tick.
std::vector<Expiry> node0_events(const Params& params,
                                 const std::vector<can::NodeId>& arm_order,
                                 obs::EventKind kind) {
  sim::Engine engine;
  can::Bus bus{engine};
  obs::Recorder recorder;
  std::vector<std::unique_ptr<Node>> nodes;
  for (can::NodeId i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<Node>(bus, i, params, nullptr,
                                           i == 0 ? &recorder : nullptr));
  }
  for (can::NodeId r : arm_order) nodes[0]->fd().fd_can_req_start(r);
  engine.run_until(Time::ms(50));
  std::vector<Expiry> out;
  for (std::size_t i = 0; i < recorder.ring().size(); ++i) {
    const obs::Event& e = recorder.ring().at(i);
    if (e.kind == kind) out.push_back({e.u.peer.peer, e.when});
  }
  return out;
}

TEST(FdOrder, SameInstantExpiriesFollowArmOrder) {
  // Node 0 adds no skew, so its three remote deadlines share one instant.
  Params params;
  params.n = 4;
  const auto suspects =
      node0_events(params, {3, 1, 2}, obs::EventKind::kFdSuspect);
  ASSERT_EQ(suspects.size(), 3u);
  const Time due = params.heartbeat_period + params.tx_delay_bound;
  const can::NodeId expected[] = {3, 1, 2};
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(suspects[i].peer, expected[i]) << "suspicion " << i;
    EXPECT_EQ(suspects[i].at, due) << "suspicion " << i;
  }
}

TEST(FdOrder, LocalAndRemoteDeadlineTieExpiresInArmOrder) {
  // With Ttd = 0, node 0's local and remote deadlines are both Th away.
  Params params;
  params.n = 4;
  params.tx_delay_bound = Time::zero();
  const std::vector<std::vector<can::NodeId>> orders{{0, 1}, {1, 0}};
  for (const auto& order : orders) {
    const auto expiries =
        node0_events(params, order, obs::EventKind::kFdTimerExpire);
    ASSERT_GE(expiries.size(), 2u);
    EXPECT_EQ(expiries[0].peer, order[0]);
    EXPECT_EQ(expiries[1].peer, order[1]);
    EXPECT_EQ(expiries[0].at, params.heartbeat_period);
    EXPECT_EQ(expiries[1].at, params.heartbeat_period);
  }
}

TEST(FdFootprint, PendingAlarmsPerNodeDoNotGrowWithN) {
  // A machine-independent work count: per-node timers come back as
  // n + 1 pending alarms per node (one per monitored node), while the
  // single surveillance tick plus the membership cycle timer keep it at
  // a small constant for any n.
  constexpr std::size_t kMaxPendingPerNode = 3;
  for (std::size_t n : {8u, 32u, 64u}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n);
    Params params;
    // Ttd covers the n-deep life-sign burst after a view change.
    params.tx_delay_bound =
        std::max(Time::ms(2), Time::us(125) * static_cast<std::int64_t>(n));
    Cluster c{n, params};
    c.join_all();
    const can::NodeSet all = can::NodeSet::first_n(n);
    while (!c.views_agree(all) && c.engine().now() < Time::sec(2)) {
      c.settle(Time::ms(1));
    }
    ASSERT_TRUE(c.views_agree(all));
    std::size_t worst = 0;
    for (int ms = 0; ms < 1000; ++ms) {
      c.settle(Time::ms(1));
      for (std::size_t i = 0; i < n; ++i) {
        worst = std::max(worst, c.node(i).timers().pending_count());
      }
    }
    EXPECT_LE(worst, kMaxPendingPerNode);
  }
}

}  // namespace
}  // namespace canely::testing
