// Tests for the media-agnostic network layer (DESIGN.md §13): the lossy
// point-to-point Medium's determinism contract, partition-mask and
// fail-stop semantics, and the FIFO degeneracy property.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "net/medium.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace canely::net {
namespace {

using sim::Time;

/// One observed delivery, stringified for easy trace comparison.
struct TraceEntry {
  std::int64_t at_ns;
  NodeId to;
  NodeId from;
  std::uint32_t kind;

  friend bool operator==(const TraceEntry&, const TraceEntry&) = default;
};

/// Attach every node with a handler that appends to a shared trace.
void attach_all(Medium& medium, sim::Engine& engine,
                std::vector<TraceEntry>& trace) {
  for (NodeId i = 0; i < medium.config().n; ++i) {
    medium.attach(i, [&trace, &engine, i](const Message& m) {
      trace.push_back({engine.now().to_ns(), i, m.from, m.kind});
    });
  }
}

Message make_msg(NodeId from, NodeId to, std::uint32_t kind,
                 std::size_t payload = 4) {
  Message m;
  m.from = from;
  m.to = to;
  m.kind = kind;
  m.bytes.assign(payload, static_cast<std::uint8_t>(kind));
  return m;
}

// ------------------------------------------------------------ degeneracy --

// Property: with zero loss, zero duplication and constant delay the
// medium is a global FIFO — delivery order equals send order, for any
// seeded random send sequence.
TEST(NetMedium, ZeroLossZeroSpreadDegeneratesToFifo) {
  for (std::uint64_t seed : {1ull, 42ull, 9000ull}) {
    sim::Engine engine;
    MediumConfig cfg;
    cfg.n = 6;
    cfg.default_link.delay_min = Time::us(10);
    cfg.default_link.delay_max = Time::us(10);  // constant => no reorder
    Medium medium{engine, cfg, seed};

    std::vector<TraceEntry> trace;
    attach_all(medium, engine, trace);

    sim::Rng workload{seed ^ 0xABCD};
    std::vector<std::uint32_t> sent_kinds;
    for (std::uint32_t k = 0; k < 200; ++k) {
      const auto from = static_cast<NodeId>(workload.below(cfg.n));
      auto to = static_cast<NodeId>(workload.below(cfg.n - 1));
      if (to >= from) ++to;
      medium.send(make_msg(from, to, k));
      sent_kinds.push_back(k);
    }
    engine.run_until(Time::ms(10));

    ASSERT_EQ(trace.size(), sent_kinds.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
      EXPECT_EQ(trace[i].kind, sent_kinds[i]) << "reordered at " << i;
    }
    EXPECT_EQ(medium.stats().dropped, 0u);
    EXPECT_EQ(medium.stats().duplicated, 0u);
  }
}

// ---------------------------------------------------------- determinism --

std::vector<TraceEntry> lossy_run(std::uint64_t seed) {
  sim::Engine engine;
  MediumConfig cfg;
  cfg.n = 8;
  cfg.default_link.delay_min = Time::us(50);
  cfg.default_link.delay_max = Time::ms(2);  // spread => reordering
  cfg.default_link.drop_p = 0.2;
  cfg.default_link.dup_p = 0.15;
  Medium medium{engine, cfg, seed};

  std::vector<TraceEntry> trace;
  attach_all(medium, engine, trace);

  sim::Rng workload{777};  // same send sequence in every run
  for (std::uint32_t k = 0; k < 300; ++k) {
    const auto from = static_cast<NodeId>(workload.below(cfg.n));
    if (k % 17 == 0) {
      medium.send(make_msg(from, kBroadcast, k));
    } else {
      auto to = static_cast<NodeId>(workload.below(cfg.n - 1));
      if (to >= from) ++to;
      medium.send(make_msg(from, to, k));
    }
  }
  engine.run_until(Time::sec(1));
  return trace;
}

TEST(NetMedium, SameSeedSameByteIdenticalDeliverySchedule) {
  const auto a = lossy_run(123456);
  const auto b = lossy_run(123456);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a.empty());
}

TEST(NetMedium, DifferentSeedsDiverge) {
  const auto a = lossy_run(123456);
  const auto b = lossy_run(654321);
  EXPECT_FALSE(a == b);  // 300 sends at 20% loss: collision is ~impossible
}

// ------------------------------------------------------------ partitions --

TEST(NetMedium, PartitionMaskBlocksCrossGroupTraffic) {
  sim::Engine engine;
  MediumConfig cfg;
  cfg.n = 4;
  Medium medium{engine, cfg, 7};
  std::vector<TraceEntry> trace;
  attach_all(medium, engine, trace);

  // {0,1} | {2,3}: disjoint mask bits.
  medium.set_partition({1, 1, 2, 2});
  medium.send(make_msg(0, 1, 100));  // same side: delivered
  medium.send(make_msg(0, 2, 101));  // across: dropped
  medium.send(make_msg(3, 2, 102));  // same side: delivered
  medium.send(make_msg(0, kBroadcast, 103));  // only 1 reachable
  engine.run_until(Time::ms(1));

  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace[0].kind, 100u);
  EXPECT_EQ(trace[1].kind, 102u);
  EXPECT_EQ(trace[2].kind, 103u);
  EXPECT_EQ(trace[2].to, 1u);
  EXPECT_EQ(medium.stats().dropped, 3u);  // 0->2, and broadcast to 2 and 3

  medium.clear_partition();
  medium.send(make_msg(0, 2, 104));
  engine.run_until(Time::ms(2));
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace[3].kind, 104u);
}

TEST(NetMedium, InFlightCopiesSurviveAPartitionChange) {
  sim::Engine engine;
  MediumConfig cfg;
  cfg.n = 2;
  cfg.default_link.delay_min = Time::ms(5);
  cfg.default_link.delay_max = Time::ms(5);
  Medium medium{engine, cfg, 7};
  std::vector<TraceEntry> trace;
  attach_all(medium, engine, trace);

  medium.send(make_msg(0, 1, 1));  // on the wire at t=0
  engine.schedule_after(Time::ms(1), [&medium] {
    medium.set_partition({1, 2});  // partition closes mid-flight
  });
  engine.run_until(Time::ms(10));
  ASSERT_EQ(trace.size(), 1u);  // already-transmitted copy still arrives

  medium.send(make_msg(0, 1, 2));  // new send: filtered
  engine.run_until(Time::ms(20));
  EXPECT_EQ(trace.size(), 1u);
}

// ------------------------------------------------------------- fail-stop --

TEST(NetMedium, CrashedNodeNeitherSendsNorReceives) {
  sim::Engine engine;
  MediumConfig cfg;
  cfg.n = 3;
  cfg.default_link.delay_min = Time::ms(1);
  cfg.default_link.delay_max = Time::ms(1);
  Medium medium{engine, cfg, 7};
  std::vector<TraceEntry> trace;
  attach_all(medium, engine, trace);

  medium.send(make_msg(0, 2, 1));  // in flight toward 2...
  medium.crash(2);                 // ...crash before delivery
  medium.send(make_msg(2, 0, 2));  // dead node transmits nothing
  medium.send(make_msg(0, 2, 3));  // toward a dead node: dropped at arrival
  medium.send(make_msg(0, 1, 4));  // live traffic unaffected
  engine.run_until(Time::ms(10));

  ASSERT_EQ(trace.size(), 1u);
  EXPECT_EQ(trace[0].kind, 4u);
  EXPECT_TRUE(medium.crashed(2));
  EXPECT_FALSE(medium.crashed(0));
  EXPECT_EQ(medium.stats().dropped, 2u);  // both copies addressed to 2
}

// --------------------------------------------------------------- faults --

TEST(NetMedium, CertainDropAndCertainDuplicationAreCounted) {
  sim::Engine engine;
  MediumConfig cfg;
  cfg.n = 3;
  Medium medium{engine, cfg, 7};
  std::vector<TraceEntry> trace;
  attach_all(medium, engine, trace);

  LinkModel drop_all;
  drop_all.drop_p = 1.0;
  medium.set_link(0, 1, drop_all);
  LinkModel dup_all;
  dup_all.dup_p = 1.0;  // exactly one extra copy (duplicates never re-dup)
  medium.set_link(0, 2, dup_all);

  medium.send(make_msg(0, 1, 1));
  medium.send(make_msg(0, 2, 2));
  engine.run_until(Time::ms(1));

  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].kind, 2u);
  EXPECT_EQ(trace[1].kind, 2u);
  EXPECT_EQ(medium.stats().dropped, 1u);
  EXPECT_EQ(medium.stats().duplicated, 1u);
  EXPECT_EQ(medium.stats().sent, 3u);       // 1 dropped + original + dup
  EXPECT_EQ(medium.stats().delivered, 2u);
}

TEST(NetMedium, BandwidthChargesHeaderPlusPayloadPerCopy) {
  sim::Engine engine;
  MediumConfig cfg;
  cfg.n = 4;
  cfg.header_bytes = 32;
  Medium medium{engine, cfg, 7};
  std::vector<TraceEntry> trace;
  attach_all(medium, engine, trace);

  medium.send(make_msg(0, 1, 1, /*payload=*/10));          // 42 bytes
  medium.send(make_msg(1, kBroadcast, 2, /*payload=*/8));  // 3 x 40 bytes
  engine.run_until(Time::ms(1));

  EXPECT_EQ(medium.stats().sent, 4u);
  EXPECT_EQ(medium.stats().bytes_sent, 42u + 3u * 40u);
  EXPECT_EQ(medium.stats().bytes_delivered, 42u + 3u * 40u);
}

}  // namespace
}  // namespace canely::net
