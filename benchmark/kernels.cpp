// Per-layer metrics of the traced run: small kernels that time one layer
// through its public API, plus shares derived from the workload's own
// work counts.  README.md lists which end-to-end metric each one should
// move, and on which workload.

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "can/bitstream.hpp"
#include "can/bus.hpp"
#include "canely/node.hpp"
#include "check/harness.hpp"
#include "net/medium.hpp"
#include "obs/recorder.hpp"
#include "sim/engine.hpp"
#include "units.hpp"
#include "workloads.hpp"

namespace bench {

using namespace canely;
using sim::Time;

namespace {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// sim: schedule -> dispatch chains of trivial callbacks, ns per event.
double sim_ns_per_event(std::uint64_t target) {
  sim::Engine engine;
  std::uint64_t sink = 0;
  const auto t0 = Clock::now();
  while (engine.dispatched() < target) {
    for (int i = 0; i < 64; ++i) {
      engine.schedule_after(Time::ns(1 + i), [&sink] { ++sink; });
    }
    engine.run_for(Time::ns(128));
  }
  const double secs = seconds_since(t0);
  if (sink != engine.dispatched()) return 0.0;
  return secs * 1e9 / static_cast<double>(engine.dispatched());
}

struct BusCost {
  double ns_per_frame{0};
  double events_per_frame{0};
};

/// can: a saturated bus of n idle controllers (no protocol stack), each
/// offered one data frame per n frame times; ns per completed frame.
BusCost can_cost(std::size_t n, std::uint64_t frames) {
  sim::Engine engine;
  can::Bus bus{engine};
  std::vector<std::unique_ptr<can::Controller>> ctl;
  std::vector<can::Frame> frame;
  const std::uint8_t payload[4] = {0x5A, 0xA5, 0x0F, 0xF0};
  for (std::size_t i = 0; i < n; ++i) {
    ctl.push_back(std::make_unique<can::Controller>(static_cast<can::NodeId>(i), bus));
    frame.push_back(can::Frame::make_data(0x100 + static_cast<std::uint32_t>(i), payload));
  }
  const Time frame_time = sim::bits_to_time(
      static_cast<std::int64_t>(can::frame_bits_on_wire(frame[0]) +
                                can::kIntermissionBits),
      bus.config().bit_rate_bps);
  const Time period = frame_time * static_cast<std::int64_t>(n);
  std::function<void(std::size_t)> pump = [&](std::size_t i) {
    ctl[i]->request_tx(frame[i]);
    engine.schedule_after(period, [&pump, i] { pump(i); });
  };
  for (std::size_t i = 0; i < n; ++i) {
    engine.schedule_after(frame_time * static_cast<std::int64_t>(i),
                          [&pump, i] { pump(i); });
  }
  const std::uint64_t events0 = engine.dispatched();
  const auto t0 = Clock::now();
  while (bus.stats().ok < frames) engine.run_for(Time::ms(10));
  const double secs = seconds_since(t0);
  const auto ok = static_cast<double>(bus.stats().ok);
  return BusCost{secs * 1e9 / ok,
                 static_cast<double>(engine.dispatched() - events0) / ok};
}

/// net: n nodes pumping unicasts (every 16th a broadcast) through the
/// lossy medium; ns per delivered message.
double net_ns_per_msg(std::size_t n, std::uint64_t deliveries) {
  sim::Engine engine;
  net::MediumConfig cfg;
  cfg.n = n;
  cfg.default_link.delay_min = Time::us(50);
  cfg.default_link.delay_max = Time::ms(1);
  cfg.default_link.drop_p = 0.01;
  net::Medium medium{engine, cfg, 0x5EED};
  std::uint64_t bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    medium.attach(static_cast<net::NodeId>(i),
                  [&bytes](const net::Message& m) { bytes += m.bytes.size(); });
  }
  std::uint64_t round = 0;
  std::function<void()> pump = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      net::Message m;
      m.from = static_cast<net::NodeId>(i);
      m.to = round % 16 == 15 ? net::kBroadcast
                              : static_cast<net::NodeId>((i + 1 + round % (n - 1)) % n);
      m.kind = 1;
      m.bytes.assign(24, static_cast<std::uint8_t>(round));
      medium.send(std::move(m));
    }
    ++round;
    engine.schedule_after(Time::us(100), pump);
  };
  engine.schedule_after(Time::zero(), pump);
  const auto t0 = Clock::now();
  while (medium.stats().delivered < deliveries) engine.run_for(Time::ms(10));
  const double secs = seconds_since(t0);
  if (bytes == 0) return 0.0;
  return secs * 1e9 / static_cast<double>(medium.stats().delivered);
}

/// canely: construction of an n-node stack on a fresh bus, us.
double construct_us(std::size_t n, int reps) {
  const Params params = lifecycle_params(n);
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    sim::Engine engine;
    can::Bus bus{engine};
    std::vector<std::unique_ptr<Node>> nodes;
    nodes.reserve(n);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<Node>(bus, static_cast<can::NodeId>(i), params));
    }
    us.push_back(seconds_since(t0) * 1e6);
  }
  return median(us);
}

/// check: differential timing of checked runs of the n=8 scenario with an
/// empty script, interleaved per iteration so drift hits every variant.
struct CheckCost {
  double run_us{0}, bare_us{0}, tx_log_us{0}, sample_us{0};
  double samples_per_probe{0};
  BareRun bare;
};

CheckCost check_cost(int iterations, int sample_iterations,
                     std::vector<std::string>& errors) {
  const check::ScenarioConfig cfg = check::ScenarioConfig::membership(8, true);
  const check::FaultScript empty;
  check::RunOptions plain;
  check::RunOptions tx_log;
  tx_log.want_tx_log = true;
  // The explorer's probe samples up to its default fault window.
  check::RunOptions sampled;
  sampled.want_samples = true;
  sampled.sample_until = cfg.duration - cfg.expel_grace() - cfg.settle;

  CheckCost out;
  out.bare = run_bare_scenario(cfg);
  const check::RunResult ref = check::run_checked(cfg, empty, plain);
  if (ref.attempts != out.bare.attempts) {
    errors.push_back("bare n=8 stack made " + std::to_string(out.bare.attempts) +
                     " bus attempts, run_checked " + std::to_string(ref.attempts));
  }
  std::vector<double> run, bare, log, sample;
  std::size_t samples = 0;
  for (int i = 0; i < iterations; ++i) {
    auto t0 = Clock::now();
    (void)check::run_checked(cfg, empty, plain);
    run.push_back(seconds_since(t0) * 1e6);
    t0 = Clock::now();
    (void)run_bare_scenario(cfg);
    bare.push_back(seconds_since(t0) * 1e6);
    t0 = Clock::now();
    (void)check::run_checked(cfg, empty, tx_log);
    log.push_back(seconds_since(t0) * 1e6);
    if (i % (iterations / sample_iterations) == 0) {
      t0 = Clock::now();
      const check::RunResult r = check::run_checked(cfg, empty, sampled);
      sample.push_back(seconds_since(t0) * 1e6);
      samples = r.samples.size();
    }
  }
  out.run_us = median(run);
  out.bare_us = median(bare);
  out.tx_log_us = median(log) - out.run_us;
  out.samples_per_probe = static_cast<double>(samples);
  out.sample_us = samples == 0 ? 0.0
                               : (median(sample) - out.run_us) /
                                     static_cast<double>(samples);
  return out;
}

/// obs: lifecycles at n=8 with an obs::Recorder attached vs not, in
/// back-to-back pairs of alternating order; overhead in percent.
double recorder_overhead_pct(int pairs, int per_side) {
  const LifecycleSpec spec{8, 3, Time::ms(2)};
  Spans off{false};
  const auto side = [&](bool with_recorder) {
    const auto t0 = Clock::now();
    for (int k = 0; k < per_side; ++k) {
      obs::Recorder recorder;
      (void)run_lifecycle(spec, off, with_recorder ? &recorder : nullptr);
    }
    return seconds_since(t0);
  };
  std::vector<double> ratio;
  for (int p = 0; p < pairs; ++p) {
    double plain = 0, recorded = 0;
    if (p % 2 == 0) {
      plain = side(false);
      recorded = side(true);
    } else {
      recorded = side(true);
      plain = side(false);
    }
    ratio.push_back(recorded / plain);
  }
  return (median(ratio) - 1.0) * 100.0;
}

void add(campaign::Json& metrics, const std::string& name, double value,
         const char* unit) {
  campaign::Json m = campaign::Json::object();
  m.set("value", campaign::Json::number(value));
  m.set("unit", campaign::Json::string(unit));
  metrics.set(name, std::move(m));
}

double get(const Ledger& l, const std::string& key) {
  const auto it = l.find(key);
  return it == l.end() ? 0.0 : static_cast<double>(it->second);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

campaign::Json layer_metrics(const std::string& workload, Workload& wl,
                             const Window& window, double window_s, bool quick,
                             Spans& spans, std::vector<std::string>& errors) {
  campaign::Json m = campaign::Json::object();
  const int scale = quick ? 10 : 1;

  // sim
  std::vector<double> nspe;
  {
    Spans::Scope s{spans, "kernel.sim"};
    for (int r = 0; r < 5; ++r) nspe.push_back(sim_ns_per_event(1'000'000 / scale));
  }
  const double ns_per_event = median(nspe);

  // can
  std::map<std::size_t, BusCost> bus;
  {
    Spans::Scope s{spans, "kernel.can"};
    for (std::size_t n : {8, 32, 64}) {
      std::vector<double> ns, ev;
      for (int r = 0; r < 3; ++r) {
        const BusCost c = can_cost(n, 50'000 / static_cast<std::uint64_t>(scale));
        ns.push_back(c.ns_per_frame);
        ev.push_back(c.events_per_frame);
      }
      bus[n] = BusCost{median(ns), median(ev)};
    }
  }

  // net
  double ns_per_msg = 0;
  {
    Spans::Scope s{spans, "kernel.net"};
    std::vector<double> v;
    for (int r = 0; r < 3; ++r) v.push_back(net_ns_per_msg(64, 200'000 / static_cast<std::uint64_t>(scale)));
    ns_per_msg = median(v);
  }

  // check
  CheckCost cc;
  {
    Spans::Scope s{spans, "kernel.check"};
    cc = check_cost(2000 / scale, 200 / scale, errors);
  }

  // canely: construction and the phases of one lifecycle per size.
  {
    Spans::Scope s{spans, "kernel.canely"};
    for (std::size_t n : {8, 32, 64}) {
      const std::string sfx = "_n" + std::to_string(n);
      add(m, "canely.construct_us" + sfx, construct_us(n, 20), "us");
      std::vector<double> form, steady, detect;
      for (int r = 0; r < 3; ++r) {
        const LifecycleResult lr = run_lifecycle(
            LifecycleSpec{n, static_cast<can::NodeId>(n / 2), Time::ms(3)}, spans);
        form.push_back(lr.formation_s * 1e3);
        steady.push_back(lr.steady_s * 1e6 / 1000.0);  // 1 s = 1000 sim ms
        detect.push_back(lr.detect_s * 1e6);
        if (!lr.error.empty()) errors.push_back("canely kernel: " + lr.error);
      }
      add(m, "canely.formation_host_ms" + sfx, median(form), "ms");
      add(m, "canely.steady_host_us_per_sim_ms" + sfx, median(steady), "us");
      add(m, "canely.detect_host_us" + sfx, median(detect), "us");
    }
  }

  // baselines: one cell each at the shootout sizes.
  {
    Spans::Scope s{spans, "kernel.baselines"};
    const std::size_t big = quick ? 128 : 1024;
    const std::size_t gossip_n = quick ? 64 : 256;
    for (const auto& [proto, n] : {std::pair{Proto::kSwim, big},
                                   std::pair{Proto::kRapid, big},
                                   std::pair{Proto::kGossip, gossip_n}}) {
      const auto t0 = Clock::now();
      const CellResult r = run_cell(CellSpec{proto, n, 0xCE11}, spans);
      add(m, std::string{"baselines."} + proto_name(proto) + "_cell_ms",
          seconds_since(t0) * 1e3, "ms");
      if (!r.error.empty()) errors.push_back("baselines kernel: " + r.error);
    }
  }

  // obs
  {
    Spans::Scope s{spans, "kernel.obs"};
    add(m, "obs.recorder_overhead_pct", recorder_overhead_pct(quick ? 2 : 8, 32), "%");
  }

  // campaign: the workload's own unit at 1, 2 and 4 threads (capped at
  // the host's), whose work counts must not depend on the thread count.
  {
    Spans::Scope s{spans, "kernel.campaign"};
    const Workload::Rate r1 = wl.rate_on(1);
    for (std::size_t t : {2, 4}) {
      const std::size_t used = capped_threads(t);
      const Workload::Rate rt = wl.rate_on(used);
      add(m, "campaign.parallel_eff_t" + std::to_string(t),
          ratio(rt.per_s, static_cast<double>(used) * r1.per_s), "ratio");
      if (rt.ledger != r1.ledger) {
        errors.push_back("work counts differ between 1 and " +
                         std::to_string(used) + " threads");
      }
    }
  }

  // Work counts per unit of the workload, and shares of its host time.
  // Explore's sim/can counts are those of one fault-free checked run of
  // its scenario (run_checked does not expose its engine).
  const Ledger& l = window.ledger;
  const double units = static_cast<double>(std::max<std::uint64_t>(window.units, 1));
  const bool explore = workload.rfind("explore", 0) == 0;
  const double total_ns = window_s * 1e9 * static_cast<double>(wl.threads());
  double events = 0, frames_cost = 0, frame_events = 0, stack_ns = 0;
  if (explore) {
    const double runs = get(l, "check.runs");
    add(m, "sim.events", static_cast<double>(cc.bare.events), "count");
    add(m, "can.frames", static_cast<double>(cc.bare.attempts), "count");
    add(m, "can.bits", static_cast<double>(cc.bare.bits), "count");
    events = static_cast<double>(cc.bare.events) * runs;
    const double frames = static_cast<double>(cc.bare.attempts) * runs;
    frames_cost = frames * bus[8].ns_per_frame;
    frame_events = frames * bus[8].events_per_frame;
    stack_ns = cc.bare_us * 1e3 * runs;
  } else {
    add(m, "sim.events", get(l, "sim.events") / units, "count");
    add(m, "can.frames", get(l, "can.frames") / units, "count");
    add(m, "can.bits", get(l, "can.bits") / units, "count");
    events = get(l, "sim.events");
    for (const auto& [n, c] : bus) {
      const double frames = get(l, "can.frames.n" + std::to_string(n));
      frames_cost += frames * c.ns_per_frame;
      frame_events += frames * c.events_per_frame;
    }
    if (workload == "lifecycle") stack_ns = total_ns;
  }
  const double sim_ns = (events - frame_events) * ns_per_event;
  add(m, "sim.ns_per_event", ns_per_event, "ns");
  add(m, "sim.share", ratio(sim_ns, total_ns), "ratio");
  add(m, "can.ns_per_frame_n8", bus[8].ns_per_frame, "ns");
  add(m, "can.ns_per_frame_n32", bus[32].ns_per_frame, "ns");
  add(m, "can.ns_per_frame_n64", bus[64].ns_per_frame, "ns");
  add(m, "can.share", ratio(frames_cost, total_ns), "ratio");
  add(m, "canely.share",
      stack_ns == 0 ? 0.0 : ratio(stack_ns - sim_ns - frames_cost, total_ns),
      "ratio");

  const double placements = get(l, "check.placements");
  add(m, "check.placements", placements, "count");
  add(m, "check.runs", get(l, "check.runs"), "count");
  add(m, "check.probe_runs", get(l, "check.probe_runs"), "count");
  add(m, "check.runs_per_placement", ratio(get(l, "check.runs"), placements), "ratio");
  add(m, "check.dedup_skip_ratio", ratio(get(l, "check.dedup_skips"), placements),
      "ratio");
  add(m, "check.prefix_cache_hit_ratio",
      ratio(get(l, "check.prefix_cache_hits"), get(l, "check.probe_runs")), "ratio");
  add(m, "check.share", explore ? ratio(total_ns - stack_ns, total_ns) : 0.0, "ratio");
  add(m, "check.run_us", cc.run_us, "us");
  add(m, "check.harness_us", cc.run_us - cc.bare_us, "us");
  add(m, "check.tx_log_us", cc.tx_log_us, "us");
  add(m, "check.sample_us", cc.sample_us, "us");
  add(m, "check.samples_per_probe", cc.samples_per_probe, "count");

  add(m, "net.delivered", get(l, "net.delivered") / units, "count");
  add(m, "net.dropped", get(l, "net.dropped") / units, "count");
  add(m, "net.ns_per_msg", ns_per_msg, "ns");
  add(m, "baselines.view_changes", get(l, "baselines.view_changes") / units, "count");
  return m;
}

}  // namespace bench
