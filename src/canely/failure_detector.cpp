#include "canely/failure_detector.hpp"

#include <algorithm>

namespace canely {

FailureDetector::FailureDetector(CanDriver& driver, sim::TimerService& timers,
                                 FdaProtocol& fda, const Params& params,
                                 const sim::Tracer* tracer,
                                 obs::Recorder* recorder)
    : driver_{driver}, timers_{timers}, fda_{fda}, params_{params},
      tracer_{tracer}, recorder_{recorder} {
  if (recorder_ != nullptr) {
    obs::MetricsRegistry& m = recorder_->metrics();
    ctr_els_sent_ = &m.counter("els.frames_sent");
    ctr_els_suppressed_ = &m.counter("els.suppressed");
    ctr_heartbeat_implicit_ = &m.counter("heartbeat.implicit");
    ctr_suspicions_ = &m.counter("fd.suspicions");
  }
  // f03: any data frame (own included) is implicit node activity; the
  // sender is identified by the node field of the mid.
  driver_.on_data_nty([this](const Mid& mid) { on_activity(mid.node, true); });
  // f03: explicit life-signs arrive as ELS remote frames.
  driver_.on_rtr_ind(MsgType::kEls, [this](const Mid& mid, bool /*own*/) {
    on_activity(mid.node, false);
  });
  // f13: FDA delivers agreed failure-signs.
  fda_.set_nty_handler([this](can::NodeId r) { on_fda_nty(r); });
}

void FailureDetector::fd_can_req_start(can::NodeId r) {
  monitored_[r] = true;
  if (recorder_ != nullptr) {
    obs::Event ev;
    ev.when = driver_.engine().now();
    ev.kind = obs::EventKind::kFdTimerArm;
    ev.node = driver_.node();
    ev.u.peer = {r};
    recorder_->emit(ev);
    if (r == driver_.node()) els_credit_ = driver_.engine().now();
  }
  fd_alarm_start(r);  // f00-f01
}

void FailureDetector::fd_can_req_stop(can::NodeId r) {
  monitored_[r] = false;
  disarm(r);  // f17-f18
  if (r == driver_.node()) {
    // Withdraw a still-pending explicit life-sign: a node whose self-
    // surveillance stops (it left, or was expelled) must not leave an
    // ELS behind — on a bus with no other live node the frame would
    // never be acknowledged and would retry forever.
    driver_.can_abort_req(Mid{MsgType::kEls, 0, r});
  }
}

// canely-lint: hot-path
void FailureDetector::fd_alarm_start(can::NodeId r) {
  const sim::Time now = driver_.engine().now();
  // The tick is pending whenever a deadline is, unless Node::crash()
  // cancelled it with every other timer; then the deadlines it stood for
  // died with it, as Fig. 8's per-node timers would have.
  const sim::Time tick_at = ticking_ ? now : timers_.deadline(tick_);
  if (tick_at == sim::Time::max()) {
    drop_deadlines();
  } else {
    disarm(r);  // restart semantics (f04)
  }
  Watch& w = watch_[r];
  w.seq = ++arm_seq_;
  if (r == driver_.node()) {
    w.due = now + params_.heartbeat_period;                     // a02
  } else {
    w.due = now + params_.heartbeat_period + params_.tx_delay_bound +  // a04
            params_.fd_skew_quantum * driver_.node();           // osc. skew
    // Same duration for every remote node: appending keeps deadline order.
    w.prev = tail_;
    w.next = kNil;
    (tail_ == kNil ? head_ : watch_[tail_].next) = r;
    tail_ = r;
  }
  // Only a deadline before the pending tick moves it; a restart lands
  // after it, and inside on_tick() (tick_at == now) the tick re-arms on
  // return.
  if (w.due < tick_at) {
    timers_.cancel_alarm(tick_);
    tick_ = timers_.start_alarm(w.due - now, [this] { on_tick(); });
  }
}

void FailureDetector::disarm(can::NodeId r) {
  Watch& w = watch_[r];
  if (w.due == sim::Time::max()) return;
  w.due = sim::Time::max();
  if (r == driver_.node()) return;
  (w.prev == kNil ? head_ : watch_[w.prev].next) = w.next;
  (w.next == kNil ? tail_ : watch_[w.next].prev) = w.prev;
}

void FailureDetector::drop_deadlines() {
  for (can::NodeId r = head_; r != kNil; r = watch_[r].next) {
    watch_[r].due = sim::Time::max();
  }
  head_ = kNil;
  tail_ = kNil;
  watch_[driver_.node()].due = sim::Time::max();
}

// canely-lint: hot-path
void FailureDetector::on_tick() {
  const sim::Time now = driver_.engine().now();
  const can::NodeId self = driver_.node();
  const Watch& local = watch_[self];
  ticking_ = true;
  // f06: expire every due deadline.  Same-instant deadlines go in arm
  // order, the order in which the engine (FIFO within an instant) would
  // have fired Fig. 8's per-node timers.  The wraparound-safe sequence
  // difference is exact: pending deadlines are never 2^31 arms apart.
  for (;;) {
    can::NodeId r = (head_ != kNil && watch_[head_].due <= now) ? head_ : kNil;
    if (local.due <= now &&
        (r == kNil || static_cast<std::int32_t>(local.seq - watch_[r].seq) < 0)) {
      r = self;
    }
    if (r == kNil) break;
    disarm(r);
    on_expiry(r);
  }
  ticking_ = false;
  const sim::Time next =
      head_ == kNil ? local.due : std::min(local.due, watch_[head_].due);
  tick_ = next == sim::Time::max()
              ? sim::kNullTimer
              : timers_.start_alarm(next - now, [this] { on_tick(); });
}

// canely-lint: hot-path
void FailureDetector::on_activity(can::NodeId r, bool implicit) {
  // f03-f05: restart the surveillance deadline of an actively monitored
  // node.
  // (Activity of nodes the service was not started for is ignored —
  // starting/stopping surveillance is the upper layer's decision,
  // lines f00/f17.)
  if (!monitored_[r]) return;
  // Fig. 10 accounting, counted once system-wide at the originator's own
  // detector (every data frame loops back to its sender):
  // `heartbeat.implicit` is every data frame that doubled as a life-sign;
  // `els.suppressed` credits one avoided explicit life-sign per heartbeat
  // period Th covered by implicit traffic — what a CANopen-style
  // always-explicit heartbeat would have transmitted in the same span.
  if (implicit && r == driver_.node() && recorder_ != nullptr) {
    ctr_heartbeat_implicit_->add_node(r);
    const sim::Time now = driver_.engine().now();
    const std::int64_t periods = (now - els_credit_) / params_.heartbeat_period;
    if (periods >= 1) {
      ctr_els_suppressed_->add_node(r, static_cast<std::uint64_t>(periods));
      els_credit_ = now;
    }
  }
  fd_alarm_start(r);
}

void FailureDetector::on_expiry(can::NodeId r) {
  if (recorder_ != nullptr) {
    obs::Event ev;
    ev.when = driver_.engine().now();
    ev.kind = obs::EventKind::kFdTimerExpire;
    ev.node = driver_.node();
    ev.u.peer = {r};
    recorder_->emit(ev);
  }
  if (r == driver_.node()) {
    // f07-f08: the local node stayed silent for a whole heartbeat period;
    // broadcast an explicit life-sign.  The loopback can-rtr.ind normally
    // restarts the deadline, but the ELS can die before reaching the wire
    // (bus-off clears the controller queue; an abort can race it), so the
    // deadline is re-armed HERE, unconditionally: if the ELS never loops
    // back, the next expiry retries the life-sign instead of leaving the
    // node silent until its peers falsely suspect it.
    ++els_sent_;
    if (recorder_ != nullptr) {
      obs::Event ev;
      ev.when = driver_.engine().now();
      ev.kind = obs::EventKind::kElsSent;
      ev.node = driver_.node();
      ev.u.peer = {r};
      recorder_->emit(ev);
      ctr_els_sent_->add_node(r);
      els_credit_ = driver_.engine().now();
    }
    driver_.can_rtr_req(Mid{MsgType::kEls, 0, r});
    fd_alarm_start(r);
  } else {
    // f09-f10: remote node silent beyond Th + Ttd => it has failed;
    // disseminate consistently through FDA.
    if (tracer_ != nullptr) {
      tracer_->emit(driver_.engine().now(), sim::TraceLevel::kInfo, "fd", [&] {
        return sim::cat_str("n", int{driver_.node()}, " suspects node ",
                            int{r});
      });
    }
    if (recorder_ != nullptr) {
      obs::Event ev;
      ev.when = driver_.engine().now();
      ev.kind = obs::EventKind::kFdSuspect;
      ev.node = driver_.node();
      ev.u.peer = {r};
      recorder_->emit(ev);
      ctr_suspicions_->add_node(driver_.node());
    }
    fda_.fda_can_req(r);
  }
}

void FailureDetector::on_fda_nty(can::NodeId r) {
  // f13-f16: an agreed failure-sign arrived (possibly before our own
  // deadline passed): stop surveillance and notify the membership layer.
  disarm(r);
  monitored_[r] = false;
  if (nty_) nty_(r);  // f15
}

}  // namespace canely
