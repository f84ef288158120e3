#include "sim/plane_torture.h"

#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/random.h"
#include "controlplane/durable_control_plane.h"
#include "controlplane/failover.h"
#include "faults/crash_points.h"
#include "faults/fault_plan.h"
#include "net/dispatcher.h"
#include "net/node_agent.h"
#include "policy/lifecycle.h"

namespace prorp::sim {
namespace {

using controlplane::DurableControlPlane;
using controlplane::FailoverEngine;
using controlplane::NodeHealth;
using controlplane::NodeHealthTracker;
using controlplane::ResumeAttempt;
using net::EndpointId;
using net::FaultInjectingTransport;
using net::NodeAgent;
using net::PartitionSpec;
using net::SlowNodeSpec;
using net::TransportDispatcher;
using telemetry::DbId;

constexpr EpochSeconds kStart = 1'000'000;
constexpr DurationSeconds kStep = 60;
/// ForkStream id of the transport fault stream: message-fault decisions
/// draw only from here, never from the workload or node-failure streams.
constexpr uint64_t kTransportFaultStream = 0x6e65746661756c74ULL;  // netfault
/// Long enough that no outage window or node fault exhausts a reactive
/// workflow into an incident (that would be an accepted-login loss).
constexpr int kMaxAttempts = 10;
/// Bound on crash/recovery cycles of one run (a journal-fault soak
/// recovers dozens of times; a run needing more is reported as stuck).
constexpr int kMaxRecoveries = 128;

/// The node-side truth about one database.  It lives in the harness,
/// outside the control plane, so it survives control-plane crashes the
/// way real nodes do, and is the oracle recovery reconciles against.
/// `owner` is the node whose side effects are currently live — the
/// double-live invariant is checked against it on every execution.
struct SimDb {
  bool resumed = false;
  EpochSeconds resumed_at = 0;
  EpochSeconds pending_completion = 0;  // 0 = none
  bool outstanding_reactive = false;    // acked login awaiting resources
  uint32_t owner = 0;                   // node holding live side effects
};

ControlPlaneConfig TortureConfig(const PlaneTortureOptions& opt) {
  ControlPlaneConfig config;
  config.prewarm_interval = 300;
  config.resume_operation_period = kStep;
  // Backoff short enough that an outage window's failures retry well
  // within the run, long enough that kMaxAttempts spans any outage.
  config.retry_backoff_base = 60;
  config.retry_backoff_cap = 240;
  config.breaker_window = 10;
  config.breaker_failure_ratio = 0.5;
  config.breaker_open_duration = 300;
  config.queue_capacity = 32;
  config.admission_control_enabled = true;
  config.deadline_hedging_enabled = true;
  config.deadline_reactive = 120;
  config.deadline_imminent = 600;
  config.storm_login_spike_threshold = opt.storm ? 16 : 0;
  config.storm_recovery_backlog = 8;
  config.storm_cooldown = 900;
  config.catch_up_enabled = true;
  config.catch_up_lookback = 3600;
  return config;
}

class Harness {
 public:
  explicit Harness(const PlaneTortureOptions& opt)
      : opt_(opt),
        crash_anywhere_(!opt.crash_point.empty() ||
                        opt.journal_fault_probability > 0),
        dbs_(static_cast<size_t>(opt.num_dbs)),
        rng_(opt.seed * 0x9e3779b97f4a7c15ULL + 1),
        fail_rng_(opt.seed ^ 0xdeadbeefcafef00dULL),
        plan_(Rng(opt.seed).ForkStream(kTransportFaultStream).NextU64()),
        transport_(&plan_, TransportOptions()),
        dispatcher_(&transport_, DispatcherOptions(opt),
                    [this](const ResumeAttempt& a) { return Route(a); }) {
    const std::pair<double, faults::FaultKind> wire_faults[] = {
        {opt.drop_p, faults::FaultKind::kMsgDrop},
        {opt.duplicate_p, faults::FaultKind::kMsgDuplicate},
        {opt.delay_p, faults::FaultKind::kMsgDelay},
    };
    for (const auto& [p, kind] : wire_faults) {
      if (p <= 0) continue;
      plan_.FailWithProbability(faults::FaultOp::kMsgRequest, p, kind);
      plan_.FailWithProbability(faults::FaultOp::kMsgAck, p, kind);
    }

    // Partition and slow windows are transport-level, installed up front
    // on the absolute clock; crashes are applied in the step loop.
    for (const NodeFaultSpec& f : opt.faults) {
      const EpochSeconds from = StepTime(f.at_step);
      const EpochSeconds until = StepTime(f.at_step + f.duration_steps);
      switch (f.kind) {
        case NodeFaultSpec::Kind::kPartition: {
          PartitionSpec p;
          p.from = from;
          p.until = until;
          p.direction = f.direction;
          p.first_node = f.node;
          p.last_node = f.node;
          transport_.AddPartition(p);
          break;
        }
        case NodeFaultSpec::Kind::kSlow: {
          SlowNodeSpec s;
          s.node = f.node;
          s.from = from;
          s.until = until;
          s.delay = f.slow_delay;
          transport_.AddSlowNode(s);
          break;
        }
        case NodeFaultSpec::Kind::kCrash:
          break;
      }
    }

    for (int n = 0; n < opt.num_nodes; ++n) {
      const auto id = static_cast<EndpointId>(1 + n);
      agents_.push_back(std::make_unique<NodeAgent>(
          id, &transport_,
          [this, id](const ResumeAttempt& a, EpochSeconds t) {
            return NodeResume(id, a, t);
          }));
      agents_.back()->set_quiesce_handler(
          [this, id](EpochSeconds t) { ReleaseNode(id, t); });
    }

    if (opt.detection_enabled) BuildDetection();
  }

  Result<PlaneTortureResult> Run() {
    auto& registry = faults::CrashPointRegistry::Global();
    if (!opt_.crash_point.empty()) {
      registry.Arm(opt_.crash_point, opt_.crash_nth, opt_.crash_payload);
    }
    PRORP_RETURN_IF_ERROR(Reopen(kStart));

    // Bootstrap: every database starts physically paused; roughly half
    // get an activity prediction (the proactive path), the rest only come
    // back through reactive logins.  An unacknowledged bootstrap mutation
    // is retried after the recovery, so every database ends up registered.
    now_ = kStart;
    for (int i = 0; i < opt_.num_dbs; ++i) {
      EpochSeconds pred =
          rng_.NextBool(0.5)
              ? now_ + 120 + static_cast<EpochSeconds>(rng_.NextBelow(
                                 static_cast<uint64_t>(opt_.steps) * kStep))
              : 0;
      for (;;) {
        PRORP_ASSIGN_OR_RETURN(
            bool acked, TryUpsert(static_cast<DbId>(i),
                                  policy::DbState::kPhysicallyPaused, pred));
        if (acked) break;
      }
    }

    const int outage_start = opt_.steps / 3;
    const int outage_end = outage_start + 5;
    const int storm_step = opt_.steps / 2;
    for (int step = 0; step < opt_.steps; ++step) {
      now_ = StepTime(step);
      outage_now_ = opt_.outage && step >= outage_start && step < outage_end;

      // Node-fault edges: crash onset kills the agent and destroys its
      // side effects; crash end restarts the process.  Partition and slow
      // windows are transport-resident — only their onset is recorded
      // here, for the detection-delay clock.
      for (const NodeFaultSpec& f : opt_.faults) {
        if (step == f.at_step) {
          fault_started_[f.node] = now_;
          if (f.kind == NodeFaultSpec::Kind::kCrash) {
            agents_[f.node - 1]->Crash();
            ReleaseNode(f.node, now_);
          }
        }
        if (step == f.at_step + f.duration_steps &&
            f.kind == NodeFaultSpec::Kind::kCrash) {
          agents_[f.node - 1]->Restart(now_);
        }
      }

      // Control-plane crash at a step.  The detector and the failover
      // engine die with the plane: the new incarnation starts from a fresh
      // tracker (nodes re-register healthy) and re-detects any still-dead
      // node from its continuing grant silence — the exactly-once argument
      // does not depend on detector state surviving.  Recovery fences
      // every node under the new epoch before any floater can deliver
      // (the harness owns delivery, so the fencing round is reliably
      // first — the analogue of a synchronous fencing RPC).
      if (step == opt_.crash_at_step) PRORP_RETURN_IF_ERROR(Recover());

      // Pause churn: completed databases go idle again with fresh
      // predictions, creating new pause episodes.
      for (int i = 0; i < opt_.num_dbs; ++i) {
        SimDb& d = dbs_[static_cast<size_t>(i)];
        if (!d.resumed || d.pending_completion != 0) continue;
        if (!rng_.NextBool(0.05)) continue;
        EpochSeconds pred =
            rng_.NextBool(0.5)
                ? now_ + 120 + static_cast<EpochSeconds>(rng_.NextBelow(600))
                : 0;
        PRORP_ASSIGN_OR_RETURN(
            bool acked, TryUpsert(static_cast<DbId>(i),
                                  policy::DbState::kPhysicallyPaused, pred));
        if (!acked) continue;  // pause not acknowledged; stay resumed
        d.resumed = false;
        d.owner = 0;
        placed_.erase(static_cast<DbId>(i));
      }

      // Reactive logins: a base trickle, plus a spike at the storm step.
      int logins = static_cast<int>(rng_.NextBelow(3));
      if (opt_.storm && step == storm_step) logins = 24;
      for (int n = 0; n < logins; ++n) {
        int i = static_cast<int>(
            rng_.NextBelow(static_cast<uint64_t>(opt_.num_dbs)));
        SimDb& d = dbs_[static_cast<size_t>(i)];
        if (d.resumed || d.outstanding_reactive) continue;
        Status s =
            plane_->service().EnqueueReactive(static_cast<DbId>(i), now_);
        if (Crashed()) {
          PRORP_RETURN_IF_ERROR(Survive(s));
          continue;  // login not acknowledged; the customer retries later
        }
        PRORP_RETURN_IF_ERROR(s);
        ++result_.accepted_reactive;
        d.outstanding_reactive = true;
        login_at_[static_cast<DbId>(i)] = now_;
      }

      // One iteration of the proactive resume operation.
      PRORP_RETURN_IF_ERROR(Survive(plane_->service().RunOnce(now_).status()));
      PRORP_RETURN_IF_ERROR(SubTicks());
      PRORP_RETURN_IF_ERROR(DeliverCompletions());

      // An injected crash inside the checkpoint writer is a process death
      // even though the journal stayed healthy: the tmp file is abandoned
      // and the previous checkpoint still rules recovery.
      Status ck = plane_->MaybeCheckpoint();
      PRORP_RETURN_IF_ERROR(crash_anywhere_ && ck.code() == StatusCode::kAborted
                                ? Recover()
                                : Survive(ck));
    }

    PRORP_RETURN_IF_ERROR(Drain());

    for (const SimDb& d : dbs_) {
      if (d.outstanding_reactive && !d.resumed) ++result_.lost_reactive;
    }
    FoldDetectionStats();
    const auto& diag = plane_->service().diagnostics();
    const auto& dstats = dispatcher_.stats();
    result_.accounting_ok = plane_->service().AccountingReconciles();
    result_.incidents = diag.incidents;
    result_.total_resumed = plane_->service().total_resumed();
    result_.dispatch_timeouts = diag.dispatch_timeouts;
    result_.late_acks = dstats.late_acks + diag.late_acks;
    result_.stale_epoch_acks = dstats.stale_epoch_acks + diag.stale_epoch_acks;
    result_.retransmissions = dstats.retransmissions;
    result_.lease_probes = dstats.lease_probes;
    result_.unacked_dispatches = diag.unacked_dispatches;
    result_.failover_requeues = diag.failover_requeues;
    for (const auto& c : diag.per_class) result_.hedges += c.hedged;
    for (const auto& agent : agents_) {
      result_.duplicate_suppressed += agent->stats().duplicate_suppressed;
      result_.stale_epoch_rejected += agent->stats().stale_epoch_rejected;
      result_.self_quiesces += agent->stats().self_quiesces;
      result_.lease_expired_rejected += agent->stats().lease_expired_rejected;
    }
    result_.transport = transport_.stats();
    if (!opt_.crash_point.empty()) {
      result_.crash_fired = registry.fired();
      registry.Reset();
    }
    return result_;
  }

 private:
  static EpochSeconds StepTime(int step) {
    return kStart + static_cast<EpochSeconds>(step + 1) * kStep;
  }

  /// Injected delays long enough (up to ten steps) that delayed requests
  /// routinely outlive retransmission budgets, partition windows, and a
  /// control-plane crash — which is what makes the fence and the
  /// late/stale-ack paths load-bearing in every delay cell.
  static FaultInjectingTransport::Options TransportOptions() {
    FaultInjectingTransport::Options topt;
    topt.delay_min = 30;
    topt.delay_max = 600;
    return topt;
  }

  static TransportDispatcher::Options DispatcherOptions(
      const PlaneTortureOptions& opt) {
    TransportDispatcher::Options dopt;
    dopt.retransmit_after = 30;
    dopt.max_transmissions = 4;
    dopt.lease_interval = opt.lease_interval;
    dopt.lease_ttl = opt.detection_enabled ? opt.lease_ttl : 0;
    dopt.first_node = 1;
    dopt.num_nodes = opt.num_nodes;
    return dopt;
  }

  /// (Re)builds the detector and failover engine — at construction, and
  /// again after a control-plane crash (a fresh incarnation's detector
  /// starts empty and re-learns node health from live traffic).
  void BuildDetection() {
    NodeHealthTracker::Options dopt;
    dopt.lease_ttl = opt_.lease_ttl;
    dopt.suspect_after = opt_.suspect_after;
    dopt.dead_grace = opt_.dead_grace;
    dopt.rejoin_after = 600;
    dopt.slow_p99_threshold = 60;
    dopt.min_latency_samples = 8;
    tracker_ = std::make_unique<NodeHealthTracker>(dopt);
    engine_ = std::make_unique<FailoverEngine>(
        nullptr, tracker_.get(), [this](uint32_t node) {
          std::vector<DbId> out;
          for (const auto& [db, owner] : placed_) {
            if (owner == node) out.push_back(db);
          }
          return out;
        });
    engine_->set_requeue_hook([this](DbId db, uint32_t, EpochSeconds t) {
      requeued_at_[db] = t;
    });
    deaths_seen_ = 0;
    dispatcher_.set_health_tracker(tracker_.get());
  }

  /// Accumulates the current detector/engine generation's counters into
  /// the result (called before the generation is discarded, and once at
  /// the end of the run).
  void FoldDetectionStats() {
    if (tracker_ == nullptr) return;
    HarvestDeaths();
    result_.node_rejoins += tracker_->stats().rejoins;
    result_.suspects_gray_failure += tracker_->stats().suspects_gray_failure;
    result_.failover_deduped += engine_->stats().deduped;
  }

  /// Routes an attempt to its home node unless the detector has declared
  /// that node dead — death is strictly past the node's fence-safe time,
  /// so diverting then (and only then) cannot double-live a database.
  EndpointId Route(const ResumeAttempt& a) {
    auto target = static_cast<uint32_t>(
        1 + (a.db + static_cast<uint32_t>(a.node_offset)) %
                static_cast<uint32_t>(opt_.num_nodes));
    if (tracker_ == nullptr) return static_cast<EndpointId>(target);
    bool diverted = false;
    for (int i = 0; i < opt_.num_nodes; ++i) {
      if (tracker_->health(target) != NodeHealth::kDead) break;
      target = target % static_cast<uint32_t>(opt_.num_nodes) + 1;
      diverted = true;
    }
    if (diverted) ++result_.diverted_dispatches;
    return static_cast<EndpointId>(target);
  }

  /// The resume side effect as node `node` executes it — behind the
  /// agent's dedup table, epoch fence, and lease fence.  The effect
  /// survives a control-plane crash; the in-workflow metadata mutation
  /// journals through the plane, and an injected crash inside it
  /// surfaces as Aborted (simulated death), which crosses the wire.
  Status NodeResume(EndpointId node, const ResumeAttempt& a,
                    EpochSeconds now) {
    // The agent only calls the executor while it believes it may work; if
    // its lease has in fact lapsed, the self-quiesce fence failed.
    if (!agents_[node - 1]->LeaseValid(now)) ++result_.fence_violations;
    SimDb& d = dbs_[a.db];
    if (outage_now_) return Status::Unavailable("resume path outage");
    if (d.resumed) {
      // A non-hedge dispatch re-executing a workflow whose resume already
      // happened.  (Workflows accepted after the resume — enqueued_at
      // beyond resumed_at — are ordinary stale pre-warms.)
      if (!a.hedge && a.enqueued_at <= d.resumed_at) {
        ++result_.duplicate_resumes;
      }
      return Status::FailedPrecondition("already resumed");
    }
    if (!drain_mode_ && fail_rng_.NextBool(opt_.fail_probability)) {
      return Status::Unavailable("transient workflow failure");
    }
    if ((a.request_id >> 32) < current_epoch_) ++result_.stale_epoch_applied;
    if (!applied_rids_.insert(a.request_id).second) ++result_.double_applies;
    if (d.owner != 0 && d.owner != node) ++result_.double_live;
    d.resumed = true;
    d.resumed_at = now;
    d.pending_completion = now + 30;
    d.owner = node;
    placed_[a.db] = node;
    if (auto it = requeued_at_.find(a.db); it != requeued_at_.end()) {
      if (now >= it->second) {
        result_.replacement_delay.Add(static_cast<double>(now - it->second));
      }
      requeued_at_.erase(it);
    }
    return plane_->metadata().UpsertState(a.db, policy::DbState::kResumed, 0);
  }

  /// Destroys every side effect node `node` holds — invoked by the
  /// agent's self-quiesce (lease lapsed) and by the harness at crash
  /// onset.  The plane's placement belief (`placed_`) is deliberately
  /// NOT touched: the plane does not observe the quiesce, it re-learns
  /// through failover or reconciliation.
  void ReleaseNode(uint32_t node, EpochSeconds /*now*/) {
    for (auto& d : dbs_) {
      if (d.owner != node) continue;
      d.resumed = false;
      d.pending_completion = 0;
      d.owner = 0;
    }
  }

  /// Attempts a metadata mutation.  Returns true when acknowledged;
  /// false when the control plane died mid-mutation (already recovered —
  /// the caller decides whether to retry or let the fleet converge later).
  Result<bool> TryUpsert(DbId db, policy::DbState state, EpochSeconds pred) {
    Status s = plane_->metadata().UpsertState(db, state, pred);
    if (Crashed()) {
      PRORP_RETURN_IF_ERROR(Survive(s));
      return false;
    }
    PRORP_RETURN_IF_ERROR(s);
    return true;
  }

  /// The outcome of a plane call `s`.  When the call killed the control
  /// plane under a crash-anywhere overlay: a recovery, and the run
  /// continues.  A plane that died with no crash injected is an error
  /// (its own status, or Internal when the call reported none).
  Status Survive(Status s) {
    if (!Crashed()) return s;
    if (crash_anywhere_) return Recover();
    if (!s.ok()) return s;
    return Status::Internal("control plane died with no crash injected");
  }

  /// Per-sub-tick machinery: local node clocks (self-quiesce), message
  /// delivery + retransmission + lease fan-out, death declarations and
  /// their failovers, then the service drains any requeued work.
  Status SubTicks() {
    for (DurationSeconds dt = 10; dt < kStep; dt += 10) {
      const EpochSeconds t = now_ + dt;
      for (const auto& agent : agents_) agent->AdvanceTime(t);
      dispatcher_.Tick(t);
      PRORP_RETURN_IF_ERROR(Survive(Status::OK()));
      if (engine_ != nullptr) {
        PRORP_RETURN_IF_ERROR(Survive(engine_->Tick(t)));
        HarvestDeaths();
      }
      plane_->service().Pump(t);
      PRORP_RETURN_IF_ERROR(Survive(Status::OK()));
    }
    return Status::OK();
  }

  /// Folds newly recorded death declarations into the result, clocking
  /// each against its fault's onset.
  void HarvestDeaths() {
    const auto& deaths = engine_->deaths();
    for (; deaths_seen_ < deaths.size(); ++deaths_seen_) {
      const auto& death = deaths[deaths_seen_];
      ++result_.deaths_declared;
      auto it = fault_started_.find(death.node);
      if (it != fault_started_.end() && death.declared_at >= it->second) {
        result_.detection_delay.Add(
            static_cast<double>(death.declared_at - it->second));
      }
    }
  }

  /// Workflow completions report over a reliable side channel (the
  /// node's resource-arrival signal), not the lossy request/ack
  /// transport.
  Status DeliverCompletions() {
    for (int i = 0; i < opt_.num_dbs; ++i) {
      SimDb& d = dbs_[static_cast<size_t>(i)];
      if (d.pending_completion == 0 || d.pending_completion > now_) continue;
      if (!d.resumed) {
        d.pending_completion = 0;  // released again before delivery
        continue;
      }
      if (plane_->service().IsUnacked(static_cast<DbId>(i))) {
        // The resume's ack is still on the wire: hold the level-triggered
        // resource-arrival signal until the ack resolves.
        continue;
      }
      // Re-assert the metadata state first: if a crash ate the
      // in-workflow upsert, this repair is how the fleet converges
      // (idempotent when nothing was lost).
      PRORP_ASSIGN_OR_RETURN(
          bool acked, TryUpsert(static_cast<DbId>(i),
                                policy::DbState::kResumed, 0));
      if (!acked) continue;  // not cleared; redelivered next step
      plane_->service().CompleteWorkflow(static_cast<DbId>(i), now_);
      if (Crashed()) {
        PRORP_RETURN_IF_ERROR(Survive(Status::OK()));
        continue;
      }
      d.pending_completion = 0;
      if (d.outstanding_reactive) {
        d.outstanding_reactive = false;
        if (auto it = login_at_.find(static_cast<DbId>(i));
            it != login_at_.end()) {
          if (now_ >= it->second) {
            result_.login_wait.Add(static_cast<double>(now_ - it->second));
          }
          login_at_.erase(it);
        }
      }
    }
    return Status::OK();
  }

  /// Runs the clock forward with every fault disarmed (wire, journal,
  /// outage, transient failures) until every queued, in-flight, and
  /// unacked workflow resolved and the wire is empty.  Any agent still
  /// crashed (a window extending past the last step) is restarted first.
  Status Drain() {
    drain_mode_ = true;
    outage_now_ = false;
    transport_.set_fault_plan(nullptr);
    plane_->journal().set_fault_plan(nullptr);
    for (const auto& agent : agents_) {
      if (agent->down()) agent->Restart(now_);
    }
    for (int iter = 0; iter < 600; ++iter) {
      if (plane_->service().pending_workflows() == 0 &&
          plane_->service().in_flight() == 0 &&
          plane_->service().unacked() == 0 && dispatcher_.Idle() &&
          transport_.Idle()) {
        result_.drained = true;
        return Status::OK();
      }
      now_ += kStep;
      PRORP_RETURN_IF_ERROR(Survive(plane_->service().RunOnce(now_).status()));
      PRORP_RETURN_IF_ERROR(SubTicks());
      PRORP_RETURN_IF_ERROR(DeliverCompletions());
    }
    return Status::TimedOut(
        "plane torture drain did not converge: pending=" +
        std::to_string(plane_->service().pending_workflows()) +
        " in_flight=" + std::to_string(plane_->service().in_flight()) +
        " unacked=" + std::to_string(plane_->service().unacked()) +
        " outstanding=" + std::to_string(dispatcher_.outstanding()) +
        " wire_idle=" + (transport_.Idle() ? "y" : "n"));
  }

  bool Crashed() const { return plane_ == nullptr || !plane_->healthy(); }

  /// Kills the current incarnation (if it is not dead already) and
  /// recovers a new one from disk.
  Status Recover() {
    if (result_.recoveries >= kMaxRecoveries) {
      return Status::ResourceExhausted("too many control-plane recoveries");
    }
    // Conservative-restore check: an open breaker must never recover
    // closed (the window restarts empty; open waits out its cool-down).
    const bool was_open = plane_->service().breaker_state() ==
                          controlplane::BreakerState::kOpen;
    plane_.reset();
    ++result_.recoveries;
    if (opt_.detection_enabled) {
      FoldDetectionStats();
      BuildDetection();
    }
    PRORP_RETURN_IF_ERROR(Reopen(now_));
    if (was_open && plane_->service().breaker_state() ==
                        controlplane::BreakerState::kClosed) {
      result_.breaker_recovered_closed_early = true;
    }
    return Status::OK();
  }

  Status Reopen(EpochSeconds now) {
    DurableControlPlane::Options popt;
    popt.dir = opt_.dir;
    popt.config = TortureConfig(opt_);
    popt.max_attempts = kMaxAttempts;
    popt.checkpoint_every = opt_.checkpoint_every;
    journal_plan_ = nullptr;
    if (opt_.journal_fault_probability > 0 && !drain_mode_) {
      journal_plan_ = std::make_unique<faults::FaultPlan>(
          opt_.seed + 0x1000ull * static_cast<uint64_t>(result_.recoveries));
      // Alternate the failure flavor so both plain I/O errors and ENOSPC
      // fail-stops hit the journal across recoveries.
      faults::FaultKind kind = result_.recoveries % 2 == 0
                                   ? faults::FaultKind::kIoError
                                   : faults::FaultKind::kDiskFull;
      journal_plan_->FailWithProbability(faults::FaultOp::kWalAppend,
                                         opt_.journal_fault_probability, kind);
      journal_plan_->FailWithProbability(faults::FaultOp::kWalSync,
                                         opt_.journal_fault_probability / 2,
                                         faults::FaultKind::kIoError);
    }
    popt.fault_plan = journal_plan_.get();
    for (;;) {
      auto opened = DurableControlPlane::Open(
          popt,
          [this](const ResumeAttempt& a, EpochSeconds t) {
            return dispatcher_.DispatchResume(a, t);
          },
          [this](DbId db) { return dbs_[db].resumed; }, now);
      if (opened.ok()) {
        plane_ = std::move(*opened);
        break;
      }
      // A crash or journal fault fired inside recovery itself: the
      // journaled reconcile prefix replays on the next attempt.
      if (!crash_anywhere_ || result_.recoveries >= kMaxRecoveries) {
        return opened.status();
      }
      ++result_.recoveries;
    }
    // Order matters: repoint the dispatcher (killing the predecessor's
    // outstanding table) and the failover engine at the new incarnation,
    // then fence every node under the new epoch — all before the harness
    // delivers another message, so a floater can never execute against a
    // stale fence.
    dispatcher_.set_service(&plane_->service());
    if (engine_ != nullptr) engine_->set_service(&plane_->service());
    current_epoch_ = plane_->service().epoch();
    for (const auto& agent : agents_) agent->FenceEpoch(current_epoch_);
    return Status::OK();
  }

  const PlaneTortureOptions& opt_;
  /// An armed crash point or journal fault plan: a dead plane is
  /// recovered and the run continues.  Without one, nothing was injected
  /// that may kill the plane, so a death is an error.
  const bool crash_anywhere_;
  std::vector<SimDb> dbs_;
  Rng rng_;
  Rng fail_rng_;
  faults::FaultPlan plan_;
  FaultInjectingTransport transport_;
  TransportDispatcher dispatcher_;
  std::vector<std::unique_ptr<NodeAgent>> agents_;
  std::unique_ptr<NodeHealthTracker> tracker_;
  std::unique_ptr<FailoverEngine> engine_;
  std::unique_ptr<faults::FaultPlan> journal_plan_;
  std::unique_ptr<DurableControlPlane> plane_;
  PlaneTortureResult result_;
  std::unordered_set<uint64_t> applied_rids_;
  /// Plane-side placement belief: where each database last executed a
  /// resume.  Survives node quiesces and plane crashes (placement
  /// metadata is durable in the real system); the failover engine
  /// enumerates from it.
  std::map<DbId, uint32_t> placed_;
  std::unordered_map<DbId, EpochSeconds> requeued_at_;
  std::unordered_map<DbId, EpochSeconds> login_at_;
  std::map<uint32_t, EpochSeconds> fault_started_;
  size_t deaths_seen_ = 0;
  uint64_t current_epoch_ = 0;
  EpochSeconds now_ = kStart;
  bool outage_now_ = false;
  bool drain_mode_ = false;
};

}  // namespace

Result<PlaneTortureResult> RunPlaneTorture(const PlaneTortureOptions& options) {
  Harness harness(options);
  return harness.Run();
}

Result<std::map<std::string, uint64_t>> ObservePlaneCrashPoints(
    const PlaneTortureOptions& options) {
  auto& registry = faults::CrashPointRegistry::Global();
  registry.Reset();
  registry.SetCounting(true);
  PlaneTortureOptions observe = options;
  observe.crash_point.clear();
  observe.journal_fault_probability = 0;
  Result<PlaneTortureResult> run = RunPlaneTorture(observe);
  std::map<std::string, uint64_t> hits;
  for (std::string_view point : faults::ControlPlaneCrashPoints()) {
    hits[std::string(point)] = registry.hits(point);
  }
  registry.Reset();
  if (!run.ok()) return run.status();
  return hits;
}

}  // namespace prorp::sim
