#ifndef PRORP_SIM_PLANE_TORTURE_H_
#define PRORP_SIM_PLANE_TORTURE_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "net/fault_injecting_transport.h"

namespace prorp::sim {

/// One injected node fault, active over [at_step, at_step + duration).
struct NodeFaultSpec {
  enum class Kind : uint8_t {
    kCrash,      ///< process death: deaf to messages, side effects destroyed
    kPartition,  ///< cut off from the plane in `direction`; kFromNodes
                 ///< is a zombie (keeps receiving and executing, every
                 ///< reply lost).  A window over several nodes is one
                 ///< entry per node.
    kSlow,       ///< gray failure: alive and correct, replies delayed
  };
  Kind kind = Kind::kCrash;
  uint32_t node = 1;  ///< node endpoint id (1-based)
  /// kPartition only: which way messages are lost.
  net::PartitionSpec::Direction direction =
      net::PartitionSpec::Direction::kFromNodes;
  int at_step = 40;
  int duration_steps = 20;
  /// kSlow only: fixed delay applied to everything the node sends.
  DurationSeconds slow_delay = 120;
};

/// One control-plane torture run.  A deterministic mini-fleet workload
/// (proactive selections, reactive logins, pause churn) drives a
/// DurableControlPlane whose resume dispatches cross a
/// FaultInjectingTransport to per-node NodeAgents, with a lease-driven
/// failure detector and fenced failover engine watching the nodes.  Every
/// fault is an overlay on that one harness:
///  * wire faults: drop / duplicate / delay probabilities;
///  * node faults: crash, partition window (a zombie is a kFromNodes
///    partition), gray-slow node;
///  * detection on or off (off = passive baseline: leases stay
///    telemetry-only, no tracker, no failover);
///  * a login-spike storm and a resume-path outage window;
///  * a control-plane crash at a step;
///  * crash anywhere: an armed crash point or a probabilistic journal
///    fault plan, each crash recovered from disk and the run continued.
///
/// Invariants the result exposes (the torture suites assert them):
///  * zero accepted-login loss,
///  * zero duplicate resumes (meaningful when every ack arrives inline),
///  * zero double-applies and zero stale-epoch applies,
///  * zero double-live and zero fence violations,
///  * an open breaker never recovers closed,
///  * per-class accounting reconciles after the drain.
struct PlaneTortureOptions {
  std::string dir;  // working directory for journal + checkpoint
  uint64_t seed = 1;
  int num_dbs = 48;
  int num_nodes = 4;
  int steps = 200;  // virtual-clock steps of one minute each
  // Wire faults: per-message probabilities from a transport-only stream.
  double drop_p = 0.0;
  double duplicate_p = 0.0;
  double delay_p = 0.0;
  std::vector<NodeFaultSpec> faults;
  /// False = passive baseline: recovery from a node fault happens only
  /// through retry/timeout attrition.
  bool detection_enabled = true;
  /// Lease fan-out period (leases are epoch advertisements even with
  /// detection off).
  DurationSeconds lease_interval = 60;
  /// Failure-detector thresholds (the tracker's rejoin cooldown and
  /// gray-failure score are fixed by the harness); `lease_ttl` is also
  /// the TTL on real renewals when detection is on.
  DurationSeconds lease_ttl = 240;
  DurationSeconds suspect_after = 150;
  DurationSeconds dead_grace = 120;
  bool storm = false;      // login-spike storm mid-run
  bool outage = false;     // resume-path outage window mid-run
  int crash_at_step = -1;  // control-plane crash/recovery at this step
  /// Probability a node execution fails transiently.
  double fail_probability = 0.05;
  uint64_t checkpoint_every = 64;
  /// Probability a journal WAL append/sync fails per op, via a
  /// per-incarnation FaultPlan; each failure fail-stops the incarnation.
  double journal_fault_probability = 0.0;
  /// Crash point to arm ("" = none), its 1-based nth hit, and payload
  /// (for kCpJournalPreSync: the surviving-prefix selector).
  std::string crash_point;
  uint64_t crash_nth = 1;
  uint64_t crash_payload = 0;
};

struct PlaneTortureResult {
  bool crash_fired = false;  ///< the armed crash point fired
  int recoveries = 0;        ///< control-plane crash/recovery cycles
  uint64_t accepted_reactive = 0;
  /// Acked logins whose database was still not resumed after the final
  /// drain — must be zero.
  uint64_t lost_reactive = 0;
  /// Non-hedge dispatches that re-executed an already-performed resume of
  /// the same workflow.  Zero whenever every ack arrives inline (no wire
  /// fault, partition or slow node); with acks lost or late a blind
  /// redispatch after a timeout legitimately finds the db resumed.
  uint64_t duplicate_resumes = 0;
  /// A request id side-effecting twice — must be zero.
  uint64_t double_applies = 0;
  /// A request below the node's epoch fence executed — must be zero.
  uint64_t stale_epoch_applied = 0;
  /// A database executed a resume while its side effects were still live
  /// on another node — must be zero (the lease fence failed).
  uint64_t double_live = 0;
  /// A node executed work while its own lease was lapsed — must be zero
  /// (the self-quiesce fence failed).
  uint64_t fence_violations = 0;
  /// A breaker that was open at a crash recovered closed — must be false
  /// (conservative restore).
  bool breaker_recovered_closed_early = false;
  // Detection / failover telemetry.
  uint64_t deaths_declared = 0;
  uint64_t failover_requeues = 0;
  uint64_t failover_deduped = 0;
  uint64_t diverted_dispatches = 0;  ///< routed off a dead home node
  uint64_t self_quiesces = 0;
  uint64_t lease_expired_rejected = 0;
  uint64_t lease_probes = 0;
  uint64_t node_rejoins = 0;
  uint64_t suspects_gray_failure = 0;
  // Transport-defense telemetry.
  uint64_t duplicate_suppressed = 0;  ///< node dedup-table hits
  uint64_t stale_epoch_rejected = 0;  ///< node epoch-fence rejections
  uint64_t dispatch_timeouts = 0;
  uint64_t late_acks = 0;
  uint64_t stale_epoch_acks = 0;
  uint64_t retransmissions = 0;
  uint64_t unacked_dispatches = 0;
  uint64_t hedges = 0;
  // Workload telemetry.
  uint64_t incidents = 0;
  uint64_t total_resumed = 0;
  bool accounting_ok = false;
  bool drained = false;
  /// Fault onset -> death declaration, seconds, one sample per death.
  Summary detection_delay;
  /// Failover re-queue -> successful re-execution on a survivor.
  Summary replacement_delay;
  /// Login arrival -> database resumed, for logins that had to wait.
  Summary login_wait;
  net::TransportStats transport;
};

Result<PlaneTortureResult> RunPlaneTorture(const PlaneTortureOptions& options);

/// Counting pass: runs the workload crash-free with the crash-point
/// registry in counting mode and returns hits per control-plane point.
/// The crash matrix uses it to spread crash_nth over hits that actually
/// occur.
Result<std::map<std::string, uint64_t>> ObservePlaneCrashPoints(
    const PlaneTortureOptions& options);

}  // namespace prorp::sim

#endif  // PRORP_SIM_PLANE_TORTURE_H_
