#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"
#include "common/result.h"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for journals and span dumps (inside the checkout).
  std::string work_dir;
};

/// Adds every per-layer metric at 0, so a traced run reports the full set
/// on every workload (a layer a workload never enters reads 0).
void InitPerLayerMetrics(Report* report);

void RunFleetWorkload(const RunArgs& args, bool proactive, Report* report);
/// `durable`: the plane's journal fsyncs every record (login_durable);
/// otherwise it journals buffered (login_buffered).
void RunLoginWorkload(const RunArgs& args, bool durable, Report* report);

/// The traffic the EU1 model sends to the control plane's resume path,
/// per database and virtual day of the evaluation period: first logins
/// after idle that found the database physically paused (a reactive
/// resume) or pre-warmed by Algorithm 5, and all pre-warms.
struct LoginTraffic {
  double reactive_per_db_day = 0;
  double prewarmed_per_db_day = 0;
  double prewarms_per_db_day = 0;
};
/// Measures LoginTraffic with a proactive replay (one LifecycleController
/// per database over FastPredictor, as in fleet_proactive) of the first
/// `num_dbs` databases of a fixed-seed fleet_proactive fleet.
prorp::Result<LoginTraffic> DeriveLoginTraffic(size_t num_dbs);

/// The benchmark's own self-tests; returns the number of failures.
int RunSelfTests();

// Self-test hooks: the inputs and exact counts a seed produces.
struct FleetProbe {
  uint64_t input_hash = 0;
  uint64_t sessions = 0;
  uint64_t events = 0;
  uint64_t logins = 0;
  uint64_t predictions = 0;
};
/// Simulates the first `num_dbs` databases of the workload's fleet.
FleetProbe ProbeFleet(bool proactive, uint64_t seed, size_t num_dbs);
/// Fingerprint of the login workload's generated schedule.
uint64_t LoginInputsHash(uint64_t seed, double seconds,
                         const LoginTraffic& traffic);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
