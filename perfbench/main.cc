// The repository benchmark.  Usage:
//
//   perfbench --workload <fleet_proactive|fleet_reactive_large|
//                         login_buffered|login_durable>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//   perfbench --selftest
//
// Prints human-readable lines, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1.  Exits non-zero
// when an output check fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "workloads.h"

namespace perfbench {

void InitPerLayerMetrics(Report* report) {
  static const char* const kCounts[] = {
      "forecast.predictions_per_db_day", "history.ops_per_prediction",
      "history.logins_read_per_prediction", "history.tuples_per_db",
      "sim.events_per_db_day", "sim.allocs_per_db_day",
      "workload.sessions_per_db_day", "policy.calls_per_db_day",
      "policy.transitions_per_db_day", "metadata.upserts_per_db_day",
      "metadata.selected_per_iteration", "journal.records_per_login",
      "storage.write_calls_per_login", "net.retransmissions",
      "node.duplicate_suppressed", "trace.spans"};
  for (const char* name : kCounts) report->Set(name, 0, "count");
  for (const char* name :
       {"forecast.window_ratio", "journal.sync_share", "net.inline_ack_ratio"}) {
    report->Set(name, 0, "ratio");
  }
  for (const char* name :
       {"forecast.self_us_per_prediction", "metadata.select_us",
        "management.iteration_self_us", "management.enqueue_us",
        "management.pump_self_us", "net.dispatch_self_us",
        "node.execute_us"}) {
    report->Set(name, 0, "us");
  }
  for (const char* name :
       {"history.ns_per_op", "sim.ns_per_event", "workload.ns_per_session",
        "policy.self_ns_per_call", "metadata.ns_per_upsert",
        "trace.span_cost_ns"}) {
    report->Set(name, 0, "ns");
  }
  for (const char* name :
       {"journal.bytes_per_login", "storage.bytes_written_per_login",
        "sim.event_queue_bytes"}) {
    report->Set(name, 0, "bytes");
  }
  report->Set("management.queue_wait_p99_s", 0, "s");
  report->Set("login.p90_ms", 0, "ms");
  report->Set("login.p99_ms", 0, "ms");
  report->Set("login.max_rate_per_s", 0, "1/s");
  report->Set("login.generator_late_p99_ms", 0, "ms");
  report->Set("alg5.iter_p50_ms", 0, "ms");
  report->Set("alg5.iter_p99_ms", 0, "ms");
  report->Set("trace_overhead_pct", 0, "%");
  report->Set("replay.max_count_diff_pct", 0, "%");
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload W --seed N --seconds S "
               "--trace 0|1 --work-dir DIR | --selftest\n");
  return 2;
}

void PrintJson(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.correct() ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), std::isfinite(m.value) ? m.value : 0.0,
                m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--selftest") {
      int failures = RunSelfTests();
      std::printf("selftest: %d failure(s)\n", failures);
      return failures == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) return Usage();
    std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--work-dir") {
      args.work_dir = v;
    } else {
      return Usage();
    }
  }
  if (!have_workload || args.work_dir.empty() || !(args.seconds > 0)) {
    return Usage();
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);

  Report report;
  if (args.workload == "fleet_proactive") {
    RunFleetWorkload(args, /*proactive=*/true, &report);
  } else if (args.workload == "fleet_reactive_large") {
    RunFleetWorkload(args, /*proactive=*/false, &report);
  } else if (args.workload == "login_durable") {
    RunLoginWorkload(args, /*durable=*/true, &report);
  } else if (args.workload == "login_buffered") {
    RunLoginWorkload(args, /*durable=*/false, &report);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  for (const auto& [name, m] : report.metrics) {
    report.Check(std::isfinite(m.value), name + " is not finite");
  }
  for (const std::string& e : report.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  for (const auto& [name, m] : report.metrics) {
    std::printf("%-36s %16.6f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  PrintJson(report);
  return report.correct() ? 0 : 1;
}
