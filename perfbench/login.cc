// login_buffered and login_durable: an open-loop, Poisson, seeded stream
// of customer logins against a DurableControlPlane, with Algorithm 5
// iterations interleaved at a fixed cadence of virtual time.  The plane's
// journal appends every record buffered (SyncMode::kBuffered, the
// simulator's mode) in login_buffered and fsyncs every record
// (SyncMode::kDurable) in login_durable; nothing else differs.
//
// Population: kPopulation physically paused databases.  The traffic is
// the EU1 model's (DeriveLoginTraffic): per database and virtual day, the
// first logins after idle that reach the resume path — finding the
// database physically paused or pre-warmed — and the pre-warms nobody
// logs into, scaled by kPopulation and the virtual clock.  A login that
// the model finds pre-warmed targets a database whose predicted start
// sits just after it, so Algorithm 5 pre-warms it first; a reactive
// login targets one with no prediction; the wasted pre-warms are
// databases with predicted starts at the model's rate and no login.
//
// Each login runs UpsertState -> EnqueueReactive -> Pump ->
// TransportDispatcher::DispatchResume -> InProcessTransport -> NodeAgent
// -> ack, and its latency is timed from when it was due; a login that
// finds its database pre-warmed only records the resume.  The untraced
// run repeats one short fixed-rate phase on freshly set-up planes
// (login_p50_ms: the median latency of the reactive logins of all
// repetitions).  The traced run runs a longer fixed-rate phase traced and
// untraced, climbs a ladder of rising rates (login.max_rate_per_s), and
// runs closed-loop batches for the journal's share of the login time.
//
// Set-up populates the plane with buffered journaling, checkpoints, and
// reopens it in the workload's sync mode, so recovery is part of setup_s.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/config.h"
#include "common/random.h"
#include "controlplane/durable_control_plane.h"
#include "decorators.h"
#include "net/dispatcher.h"
#include "net/node_agent.h"
#include "net/transport.h"
#include "workloads.h"

namespace perfbench {
namespace {

using prorp::Days;
using prorp::EpochSeconds;
using prorp::Result;
using prorp::Status;
using prorp::controlplane::ControlPlaneJournal;
using prorp::controlplane::DurableControlPlane;
using prorp::controlplane::MetadataStore;
using prorp::controlplane::ResumeAttempt;
using prorp::controlplane::ResumeClass;
using prorp::policy::DbState;
using SyncMode = ControlPlaneJournal::SyncMode;

constexpr size_t kPopulation = 50'000;
constexpr EpochSeconds kV0 = Days(1005);
/// Virtual seconds per wall second: one Algorithm 5 iteration (60 virtual
/// seconds) every 150 ms of wall time.  With kPopulation this is the
/// workload's one load knob: the EU1 traffic of 50,000 databases at 400x
/// is about 100 logins and 170 pre-warms per wall second, which keeps the
/// journal's fsyncs busy under a tenth of the time, so the plane stays
/// unsaturated when the shared disk's fsyncs slow several-fold (at 1200x
/// it saturated in such periods; see NOTES.md).
constexpr double kVirtualPerWall = 400;
/// Databases of the fixed-seed EU1 fleet DeriveLoginTraffic replays.
constexpr size_t kTrafficDbs = 500;
/// The p90 login latency a ladder rung must meet.  (The p99 of this
/// fsync-bound path swings several-fold between runs on a shared disk, so
/// the bounded metrics use the p90; the p99 is reported unbounded.)
constexpr double kP90LimitMs = 10.0;
/// Offered rates of the ladder, logins per wall second (about 1.2x apart).
constexpr double kLadder[] = {500,  600,  720,  860,  1040, 1250,
                              1500, 1800, 2150, 2600, 3100, 3700};
/// Logins per ladder rung: enough for ten samples beyond its p99.
constexpr double kRungLogins = 1'000;
/// Share of --seconds given to each of the traced run's two fixed-rate
/// phases (traced, then untraced on a fresh plane); the ladder and the
/// closed loops follow.  (The untraced run repeats a kRepetitionSeconds
/// phase instead.)
constexpr double kTracedFixedShare = 0.3;
/// The traced run's fixed-rate phase is cut into windows of this many
/// reactive logins; login.p90_ms is the calmest window's (the journal
/// shares the disk with other tenants whose load comes and goes over
/// seconds to minutes).
constexpr size_t kWindowLogins = 100;
/// Closed-loop logins per sync mode for journal.sync_share (traced run).
constexpr size_t kClosedLoopLogins = 1'000;
/// The untraced run repeats one fixed-rate phase of this many wall
/// seconds (about 80 reactive logins and 27 Algorithm 5 iterations), each
/// time on a freshly set-up plane, at least kMinRepetitions times.
constexpr double kRepetitionSeconds = 4;
constexpr int kMinRepetitions = 3;

/// One scheduled login.
struct Login {
  double due_s = 0;  // wall offset from the start of its phase
  uint32_t db = 0;
};

/// A stretch of the open loop at one offered rate.
struct Phase {
  double rate = 0;
  double length_s = 0;
  std::vector<Login> logins;
};

/// The fixed-rate phase's traffic in wall-clock terms.
struct Rates {
  double logins_per_s = 0;  // reactive plus pre-warmed logins
  double hit_share = 0;     // share of them that find a pre-warm
  /// Virtual seconds between the predicted starts of wasted pre-warms.
  double wasted_every_v = 0;
};

Rates RatesFor(const LoginTraffic& t) {
  const double per_virtual_s = static_cast<double>(kPopulation) / 86400.0;
  const double logins = t.reactive_per_db_day + t.prewarmed_per_db_day;
  const double wasted =
      std::max(t.prewarms_per_db_day - t.prewarmed_per_db_day, 1e-9);
  Rates r;
  r.logins_per_s = logins * per_virtual_s * kVirtualPerWall;
  r.hit_share = t.prewarmed_per_db_day / logins;
  r.wasted_every_v = 1.0 / (wasted * per_virtual_s);
  return r;
}

/// Everything generated from the seed before the run.  phases[0] is the
/// fixed-rate phase; ladder rung r has two prepared attempts,
/// phases[1 + 2r] and phases[2 + 2r] (the second runs only when the first
/// misses the limit, so a transient disk stall does not end the ladder).
struct Inputs {
  std::vector<Phase> phases;
  std::vector<EpochSeconds> predicted;  // per database; 0 = none
  std::vector<uint32_t> closed_loop;    // spare reactive targets
  uint64_t hash = kFnvBasis;
};

EpochSeconds VirtualAt(double wall_s) {
  return kV0 + static_cast<EpochSeconds>(wall_s * kVirtualPerWall);
}

Inputs MakeInputs(uint64_t seed, double fixed_seconds, const Rates& rates) {
  Inputs in;
  prorp::Rng rng(seed ^ 0x6c6f67696eULL);
  std::vector<uint32_t> order(kPopulation);
  for (uint32_t i = 0; i < kPopulation; ++i) order[i] = i;
  for (size_t i = kPopulation - 1; i > 0; --i) {
    std::swap(order[i], order[rng.NextBelow(i + 1)]);
  }
  size_t next_target = 0;
  in.predicted.assign(kPopulation, 0);
  // Logins start `lead_s` into their phase; only Algorithm 5 runs before.
  auto add_phase = [&](double rate, double length_s, double hit_share,
                       double lead_s) {
    Phase ph{rate, lead_s + length_s, {}};
    uint64_t n = 0;
    for (double t = lead_s + rng.NextExponential(1.0 / rate);
         t < lead_s + length_s; t += rng.NextExponential(1.0 / rate)) {
      Login l{t, order[next_target++ % kPopulation]};
      // Hits spread evenly: login n is one when the running count of
      // n * hit_share steps up.
      ++n;
      if (std::floor(static_cast<double>(n) * hit_share) >
          std::floor(static_cast<double>(n - 1) * hit_share)) {
        // Predicted a little after the login: the selecting iteration
        // (prewarm_interval ahead of the prediction) runs before it.
        in.predicted[l.db] = VirtualAt(t) + rng.NextInt(1, 240);
      }
      ph.logins.push_back(l);
    }
    in.phases.push_back(std::move(ph));
  };
  // The fixed-rate phase leads with the iterations that would have
  // selected its first logins' databases (prewarm_interval plus one
  // period ahead), so its start finds the plane as a steady state would.
  const prorp::ControlPlaneConfig cp;
  const double lead_s =
      static_cast<double>(cp.prewarm_interval + cp.resume_operation_period) /
      kVirtualPerWall;
  add_phase(rates.logins_per_s, fixed_seconds, rates.hit_share, lead_s);
  for (double rate : kLadder) {
    add_phase(rate, kRungLogins / rate, 0, 0);
    add_phase(rate, kRungLogins / rate, 0, 0);
  }
  for (size_t i = 0; i < kClosedLoopLogins; ++i) {
    in.closed_loop.push_back(order[next_target++ % kPopulation]);
  }
  if (next_target > kPopulation) {
    std::fprintf(stderr, "login schedule exceeds the population\n");
    std::exit(2);
  }
  // Wasted pre-warms: the untouched databases expect activity at the
  // model's rate of pre-warms nobody logs into, evenly spaced so every
  // seed gives Algorithm 5 the same load.
  for (size_t i = next_target; i < kPopulation; ++i) {
    in.predicted[order[i]] =
        kV0 + 1 +
        static_cast<EpochSeconds>(static_cast<double>(i - next_target) *
                                  rates.wasted_every_v);
  }
  for (const Phase& ph : in.phases) {
    for (const Login& l : ph.logins) {
      in.hash = Fnv(Fnv(in.hash, l.db), static_cast<uint64_t>(l.due_s * 1e9));
    }
  }
  for (EpochSeconds p : in.predicted) in.hash = Fnv(in.hash, p);
  return in;
}

/// The node side plus the plane, wired like the fleet simulator's
/// transport path: dispatcher -> in-process wire -> node agent.
class LoginStack {
 public:
  LoginStack(Tracer* tracer, const SpanNames* names)
      : tracer_(tracer),
        names_(names),
        resumed_(kPopulation, 0),
        prewarmed_at_(kPopulation, 0),
        dispatcher_(&transport_, prorp::net::TransportDispatcher::Options{}),
        agent_(1, &transport_,
               [this](const ResumeAttempt& a, EpochSeconds now) {
                 return Execute(a, now);
               }) {}

  /// Populates a fresh plane in `dir` with buffered journaling,
  /// checkpoints, and reopens it with the given sync mode.
  Status SetUp(const std::string& dir, const Inputs& in, SyncMode mode) {
    plane_.reset();
    std::filesystem::remove_all(dir);
    std::fill(resumed_.begin(), resumed_.end(), 0);
    std::fill(prewarmed_at_.begin(), prewarmed_at_.end(), 0);
    executed_.clear();
    DurableControlPlane::Options opt = Options(dir, SyncMode::kBuffered);
    PRORP_RETURN_IF_ERROR(Open(opt));
    for (uint32_t db = 0; db < kPopulation; ++db) {
      PRORP_RETURN_IF_ERROR(plane_->metadata().UpsertState(
          db, DbState::kPhysicallyPaused, in.predicted[db]));
    }
    PRORP_RETURN_IF_ERROR(plane_->Checkpoint());
    return Reopen(mode);
  }

  /// Destroys the plane and recovers it from its directory.
  Status Reopen(SyncMode mode) {
    mode_ = mode;
    DurableControlPlane::Options opt = Options(dir_, mode);
    plane_.reset();
    return Open(opt);
  }

  /// One customer login at virtual time `now`; true when it was acked
  /// (resources found or resumed).  `hit` reports a pre-warmed database.
  bool DoLogin(uint32_t db, EpochSeconds now, uint32_t trace, bool* hit) {
    ScopedSpan login(tracer_, names_->login, trace);
    *hit = resumed_[db] != 0;
    {
      ScopedSpan s(tracer_, names_->metadata_upsert, trace);
      if (!plane_->metadata().UpsertState(db, DbState::kResumed, 0).ok()) {
        return false;
      }
    }
    if (*hit) return true;
    {
      ScopedSpan s(tracer_, names_->management_enqueue, trace);
      if (!plane_->service().EnqueueReactive(db, now).ok()) return false;
    }
    {
      ScopedSpan s(tracer_, names_->management_pump, trace);
      plane_->service().Pump(now);
    }
    return resumed_[db] != 0;
  }

  /// One Algorithm 5 iteration; returns its wall time in ms.
  double Iterate(EpochSeconds now, uint64_t* selected) {
    auto& svc = plane_->service();
    if (tracer_ != nullptr) {
      ScopedSpan s(tracer_, names_->metadata_select, 0);
      const auto& cp = svc.config();
      Result<std::vector<prorp::telemetry::DbId>> due =
          plane_->metadata().SelectDueForResume(now, cp.prewarm_interval,
                                                cp.resume_operation_period);
      if (due.ok()) *selected += due->size();
    }
    int64_t t0 = NowNs();
    {
      ScopedSpan s(tracer_, names_->management_iteration, 0);
      iteration_ok_ = iteration_ok_ && svc.RunOnce(now).ok();
    }
    return static_cast<double>(NowNs() - t0) / 1e6;
  }

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  DurableControlPlane& plane() { return *plane_; }
  const prorp::net::TransportDispatcher& dispatcher() const {
    return dispatcher_;
  }
  const prorp::net::NodeAgent& agent() const { return agent_; }
  uint64_t duplicate_executions() const { return duplicate_executions_; }
  bool iteration_ok() const { return iteration_ok_; }
  EpochSeconds prewarmed_at(uint32_t db) const { return prewarmed_at_[db]; }
  SyncMode mode() const { return mode_; }

 private:
  DurableControlPlane::Options Options(const std::string& dir,
                                       SyncMode mode) const {
    DurableControlPlane::Options opt;
    opt.dir = dir;
    opt.sync_mode = mode;
    opt.checkpoint_every = 0;  // checkpoints only at set-up
    return opt;
  }

  Status Open(const DurableControlPlane::Options& opt) {
    dir_ = opt.dir;
    Result<std::unique_ptr<DurableControlPlane>> p = DurableControlPlane::Open(
        opt,
        [this](const ResumeAttempt& a, EpochSeconds now) {
          ScopedSpan s(tracer_, names_->net_dispatch, a.db);
          return dispatcher_.DispatchResume(a, now);
        },
        [this](prorp::telemetry::DbId db) {
          return db < resumed_.size() && resumed_[db] != 0;
        },
        kV0);
    if (!p.ok()) return p.status();
    plane_ = std::move(*p);
    dispatcher_.set_service(&plane_->service());
    agent_.FenceEpoch(plane_->service().epoch());
    return Status::OK();
  }

  /// The node-side executor: allocates the database's resources.
  Status Execute(const ResumeAttempt& a, EpochSeconds now) {
    ScopedSpan s(tracer_, names_->node_execute, a.db);
    if (!executed_.insert(a.request_id).second) ++duplicate_executions_;
    if (a.db >= resumed_.size()) return Status::InvalidArgument("unknown db");
    if (resumed_[a.db] != 0) {
      return Status::FailedPrecondition("already resumed");
    }
    resumed_[a.db] = 1;
    if (a.cls != ResumeClass::kReactiveLogin) {
      // A pre-warm: the control plane records the logical pause, as the
      // fleet simulator's resume callback does through the FSM.
      prewarmed_at_[a.db] = now;
      return plane_->metadata().UpsertState(a.db, DbState::kLogicallyPaused,
                                            0);
    }
    return Status::OK();
  }

  Tracer* tracer_;
  const SpanNames* names_;
  std::vector<uint8_t> resumed_;
  std::vector<EpochSeconds> prewarmed_at_;
  std::unordered_set<uint64_t> executed_;
  uint64_t duplicate_executions_ = 0;
  bool iteration_ok_ = true;
  std::string dir_;
  SyncMode mode_ = SyncMode::kDurable;
  prorp::net::InProcessTransport transport_;
  prorp::net::TransportDispatcher dispatcher_;
  prorp::net::NodeAgent agent_;
  std::unique_ptr<DurableControlPlane> plane_;
};

/// Spins until `deadline`, sleeping only through long gaps: a sleeping
/// thread's wake-up delay would land in the latencies of the logins due
/// right after it.
void WaitUntil(Clock::time_point deadline) {
  if (deadline - Clock::now() > std::chrono::milliseconds(5)) {
    std::this_thread::sleep_until(deadline - std::chrono::milliseconds(3));
  }
  while (Clock::now() < deadline) {
  }
}

struct PhaseStats {
  double rate = 0;
  std::vector<double> due_s;  // wall offset each login was due
  std::vector<double> latency_ms;
  std::vector<uint8_t> hit;  // the login found its database pre-warmed
  std::vector<double> late_ms;  // generator lateness: start - due
  uint64_t offered = 0;
  uint64_t acked = 0;
  uint64_t hits = 0;
  double last_late_ms = 0;
};

struct OpenLoopResult {
  PhaseStats fixed;
  std::vector<PhaseStats> rungs;  // every rung attempt run, in order
  std::vector<double> iteration_ms;
  std::vector<double> iteration_at_s;  // wall offset each iteration was due
  uint64_t selected = 0;
  double idle_db_seconds = 0;  // pre-warmed idle time in the fixed phase
  double end_s = 0;            // wall offset where the open loop ended
  uint64_t offered = 0;
  uint64_t acked = 0;
};

/// Per-window statistics of the fixed-rate phase: consecutive windows of
/// kWindowLogins reactive logins (a trailing partial window is dropped),
/// and the median Algorithm 5 iteration due inside each window's time
/// span.  `hit_ms` holds the latencies of the logins that found a
/// pre-warm.
struct Windows {
  std::vector<double> p50, p90, p99, iteration_p50;
  std::vector<double> hit_ms;
};

Windows WindowStats(const PhaseStats& ph, const std::vector<double>& iter_at,
                    const std::vector<double>& iter_ms) {
  Windows w;
  std::vector<double> lat, due;
  for (size_t i = 0; i < ph.latency_ms.size(); ++i) {
    (ph.hit[i] ? w.hit_ms : lat).push_back(ph.latency_ms[i]);
    if (!ph.hit[i]) due.push_back(ph.due_s[i]);
  }
  for (size_t at = 0; at + kWindowLogins <= lat.size(); at += kWindowLogins) {
    std::vector<double> win(lat.begin() + at,
                            lat.begin() + at + kWindowLogins);
    w.p50.push_back(Percentile(win, 0.50));
    w.p90.push_back(Percentile(win, 0.90));
    w.p99.push_back(Percentile(win, 0.99));
    const double from = at == 0 ? 0 : due[at];
    const double to = due[at + kWindowLogins - 1];
    std::vector<double> iters;
    for (size_t i = 0; i < iter_at.size(); ++i) {
      if (iter_at[i] >= from && iter_at[i] < to) iters.push_back(iter_ms[i]);
    }
    if (!iters.empty()) w.iteration_p50.push_back(Median(iters));
  }
  return w;
}

double Min(const std::vector<double>& v) {
  return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

bool RungPasses(const PhaseStats& p) {
  return !p.latency_ms.empty() &&
         Percentile(p.latency_ms, 0.90) <= kP90LimitMs &&
         p.last_late_ms <= kP90LimitMs && p.acked == p.offered;
}

/// Runs logins open loop from wall offset `start_s` (virtual time keeps
/// running from there), Algorithm 5 iterations interleaved at their fixed
/// cadence: the fixed-rate phase, or the ladder, which stops at the first
/// rung whose both attempts miss the limit.
OpenLoopResult RunOpenLoop(LoginStack* stack, const Inputs& in, bool ladder,
                           double start_s) {
  OpenLoopResult r;
  const auto& cp = stack->plane().service().config();
  const double iter_every_s =
      static_cast<double>(cp.resume_operation_period) / kVirtualPerWall;
  const Clock::time_point start = Clock::now();
  auto at = [&](double s) {
    return start +
           std::chrono::nanoseconds(static_cast<int64_t>((s - start_s) * 1e9));
  };
  auto next_iter = static_cast<uint64_t>(std::ceil(start_s / iter_every_s));
  auto iterate_until = [&](double due_s) {
    for (double d = static_cast<double>(next_iter) * iter_every_s;
         d <= due_s; d = static_cast<double>(next_iter) * iter_every_s) {
      WaitUntil(at(d));
      r.iteration_at_s.push_back(d);
      r.iteration_ms.push_back(stack->Iterate(
          kV0 + static_cast<EpochSeconds>(next_iter) *
                    cp.resume_operation_period,
          &r.selected));
      ++next_iter;
    }
  };
  std::vector<uint8_t> hit_in_fixed(kPopulation, 0);
  double base = start_s;
  auto run_phase = [&](const Phase& ph, PhaseStats* ps, bool fixed) {
    ps->rate = ph.rate;
    for (const Login& l : ph.logins) {
      const double due = base + l.due_s;
      iterate_until(due);
      WaitUntil(at(due));
      const double late =
          std::chrono::duration<double, std::milli>(Clock::now() - at(due))
              .count();
      bool hit = false;
      const EpochSeconds now = VirtualAt(due);
      bool acked = stack->DoLogin(l.db, now, static_cast<uint32_t>(r.offered),
                                  &hit);
      ps->due_s.push_back(due);
      ps->hit.push_back(hit);
      ps->latency_ms.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - at(due))
              .count());
      ps->late_ms.push_back(late);
      ps->last_late_ms = late;
      ++ps->offered;
      ++r.offered;
      if (acked) {
        ++ps->acked;
        ++r.acked;
      }
      if (hit) {
        ++ps->hits;
        if (fixed) {
          hit_in_fixed[l.db] = 1;
          r.idle_db_seconds +=
              static_cast<double>(now - stack->prewarmed_at(l.db));
        }
      }
    }
    // The next phase starts on schedule or, after an overloaded one, once
    // its backlog has drained, so it does not inherit the lateness.
    base = std::max(base + ph.length_s, start_s + SecondsSince(start));
    iterate_until(base);
  };

  if (!ladder) {
    run_phase(in.phases[0], &r.fixed, /*fixed=*/true);
    // Pre-warms nobody logged into idle until the scheduled phase end.
    const double end_v =
        static_cast<double>(VirtualAt(start_s + in.phases[0].length_s));
    for (uint32_t db = 0; db < kPopulation; ++db) {
      EpochSeconds p = stack->prewarmed_at(db);
      if (p != 0 && !hit_in_fixed[db]) {
        r.idle_db_seconds += end_v - static_cast<double>(p);
      }
    }
  } else {
    for (size_t rung = 0; rung < std::size(kLadder); ++rung) {
      bool passed = false;
      for (size_t attempt = 0; attempt < 2 && !passed; ++attempt) {
        r.rungs.emplace_back();
        run_phase(in.phases[1 + 2 * rung + attempt], &r.rungs.back(), false);
        passed = RungPasses(r.rungs.back());
      }
      if (!passed) break;
    }
  }
  r.end_s = base;
  return r;
}

/// The highest offered rate whose p90 meets the limit with no growing
/// backlog, interpolated on p90 between the last passing rung and the
/// rung that failed twice, so it reads as a continuous number.
double MaxRate(const OpenLoopResult& r) {
  double pass_rate = 0;
  double pass_p90 = 0;
  for (const PhaseStats& ps : r.rungs) {
    if (RungPasses(ps)) {
      pass_rate = ps.rate;
      pass_p90 = Percentile(ps.latency_ms, 0.90);
    }
  }
  if (r.rungs.empty()) return 0;
  const PhaseStats& last = r.rungs.back();
  if (RungPasses(last)) return pass_rate;  // the whole ladder passed
  double p90 = Percentile(last.latency_ms, 0.90);
  double frac = (kP90LimitMs - pass_p90) / std::max(p90 - pass_p90, 1e-9);
  return pass_rate + (last.rate - pass_rate) * std::clamp(frac, 0.0, 1.0);
}

/// Mean wall time per login of back-to-back logins (no waiting).
double ClosedLoopMeanMs(LoginStack* stack, const std::vector<uint32_t>& dbs,
                        size_t from, size_t to, EpochSeconds now,
                        uint64_t* lost) {
  int64_t t0 = NowNs();
  for (size_t i = from; i < to; ++i) {
    bool hit = false;
    if (!stack->DoLogin(dbs[i], now, static_cast<uint32_t>(i), &hit)) ++*lost;
  }
  return static_cast<double>(NowNs() - t0) / 1e6 /
         static_cast<double>(to - from);
}

/// Flushes dirty pages of earlier work (set-up, builds) so they are not
/// written back under the measured fsyncs.
void SyncDisk(const std::string& dir) {
  if (int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY); fd >= 0) {
    ::syncfs(fd);
    ::close(fd);
  }
}

void CheckStack(LoginStack& stack, Report* report) {
  report->Check(stack.duplicate_executions() == 0,
                "the node executed a request twice");
  report->Check(stack.iteration_ok(), "an Algorithm 5 iteration failed");
  report->Check(stack.plane().service().AccountingReconciles(),
                "per-class accounting invariant does not reconcile");
  report->Check(stack.plane().healthy(), "the control plane fenced");
}

void CountLogins(const OpenLoopResult& r, Report* report) {
  report->attempted += r.offered;
  report->failed += r.offered - r.acked;
  report->Check(r.acked == r.offered, "a login was lost (not acked)");
}

/// Acked writes survive restart: recovery reproduces the metadata.
void CheckReopen(LoginStack& stack, Report* report) {
  std::vector<MetadataStore::ExportedEntry> before =
      stack.plane().metadata().Export();
  Status reopened = stack.Reopen(stack.mode());
  report->Check(reopened.ok(), "reopening the plane failed");
  if (!reopened.ok()) return;
  std::vector<MetadataStore::ExportedEntry> after =
      stack.plane().metadata().Export();
  bool same = before.size() == after.size();
  for (size_t i = 0; same && i < before.size(); ++i) {
    same = before[i].db == after[i].db &&
           before[i].state_code == after[i].state_code &&
           before[i].predicted_start == after[i].predicted_start;
  }
  report->Check(same, "reopened plane does not reproduce Export()");
}

void PrintFixed(const char* label, const OpenLoopResult& r,
                const Windows& w) {
  std::printf("%s: %llu logins at %.1f/s, %llu found resources (p50 %.3f "
              "ms); reactive logins best-window p50 %.3f ms p90 %.3f ms, "
              "median-window p99 %.3f ms; generator late p99 %.3f ms; alg5 "
              "%zu iterations p50 %.3f ms p99 %.3f ms\n",
              label, static_cast<unsigned long long>(r.fixed.offered),
              r.fixed.rate, static_cast<unsigned long long>(r.fixed.hits),
              Median(w.hit_ms), Min(w.p50), Min(w.p90), Median(w.p99),
              Percentile(r.fixed.late_ms, 0.99), r.iteration_ms.size(),
              Percentile(r.iteration_ms, 0.50),
              Percentile(r.iteration_ms, 0.99));
}

}  // namespace

uint64_t LoginInputsHash(uint64_t seed, double seconds,
                         const LoginTraffic& traffic) {
  return MakeInputs(seed, seconds, RatesFor(traffic)).hash;
}

void RunLoginWorkload(const RunArgs& args, bool durable, Report* report) {
  const SyncMode mode = durable ? SyncMode::kDurable : SyncMode::kBuffered;
  Tracer tracer;
  SpanNames names(&tracer);
  const double fixed_s = args.trace ? args.seconds * kTracedFixedShare
                                    : kRepetitionSeconds;
  const std::string dir = args.work_dir + "/login_plane";
  std::unique_ptr<LoginStack> stack;

  // Set-up: derive the traffic from the EU1 model, generate the inputs
  // from the seed, populate the plane (buffered), checkpoint and reopen
  // it in `mode`.  Each set-up builds a new stack: the node agent of the
  // last one has applied request ids and an epoch fence a fresh plane
  // would collide with.
  std::vector<double> setup_s;
  LoginTraffic traffic;
  Inputs in;
  auto set_up = [&]() {
    Clock::time_point t0 = Clock::now();
    Result<LoginTraffic> derived = DeriveLoginTraffic(kTrafficDbs);
    if (!derived.ok()) {
      report->Check(false, "traffic derivation failed: " +
                               derived.status().ToString());
      return false;
    }
    Inputs generated = MakeInputs(args.seed, fixed_s, RatesFor(*derived));
    stack = std::make_unique<LoginStack>(nullptr, &names);
    Status s = stack->SetUp(dir, generated, mode);
    setup_s.push_back(SecondsSince(t0));
    if (!s.ok()) {
      report->Check(false, "set-up failed: " + s.ToString());
      return false;
    }
    report->Check(setup_s.size() == 1 || generated.hash == in.hash,
                  "input generation is not deterministic");
    traffic = *derived;
    in = std::move(generated);
    SyncDisk(args.work_dir);
    return true;
  };
  // The untraced run sets up again before each repetition.
  if (!set_up()) return;
  const Rates rates = RatesFor(traffic);
  std::printf("EU1 traffic per db-day: %.4f reactive logins, %.4f logins "
              "finding a pre-warm, %.4f pre-warms; at %zu dbs x %.0f: %.1f "
              "logins/s (%.1f%% pre-warmed), a wasted pre-warm every %.2f "
              "virtual s\n",
              traffic.reactive_per_db_day, traffic.prewarmed_per_db_day,
              traffic.prewarms_per_db_day, kPopulation, kVirtualPerWall,
              rates.logins_per_s, 100.0 * rates.hit_share,
              rates.wasted_every_v);
  std::printf("inputs: %zu dbs, %zu fixed-rate logins, fingerprint %016llx\n",
              kPopulation, in.phases[0].logins.size(),
              static_cast<unsigned long long>(in.hash));

  const double rotation_db_days =
      static_cast<double>(kPopulation) *
      static_cast<double>(
          stack->plane().service().config().resume_operation_period) /
      86400.0;

  if (!args.trace) {
    // The same fixed-rate phase, repeated on a freshly set-up plane until
    // the time is up.  Every repetition offers the same logins at the same
    // offsets and must reproduce the first one's counts; the timings are
    // pooled over the repetitions.
    const Clock::time_point start = Clock::now();
    OpenLoopResult first;
    std::vector<double> reactive_ms;   // reactive logins, all repetitions
    std::vector<double> iteration_ms;  // Algorithm 5, all repetitions
    for (int rep = 0;; ++rep) {
      const Clock::time_point rep_start = Clock::now();
      if (rep > 0 && !set_up()) return;
      OpenLoopResult r = RunOpenLoop(stack.get(), in, /*ladder=*/false, 0);
      CountLogins(r, report);
      CheckStack(*stack, report);
      CheckReopen(*stack, report);
      PrintFixed("fixed phase", r,
                 WindowStats(r.fixed, r.iteration_at_s, r.iteration_ms));
      for (size_t i = 0; i < r.fixed.latency_ms.size(); ++i) {
        if (!r.fixed.hit[i]) reactive_ms.push_back(r.fixed.latency_ms[i]);
      }
      iteration_ms.insert(iteration_ms.end(), r.iteration_ms.begin(),
                          r.iteration_ms.end());
      if (rep == 0) {
        first = std::move(r);
      } else {
        report->Check(r.fixed.offered == first.fixed.offered &&
                          r.fixed.hit == first.fixed.hit &&
                          r.selected == first.selected &&
                          r.idle_db_seconds == first.idle_db_seconds,
                      "repeated fixed-rate phase changed the counts");
      }
      const double elapsed = SecondsSince(start);
      if (rep + 1 >= kMinRepetitions &&
          elapsed + SecondsSince(rep_start) > args.seconds) {
        std::printf("repetitions: %d in %.1f s; pooled: reactive login p50 "
                    "%.3f ms p90 %.3f ms, alg5 iteration p50 %.3f ms\n",
                    rep + 1, elapsed, Median(reactive_ms),
                    Percentile(reactive_ms, 0.9), Median(iteration_ms));
        break;
      }
    }
    std::printf("failed_pct %.4f %%\n",
                100.0 * static_cast<double>(report->failed) /
                    static_cast<double>(std::max<uint64_t>(report->attempted,
                                                           1)));
    const double fixed_v = in.phases[0].length_s * kVirtualPerWall;
    // Algorithm 5 scans the population once per resume_operation_period
    // of virtual time; its throughput in database-days per wall second.
    report->Set("db_days_per_s",
                rotation_db_days / (Median(iteration_ms) / 1e3), "db-day/s");
    report->Set("qos_pct",
                100.0 * static_cast<double>(first.fixed.hits) /
                    static_cast<double>(first.fixed.offered),
                "%");
    report->Set("idle_pct",
                100.0 * first.idle_db_seconds /
                    (static_cast<double>(kPopulation) * fixed_v),
                "%");
    report->Set("login_p50_ms", Median(reactive_ms), "ms");
    report->Set("peak_rss_mb", PeakRssMb(), "MB");
    report->Set("setup_s", Median(setup_s), "s");
    return;
  }

  // --- Traced run. ---
  // Phase A: the fixed-rate phase with every span recorded.  Phase B: the
  // same inputs on a fresh plane, untraced; their exact counts must match.
  stack->set_tracer(&tracer);
  OpenLoopResult a = RunOpenLoop(stack.get(), in, /*ladder=*/false, 0);
  stack->set_tracer(nullptr);
  LoginStack second(nullptr, &names);
  Status s2 = second.SetUp(args.work_dir + "/login_plane_b", in,
                           mode);
  if (!s2.ok()) {
    report->Check(false, "set-up failed: " + s2.ToString());
    return;
  }
  SyncDisk(args.work_dir);
  OpenLoopResult b = RunOpenLoop(&second, in, /*ladder=*/false, 0);
  report->Check(a.fixed.offered == b.fixed.offered &&
                    a.fixed.acked == b.fixed.acked &&
                    a.fixed.hits == b.fixed.hits &&
                    a.idle_db_seconds == b.idle_db_seconds &&
                    a.iteration_ms.size() == b.iteration_ms.size(),
                "traced KPIs differ from untraced KPIs");
  const Windows wa = WindowStats(a.fixed, a.iteration_at_s, a.iteration_ms);
  const Windows wb = WindowStats(b.fixed, b.iteration_at_s, b.iteration_ms);
  PrintFixed("traced fixed phase", a, wa);
  PrintFixed("untraced fixed phase", b, wb);

  // The ladder continues on the untraced plane.
  OpenLoopResult lad = RunOpenLoop(&second, in, /*ladder=*/true, b.end_s);
  for (const PhaseStats& ps : lad.rungs) {
    std::printf("ladder %6.0f/s: %5llu logins p50 %.3f ms p90 %.3f ms "
                "p99 %.3f ms last late %.3f ms %s\n",
                ps.rate, static_cast<unsigned long long>(ps.offered),
                Percentile(ps.latency_ms, 0.5),
                Percentile(ps.latency_ms, 0.9),
                Percentile(ps.latency_ms, 0.99), ps.last_late_ms,
                RungPasses(ps) ? "pass" : "FAIL");
  }
  for (const OpenLoopResult* r : {&a, &b, &lad}) CountLogins(*r, report);

  InitPerLayerMetrics(report);
  // Closed loop over spare reactive targets: batches alternate traced and
  // untraced (tracing overhead), and the same logins run against a plane
  // populated identically but journaling buffered (journal.sync_share).
  const EpochSeconds after = VirtualAt(lad.end_s) + 1;
  const size_t n_closed = in.closed_loop.size();
  constexpr size_t kBatch = 100;
  uint64_t lost = 0;
  std::vector<double> traced_ms, plain_ms;
  IoCounters io0 = ReadIoCounters();
  uint64_t records0 = second.plane().journal().appended_records();
  Result<uint64_t> bytes0 = second.plane().journal().SizeBytes();
  for (size_t batch = 0; batch * kBatch < n_closed; ++batch) {
    bool traced_batch = batch % 2 == 1;
    second.set_tracer(traced_batch ? &tracer : nullptr);
    (traced_batch ? traced_ms : plain_ms)
        .push_back(ClosedLoopMeanMs(&second, in.closed_loop, batch * kBatch,
                                    std::min(n_closed, (batch + 1) * kBatch),
                                    after, &lost));
  }
  second.set_tracer(nullptr);
  IoCounters io1 = ReadIoCounters();
  uint64_t records1 = second.plane().journal().appended_records();
  Result<uint64_t> bytes1 = second.plane().journal().SizeBytes();
  const double closed = static_cast<double>(n_closed);
  report->Set("journal.records_per_login",
              static_cast<double>(records1 - records0) / closed, "count");
  if (bytes0.ok() && bytes1.ok()) {
    report->Set("journal.bytes_per_login",
                static_cast<double>(*bytes1 - *bytes0) / closed, "bytes");
  }
  report->Set("storage.write_calls_per_login",
              static_cast<double>(io1.write_calls - io0.write_calls) / closed,
              "count");
  report->Set("storage.bytes_written_per_login",
              static_cast<double>(io1.write_bytes - io0.write_bytes) / closed,
              "bytes");
  report->Set("trace_overhead_pct",
              100.0 * (Median(traced_ms) / Median(plain_ms) - 1.0), "%");

  // The same closed-loop logins against a plane journaling in the other
  // sync mode, for the share of the durable login time spent syncing.
  LoginStack other(nullptr, &names);
  Status so = other.SetUp(args.work_dir + "/login_plane_other", in,
                          durable ? SyncMode::kBuffered : SyncMode::kDurable);
  report->Check(so.ok(), "set-up failed: " + so.ToString());
  if (so.ok()) {
    double other_ms =
        ClosedLoopMeanMs(&other, in.closed_loop, 0, n_closed, after, &lost);
    double durable_ms = durable ? Median(plain_ms) : other_ms;
    double buffered_ms = durable ? other_ms : Median(plain_ms);
    report->Set("journal.sync_share", 1.0 - buffered_ms / durable_ms,
                "ratio");
    CheckStack(other, report);
  }
  report->attempted += 2 * n_closed;
  report->failed += lost;
  report->Check(lost == 0, "a closed-loop login was lost (not acked)");
  CheckStack(*stack, report);
  CheckStack(second, report);
  CheckReopen(second, report);

  auto per_call_us = [&](uint32_t id, bool self) {
    const SpanAggregate& agg = tracer.aggregate(id);
    return (self ? agg.self_ns_per_call() : agg.total_ns_per_call()) / 1e3;
  };
  report->Set("login.p90_ms", Min(wb.p90), "ms");
  report->Set("login.p99_ms", Median(wb.p99), "ms");
  report->Set("login.max_rate_per_s", MaxRate(lad), "1/s");
  report->Set("login.generator_late_p99_ms", Percentile(b.fixed.late_ms, 0.99),
              "ms");
  report->Set("metadata.ns_per_upsert",
              per_call_us(names.metadata_upsert, false) * 1e3, "ns");
  report->Set("metadata.select_us", per_call_us(names.metadata_select, false),
              "us");
  report->Set("metadata.selected_per_iteration",
              static_cast<double>(a.selected) /
                  static_cast<double>(a.iteration_ms.size()),
              "count");
  report->Set("management.iteration_self_us",
              per_call_us(names.management_iteration, true), "us");
  report->Set("alg5.iter_p50_ms", Percentile(b.iteration_ms, 0.50), "ms");
  report->Set("alg5.iter_p99_ms", Percentile(b.iteration_ms, 0.99), "ms");
  report->Set("management.enqueue_us",
              per_call_us(names.management_enqueue, false), "us");
  report->Set("management.pump_self_us",
              per_call_us(names.management_pump, true), "us");
  report->Set("management.queue_wait_p99_s",
              second.plane().service().diagnostics().queue_wait.Percentile(
                  0.99),
              "s");
  report->Set("net.dispatch_self_us", per_call_us(names.net_dispatch, true),
              "us");
  const auto& ds = stack->dispatcher().stats();
  report->Set("net.inline_ack_ratio",
              ds.dispatched == 0 ? 0
                                 : static_cast<double>(ds.inline_acked) /
                                       static_cast<double>(ds.dispatched),
              "ratio");
  report->Set("net.retransmissions", static_cast<double>(ds.retransmissions),
              "count");
  report->Set("node.execute_us", per_call_us(names.node_execute, false), "us");
  report->Set("node.duplicate_suppressed",
              static_cast<double>(stack->agent().stats().duplicate_suppressed),
              "count");
  report->Set("trace.span_cost_ns", MeasureSpanCostNs(), "ns");
  report->Set("trace.spans", static_cast<double>(tracer.spans_recorded()),
              "count");
  report->Check(tracer.open_spans() == 0, "unbalanced spans");
  std::string path = args.work_dir + "/spans-" + args.workload + ".csv";
  report->Check(tracer.WriteCsv(path), "cannot write " + path);
}

}  // namespace perfbench
