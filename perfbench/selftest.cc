// Self-tests of the benchmark itself (run with --selftest):
//  * the same seed yields identical generated inputs and identical exact
//    counts, and another seed yields other inputs;
//  * self-time arithmetic is right on a synthetic nested span set;
//  * the timing decorators forward every result unchanged.

#include <cstdio>
#include <string>
#include <vector>

#include "decorators.h"
#include "forecast/fast_predictor.h"
#include "history/mem_history_store.h"
#include "workload/region.h"
#include "workload/trace_source.h"
#include "workloads.h"

namespace perfbench {
namespace {

using prorp::Days;
using prorp::EpochSeconds;
using prorp::Hours;

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("SELFTEST FAILED: %s\n", what.c_str());
  }
}

void TestDeterminism() {
  for (bool proactive : {true, false}) {
    FleetProbe a = ProbeFleet(proactive, 11, 200);
    FleetProbe b = ProbeFleet(proactive, 11, 200);
    FleetProbe c = ProbeFleet(proactive, 12, 200);
    const std::string mode = proactive ? "proactive" : "reactive";
    Expect(a.events > 0 && a.sessions > 0 && a.logins > 0,
           mode + " probe simulated nothing");
    Expect(a.input_hash == b.input_hash, mode + " inputs differ for a seed");
    Expect(a.sessions == b.sessions && a.events == b.events &&
               a.logins == b.logins && a.predictions == b.predictions,
           mode + " exact counts differ for a seed");
    Expect(a.input_hash != c.input_hash, mode + " seed does not reach inputs");
    Expect(!proactive || a.predictions > 0, "proactive probe predicted nothing");
  }
  prorp::Result<LoginTraffic> t1 = DeriveLoginTraffic(100);
  prorp::Result<LoginTraffic> t2 = DeriveLoginTraffic(100);
  Expect(t1.ok() && t2.ok(), "login traffic derivation failed");
  if (!t1.ok() || !t2.ok()) return;
  Expect(t1->reactive_per_db_day > 0 && t1->prewarmed_per_db_day > 0 &&
             t1->prewarms_per_db_day > t1->prewarmed_per_db_day,
         "login traffic derivation found no traffic");
  Expect(t1->reactive_per_db_day == t2->reactive_per_db_day &&
             t1->prewarmed_per_db_day == t2->prewarmed_per_db_day &&
             t1->prewarms_per_db_day == t2->prewarms_per_db_day,
         "login traffic derivation is not deterministic");
  Expect(LoginInputsHash(5, 10, *t1) == LoginInputsHash(5, 10, *t2),
         "login inputs differ for a seed");
  Expect(LoginInputsHash(5, 10, *t1) != LoginInputsHash(6, 10, *t1),
         "login seed does not reach inputs");
}

void TestSelfTime() {
  // A[0,100] { B[10,30], C[40,70] { D[45,50] } }, then E[100,110] as a
  // second root.
  Tracer t;
  uint32_t a = t.Name("a"), b = t.Name("b"), c = t.Name("c"),
           d = t.Name("d"), e = t.Name("e");
  t.Begin(a, 1, 0);
  t.Begin(b, 1, 10);
  t.End(30);
  t.Begin(c, 1, 40);
  t.Begin(d, 1, 45);
  t.End(50);
  t.End(70);
  t.End(100);
  t.Begin(e, 2, 100);
  t.End(110);
  Expect(t.open_spans() == 0, "spans left open");
  Expect(t.aggregate(a).self_ns == 50 && t.aggregate(a).total_ns == 100,
         "root self time");
  Expect(t.aggregate(b).self_ns == 20, "leaf self time");
  Expect(t.aggregate(c).self_ns == 25 && t.aggregate(c).total_ns == 30,
         "nested self time");
  Expect(t.aggregate(d).self_ns == 5, "inner leaf self time");
  Expect(t.aggregate(e).self_ns == 10, "second root self time");

  const std::vector<Span>& kept = t.kept();
  Expect(kept.size() == 5, "kept span count");
  std::vector<int64_t> offline = ComputeSelfTimes(kept);
  const int64_t want[] = {50, 20, 25, 5, 10};  // sequence order a,b,c,d,e
  for (size_t i = 0; i < 5 && i < offline.size(); ++i) {
    Expect(offline[i] == want[i], "offline self time of span " +
                                      std::to_string(i));
  }
  Expect(kept[3].parent == 2 && kept[1].parent == 0 && kept[4].parent == -1,
         "parent links");
  Expect(kept[0].trace == 1 && kept[4].trace == 2, "trace ids");

  // Overlapping and overhanging children count once and only inside the
  // parent: covered [10,40] + [90,100] = 40.
  std::vector<Span> overlap = {{0, 0, -1, 0, 100},
                               {0, 0, 0, 10, 30},
                               {0, 0, 0, 20, 40},
                               {0, 0, 0, 90, 120}};
  Expect(ComputeSelfTimes(overlap)[0] == 60, "overlapping children");
}

void TestDecoratorsForward() {
  Tracer t;
  SpanNames names(&t);
  prorp::history::MemHistoryStore plain;
  prorp::history::MemHistoryStore inner;
  TimedHistoryStore::Counts counts;
  TimedHistoryStore timed(&inner, &t, &names, &counts, 7);

  Expect(plain.MinTimestamp().status().code() ==
             timed.MinTimestamp().status().code(),
         "error status forwarded");
  const EpochSeconds t0 = Days(1005);
  for (int day = 0; day < 40; ++day) {
    for (EpochSeconds at : {t0 + Days(day) + Hours(9), t0 + Days(day) + Hours(17)}) {
      int type = at % Days(1) == Hours(9) ? prorp::history::kEventLogin
                                         : prorp::history::kEventLogout;
      Expect(plain.InsertHistory(at, type).ok() ==
                 timed.InsertHistory(at, type).ok(),
             "InsertHistory forwarded");
    }
  }
  // A duplicate timestamp is refused the same way.
  Expect(plain.InsertHistory(t0 + Hours(9), 1).code() ==
             timed.InsertHistory(t0 + Hours(9), 1).code(),
         "duplicate insert forwarded");
  const EpochSeconds now = t0 + Days(40);
  auto d1 = plain.DeleteOldHistory(Days(28), now);
  auto d2 = timed.DeleteOldHistory(Days(28), now);
  Expect(d1.ok() && d2.ok() && *d1 == *d2, "DeleteOldHistory forwarded");
  auto m1 = plain.LoginMinMax(t0 + Days(20), t0 + Days(30));
  auto m2 = timed.LoginMinMax(t0 + Days(20), t0 + Days(30));
  Expect(m1.ok() && m2.ok() && m1->any == m2->any &&
             m1->first_login == m2->first_login &&
             m1->last_login == m2->last_login,
         "LoginMinMax forwarded");
  auto c1 = plain.CollectLogins(t0, now);
  auto c2 = timed.CollectLogins(t0, now);
  Expect(c1.ok() && c2.ok() && *c1 == *c2, "CollectLogins forwarded");
  Expect(counts.logins_read == c2->size(), "logins read counted");
  auto r1 = plain.ReadAll();
  auto r2 = timed.ReadAll();
  Expect(r1.ok() && r2.ok() && *r1 == *r2, "ReadAll forwarded");
  Expect(plain.NumTuples() == timed.NumTuples(), "NumTuples forwarded");
  Expect(*plain.MinTimestamp() == *timed.MinTimestamp(),
         "MinTimestamp forwarded");

  prorp::forecast::FastPredictor fast{prorp::PredictionConfig{}};
  TimedPredictor::Counts pcounts;
  TimedPredictor predictor(&fast, &t, &names, &pcounts);
  for (int h = 0; h < 24; h += 5) {
    EpochSeconds at = now + Hours(h);
    auto p1 = fast.PredictNextActivity(plain, at);
    auto p2 = predictor.PredictNextActivity(timed, at);
    Expect(p1.ok() && p2.ok() && *p1 == *p2, "prediction forwarded");
  }
  Expect(pcounts.predictions == 5 && pcounts.with_window > 0,
         "predictions counted");
  Expect(predictor.name() == fast.name(), "predictor name forwarded");

  prorp::workload::StreamingFleetSource source(
      prorp::workload::RegionEU1(), 20, t0, t0 + Days(10), 3, t0 + Days(5));
  TimedTraceSource timed_source(&source, &t, &names);
  Expect(timed_source.num_dbs() == source.num_dbs(), "num_dbs forwarded");
  for (uint32_t db = 0; db < 20; ++db) {
    Expect(prorp::workload::CollectSessions(source, db) ==
               prorp::workload::CollectSessions(timed_source, db),
           "sessions forwarded");
  }
  Expect(t.open_spans() == 0, "decorator spans balanced");
}

}  // namespace

int RunSelfTests() {
  g_failures = 0;
  TestSelfTime();
  TestDecoratorsForward();
  TestDeterminism();
  return g_failures;
}

}  // namespace perfbench
