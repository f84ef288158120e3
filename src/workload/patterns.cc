#include "workload/patterns.h"

#include <algorithm>
#include <cmath>

namespace prorp::workload {
namespace {

/// Weekday business usage with LOOSE within-day timing: the first login
/// of a day lands anywhere inside a per-database window of several hours
/// (different teams, time zones, automation schedules), which is what
/// makes the prediction window size matter (Figure 8): narrow windows
/// catch too few historical logins to clear the confidence threshold.
/// Intraday breaks create the short idle gaps of Figure 3(a).
void DailyBusiness(std::vector<Session>& out, EpochSeconds from,
                   EpochSeconds to, Rng& rng) {
  DurationSeconds base = Hours(5) + rng.NextInt(0, Hours(4));  // 5:00-9:00
  // Half the population keeps a tight habitual login hour (predictable at
  // any window size); the other half logs in anywhere within a wide span
  // (predictable only once the window is wide enough) — the blend that
  // produces Figure 8's window-size sensitivity.
  DurationSeconds spread = rng.NextBool(0.5)
                               ? Minutes(40) + rng.NextInt(0, Minutes(80))
                               : Hours(9) + rng.NextInt(0, Hours(4));
  for (EpochSeconds day = StartOfDay(from); day < to; day += Days(1)) {
    if (IsWeekend(day)) {
      if (rng.NextBool(0.05)) {  // rare weekend check-in
        EpochSeconds s = day + Hours(10) + rng.NextInt(0, Hours(6));
        out.push_back({s, s + rng.NextInt(Minutes(10), Hours(1))});
      }
      continue;
    }
    if (rng.NextBool(0.12)) continue;  // day off
    EpochSeconds start = day + base + rng.NextInt(0, spread);
    DurationSeconds work_span = Hours(3) + rng.NextInt(0, Hours(5));
    EpochSeconds end = start + work_span;
    // Intraday breaks split the day into 1-3 sessions.
    std::vector<EpochSeconds> cuts;
    if (rng.NextBool(0.75)) cuts.push_back(start + work_span / 2 +
                                           rng.NextInt(-Hours(1), Hours(1)));
    if (rng.NextBool(0.35)) cuts.push_back(start + work_span / 4 +
                                           rng.NextInt(-Minutes(30),
                                                       Minutes(30)));
    std::sort(cuts.begin(), cuts.end());
    EpochSeconds cursor = start;
    for (EpochSeconds cut : cuts) {
      if (cut <= cursor + Minutes(30) || cut >= end - Minutes(30)) continue;
      out.push_back({cursor, cut});
      cursor = cut + rng.NextInt(Minutes(10), Minutes(90));  // the break
    }
    if (cursor < end) out.push_back({cursor, end});
  }
}

/// Daily usage, seven days a week, with the same loose within-day timing
/// (e.g. a dashboard refreshed "sometime during the day").
void Daily(std::vector<Session>& out, EpochSeconds from, EpochSeconds to,
           Rng& rng) {
  DurationSeconds base = rng.NextInt(0, Hours(14));
  DurationSeconds spread = rng.NextBool(0.5)
                               ? Minutes(30) + rng.NextInt(0, Minutes(90))
                               : Hours(8) + rng.NextInt(0, Hours(4));
  for (EpochSeconds day = StartOfDay(from); day < to; day += Days(1)) {
    if (rng.NextBool(0.08)) continue;
    EpochSeconds start = day + base + rng.NextInt(0, spread);
    DurationSeconds window_len = Hours(1) + rng.NextInt(0, Hours(5));
    EpochSeconds end = start + window_len;
    if (rng.NextBool(0.5)) {
      EpochSeconds cut = start + window_len / 2;
      out.push_back({start, cut});
      out.push_back({cut + rng.NextInt(Minutes(5), Minutes(45)), end});
    } else {
      out.push_back({start, end});
    }
  }
}

/// One or two fixed weekdays (weekly reporting jobs).
void Weekly(std::vector<Session>& out, EpochSeconds from, EpochSeconds to,
            Rng& rng) {
  int day_a = static_cast<int>(rng.NextInt(0, 6));
  int day_b = rng.NextBool(0.4) ? static_cast<int>(rng.NextInt(0, 6)) : -1;
  DurationSeconds hour = Hours(6) + rng.NextInt(0, Hours(8));
  for (EpochSeconds day = StartOfDay(from); day < to; day += Days(1)) {
    int wd = WeekdayIndex(day);
    if (wd != day_a && wd != day_b) continue;
    if (rng.NextBool(0.08)) continue;
    EpochSeconds start = day + hour + rng.NextInt(0, Hours(4));
    out.push_back({start, start + rng.NextInt(Hours(1), Hours(5))});
  }
}

/// Near-continuous usage: long sessions separated by short gaps.  The
/// dominant source of sub-hour idle intervals.
void AlwaysBusy(std::vector<Session>& out, EpochSeconds from,
                EpochSeconds to, Rng& rng) {
  EpochSeconds cursor = from + rng.NextInt(0, Hours(2));
  while (cursor < to) {
    DurationSeconds session =
        static_cast<DurationSeconds>(rng.NextExponential(Hours(3)));
    session = std::clamp(session, Minutes(10), Hours(12));
    out.push_back({cursor, cursor + session});
    DurationSeconds gap =
        static_cast<DurationSeconds>(rng.NextExponential(Minutes(25)));
    gap = std::clamp(gap, Minutes(2), Hours(4));
    cursor += session + gap;
  }
}

/// Poisson sessions days apart: the unpredictable tail of the fleet.
void Sporadic(std::vector<Session>& out, EpochSeconds from, EpochSeconds to,
              Rng& rng) {
  EpochSeconds cursor = from + rng.NextInt(0, Days(3));
  while (cursor < to) {
    DurationSeconds session =
        static_cast<DurationSeconds>(rng.NextExponential(Hours(1)));
    session = std::clamp(session, Minutes(5), Hours(8));
    out.push_back({cursor, cursor + session});
    DurationSeconds gap =
        static_cast<DurationSeconds>(rng.NextExponential(Days(5)));
    gap = std::clamp(gap, Hours(8), Days(24));
    cursor += session + gap;
  }
}

/// Rare days packed with dozens of short sessions (automated test suites,
/// agent retries).  Produces the worst-case history sizes of Figure 10(a).
void Bursty(std::vector<Session>& out, EpochSeconds from, EpochSeconds to,
            Rng& rng) {
  for (EpochSeconds day = StartOfDay(from); day < to; day += Days(1)) {
    if (!rng.NextBool(0.45)) continue;
    EpochSeconds cursor = day + rng.NextInt(0, Hours(6));
    int sessions = static_cast<int>(rng.NextInt(40, 130));
    for (int i = 0; i < sessions && cursor < day + Days(1); ++i) {
      DurationSeconds session = rng.NextInt(Minutes(2), Minutes(10));
      out.push_back({cursor, cursor + session});
      cursor += session + rng.NextInt(Minutes(2), Minutes(12));
    }
  }
}

/// Occasional short sessions on workdays.
void DevTest(std::vector<Session>& out, EpochSeconds from, EpochSeconds to,
             Rng& rng) {
  for (EpochSeconds day = StartOfDay(from); day < to; day += Days(1)) {
    if (IsWeekend(day) || !rng.NextBool(0.35)) continue;
    int sessions = static_cast<int>(rng.NextInt(1, 3));
    EpochSeconds cursor = day + Hours(8) + rng.NextInt(0, Hours(6));
    for (int i = 0; i < sessions; ++i) {
      DurationSeconds session = rng.NextInt(Minutes(15), Minutes(90));
      out.push_back({cursor, cursor + session});
      cursor += session + rng.NextInt(Minutes(30), Hours(3));
    }
  }
}

}  // namespace

DbTrace GenerateTrace(PatternType pattern, uint32_t db_id, EpochSeconds from,
                      EpochSeconds to, Rng& rng) {
  DbTrace trace;
  trace.db_id = db_id;
  trace.pattern = pattern;
  switch (pattern) {
    case PatternType::kDailyBusiness:
      DailyBusiness(trace.sessions, from, to, rng);
      break;
    case PatternType::kDaily:
      Daily(trace.sessions, from, to, rng);
      break;
    case PatternType::kWeekly:
      Weekly(trace.sessions, from, to, rng);
      break;
    case PatternType::kAlwaysBusy:
      AlwaysBusy(trace.sessions, from, to, rng);
      break;
    case PatternType::kSporadic:
      Sporadic(trace.sessions, from, to, rng);
      break;
    case PatternType::kBursty:
      Bursty(trace.sessions, from, to, rng);
      break;
    case PatternType::kDevTest:
      DevTest(trace.sessions, from, to, rng);
      break;
  }
  NormalizeSessions(trace.sessions, from, to);
  if (!trace.sessions.empty()) {
    trace.created_at = trace.sessions.front().start;
  } else {
    trace.created_at = from;
  }
  return trace;
}

}  // namespace prorp::workload
