#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace perfbench {

uint32_t Tracer::Name(const std::string& name) {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<uint32_t>(i);
  }
  names_.push_back(name);
  agg_.emplace_back();
  return static_cast<uint32_t>(names_.size() - 1);
}

int64_t Tracer::Begin(uint32_t name, uint32_t trace, int64_t now_ns) {
  Open o;
  o.seq = seq_++;
  o.name = name;
  o.trace = trace;
  o.parent = stack_.empty() ? -1 : stack_.back().seq;
  o.start_ns = now_ns;
  stack_.push_back(o);
  return o.seq;
}

void Tracer::End(int64_t now_ns) {
  Open o = stack_.back();
  stack_.pop_back();
  int64_t dur = now_ns - o.start_ns;
  SpanAggregate& a = agg_[o.name];
  ++a.count;
  a.total_ns += dur;
  a.self_ns += dur - o.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (static_cast<size_t>(o.seq) < max_kept_) {
    if (kept_.size() <= static_cast<size_t>(o.seq)) {
      kept_.resize(static_cast<size_t>(o.seq) + 1);
    }
    kept_[static_cast<size_t>(o.seq)] =
        Span{o.name, o.trace, o.parent, o.start_ns, now_ns};
  }
}

bool Tracer::WriteCsv(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "seq,trace,parent,name,start_ns,end_ns\n");
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    std::fprintf(f, "%zu,%u,%lld,%s,%lld,%lld\n", i, s.trace,
                 static_cast<long long>(s.parent), names_[s.name].c_str(),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

std::vector<int64_t> ComputeSelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t covered = 0;
    int64_t run_lo = 0;
    int64_t run_hi = -1;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, p.start_ns);
      hi = std::min(hi, p.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= run_hi) {
        run_hi = std::max(run_hi, hi);
      } else {
        if (open) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
        open = true;
      }
    }
    if (open) covered += run_hi - run_lo;
    self[i] = (p.end_ns - p.start_ns) - covered;
  }
  return self;
}

double MeasureSpanCostNs(int iterations) {
  Tracer t(/*max_kept=*/0);
  uint32_t name = t.Name("probe");
  int64_t t0 = NowNs();
  for (int i = 0; i < iterations; ++i) {
    ScopedSpan s(&t, name, 0);
  }
  return static_cast<double>(NowNs() - t0) / iterations;
}

}  // namespace perfbench
