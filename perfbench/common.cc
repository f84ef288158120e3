#include "common.h"

#include <cstdio>

// The repository's bench helpers: this is the one translation unit of the
// benchmark that includes them, so it holds the counting operator
// new/delete they define (off under sanitizers).
#include "bench/bench_util.h"

namespace perfbench {

uint64_t AllocationCount() { return prorp::bench::AllocationCount(); }

double PeakRssMb() {
  return static_cast<double>(prorp::bench::PeakRssSinceResetBytes()) /
         (1024.0 * 1024.0);
}

IoCounters ReadIoCounters() {
  IoCounters io;
  std::FILE* f = std::fopen("/proc/self/io", "r");
  if (f == nullptr) return io;
  char line[128];
  unsigned long long v = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "syscw: %llu", &v) == 1) io.write_calls = v;
    if (std::sscanf(line, "wchar: %llu", &v) == 1) io.write_bytes = v;
  }
  std::fclose(f);
  return io;
}

}  // namespace perfbench
