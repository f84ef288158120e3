#include "forecast/window_selection.h"

#include <cstdio>

namespace prorp::forecast {

std::string ActivityPrediction::ToString() const {
  if (!HasPrediction()) return "no activity predicted";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "[%s .. %s] conf=%.2f",
                FormatTimestamp(start).c_str(),
                FormatTimestamp(end).c_str(), confidence);
  return buf;
}

}  // namespace prorp::forecast
