#pragma once
// Timed pipeline stages (docs/OBSERVABILITY.md § Stages). A stage is declared
// once, by name, and every sink derives from that one declaration:
//
//   trace label        <name>            (util/trace.h span)
//   latency histogram  <name>_seconds    (util/telemetry.h)
//   perf group         perf.<name>.*     (util/perf_counters.h)
//
// A StageScope reads the steady clock once on entry and once on exit and
// feeds that one interval to the trace ring, the histogram and (optionally)
// a profile field, while the perf scope around it counts the same entry.
// So per stage, trace events == histogram samples == perf scopes, and the
// histogram sum equals the profile field it feeds, by construction.
//
// Resolve a handle once per call site (function-local static), like
// telemetry::histogram(); handles are immortal. With tracing and perf
// collection off, a scope costs two clock reads, one histogram record and
// two atomic flag loads.

#include <chrono>
#include <string>
#include <vector>

#include "util/perf_counters.h"
#include "util/telemetry.h"

namespace omega::util {

/// One registered stage: its name and the sinks it feeds.
struct Stage {
  std::string name;            // trace label and perf group
  std::string histogram_name;  // name + "_seconds"
  telemetry::Histogram& seconds;
  perf::StageCounters& perf;

  /// This stage's histogram sum inside `snapshot` (0 when it is absent).
  [[nodiscard]] double seconds_in(
      const telemetry::RegistrySnapshot& snapshot) const;
};

/// Registers (or finds) the stage `name`; the reference is valid for the
/// process lifetime.
[[nodiscard]] const Stage& stage(const char* name);

/// Every stage registered so far, name-sorted.
[[nodiscard]] std::vector<const Stage*> stages();

/// RAII scope of one stage entry. When `profile_field` is given, the elapsed
/// seconds are also added to it (the caller owns its synchronization).
class StageScope {
 public:
  explicit StageScope(const Stage& stage,
                      double* profile_field = nullptr) noexcept;
  ~StageScope();
  StageScope(const StageScope&) = delete;
  StageScope& operator=(const StageScope&) = delete;

 private:
  const Stage& stage_;
  double* profile_field_;
  perf::StageScope perf_;  // constructed first, destroyed last
  bool traced_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace omega::util
