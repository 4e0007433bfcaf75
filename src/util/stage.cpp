#include "util/stage.h"

#include <map>
#include <mutex>

#include "util/trace.h"

namespace omega::util {
namespace {

// Immortal, like the telemetry registry the stages feed, so handles cached
// in function-local statics stay valid through static destruction.
struct StageRegistry {
  std::mutex mutex;
  std::map<std::string, Stage*, std::less<>> stages;
};

StageRegistry& registry() {
  static StageRegistry* instance = new StageRegistry();
  return *instance;
}

}  // namespace

const Stage& stage(const char* name) {
  StageRegistry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  auto it = r.stages.find(std::string_view(name));
  if (it == r.stages.end()) {
    const std::string histogram_name = std::string(name) + "_seconds";
    auto* entry = new Stage{name, histogram_name,
                            telemetry::histogram(histogram_name),
                            perf::stage(name)};
    it = r.stages.emplace(name, entry).first;
  }
  return *it->second;
}

std::vector<const Stage*> stages() {
  StageRegistry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mutex);
  std::vector<const Stage*> out;
  out.reserve(r.stages.size());
  for (const auto& [name, entry] : r.stages) out.push_back(entry);
  return out;
}

double Stage::seconds_in(const telemetry::RegistrySnapshot& snapshot) const {
  const telemetry::HistogramSnapshot* hist =
      snapshot.find_histogram(histogram_name);
  return hist != nullptr ? hist->sum : 0.0;
}

StageScope::StageScope(const Stage& stage, double* profile_field) noexcept
    : stage_(stage),
      profile_field_(profile_field),
      perf_(stage.perf),
      traced_(trace::enabled()),
      start_(std::chrono::steady_clock::now()) {}

StageScope::~StageScope() {
  const auto end = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(end - start_).count();
  stage_.seconds.record(seconds);
  if (profile_field_ != nullptr) *profile_field_ += seconds;
  if (traced_) trace::record_span(stage_.name.c_str(), start_, end);
}

}  // namespace omega::util
