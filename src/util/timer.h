#pragma once
// Monotonic wall-clock timer for whole-scan and benchmark timings; timed
// pipeline stages use util/stage.h instead.

#include <chrono>

namespace omega::util {

class Timer {
 public:
  Timer() noexcept : start_(Clock::now()) {}

  void reset() noexcept { start_ = Clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace omega::util
