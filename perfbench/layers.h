#pragma once
// Timing decorators around the public entry points of libomega's layers.
// The benchmark installs them from outside the program — through
// ScannerOptions::ld_factory, scan()/stream_scan() backend factories,
// HeteroPartitionSpec::backend_factory and the ChunkReader interface — so
// every time it reports comes from this file's clocks, not the program's own
// stage timers.
//
// Calls may arrive from several scan workers at once. Each thread writes to
// its own ledger; ledgers are summed after the scan returns.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/dp_matrix.h"
#include "core/scanner.h"
#include "io/chunk_reader.h"
#include "ld/ld_engine.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds the calling thread has run so far.
inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Which ω backend a decorated max_omega call served.
enum Slot : std::size_t { kCpu = 0, kGpu = 1, kFpga = 2, kSlots = 3 };

/// One thread's share of the decorated calls.
struct ThreadLedger {
  double r2_seconds = 0.0;
  std::uint64_t r2_pairs = 0;
  double omega_seconds[kSlots] = {};
  std::uint64_t omega_evals = 0;
  double next_seconds = 0.0;
  std::uint64_t next_calls = 0;
  std::size_t peak_dp_bytes = 0;
  /// Thread CPU seconds before the scan: set for the thread that calls
  /// scan(); 0 for pool threads, which the scan itself starts.
  double cpu_baseline = 0.0;
  /// Thread CPU seconds at the end of the thread's last r2/ω call.
  double cpu_last = 0.0;
  /// The thread served r2 or ω calls, i.e. it is a scan worker.
  bool worker = false;

  void note_work(std::size_t dp_bytes = 0) {
    worker = true;
    peak_dp_bytes = std::max(peak_dp_bytes, dp_bytes);
    cpu_last = thread_cpu_seconds();
  }
};

/// Per-thread ledgers of one traced run. Use one instance at a time: the
/// per-thread cache is shared, and constructing an instance starts a new
/// epoch that invalidates it.
class Ledgers {
 public:
  Ledgers() { epoch_.fetch_add(1, std::memory_order_acq_rel); }
  Ledgers(const Ledgers&) = delete;
  Ledgers& operator=(const Ledgers&) = delete;

  /// The calling thread's ledger for the current epoch.
  ThreadLedger& mine() {
    struct Cached {
      std::uint64_t epoch = 0;
      ThreadLedger* ledger = nullptr;
    };
    thread_local Cached cached;
    const std::uint64_t epoch = epoch_.load(std::memory_order_acquire);
    if (cached.epoch != epoch || cached.ledger == nullptr) {
      const std::lock_guard<std::mutex> lock(mutex_);
      cached.ledger = &ledgers_.emplace_back();
      cached.epoch = epoch;
    }
    return *cached.ledger;
  }

  [[nodiscard]] std::vector<ThreadLedger> snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return {ledgers_.begin(), ledgers_.end()};
  }

 private:
  mutable std::mutex mutex_;
  std::deque<ThreadLedger> ledgers_;  // deque: references stay valid
  static inline std::atomic<std::uint64_t> epoch_{0};
};

/// Times LdEngine::r2_block and counts the pairs it serves.
class TimedLd final : public omega::ld::LdEngine {
 public:
  TimedLd(std::unique_ptr<omega::ld::LdEngine> inner, Ledgers& ledgers)
      : inner_(std::move(inner)), ledgers_(ledgers) {}

  void r2_block(std::size_t i0, std::size_t i1, std::size_t j0, std::size_t j1,
                float* out, std::size_t ld) const override {
    const Clock::time_point start = Clock::now();
    inner_->r2_block(i0, i1, j0, j1, out, ld);
    ThreadLedger& ledger = ledgers_.mine();
    ledger.r2_seconds += seconds_since(start);
    ledger.r2_pairs += static_cast<std::uint64_t>(i1 - i0) * (j1 - j0);
    ledger.note_work();
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] std::size_t num_sites() const override {
    return inner_->num_sites();
  }

 private:
  std::unique_ptr<omega::ld::LdEngine> inner_;
  Ledgers& ledgers_;
};

/// Times OmegaBackend::max_omega and records the DP matrix size it saw.
class TimedBackend final : public omega::core::OmegaBackend {
 public:
  TimedBackend(std::unique_ptr<omega::core::OmegaBackend> inner, Slot slot,
               Ledgers& ledgers)
      : inner_(std::move(inner)), slot_(slot), ledgers_(ledgers) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  omega::core::OmegaResult max_omega(
      const omega::core::DpMatrix& m,
      const omega::core::GridPosition& position) override {
    const Clock::time_point start = Clock::now();
    omega::core::OmegaResult result = inner_->max_omega(m, position);
    ThreadLedger& ledger = ledgers_.mine();
    ledger.omega_seconds[slot_] += seconds_since(start);
    ledger.omega_evals += result.evaluated;
    ledger.note_work(m.bytes());
    return result;
  }
  void contribute(omega::core::ScanProfile& profile) const override {
    inner_->contribute(profile);
  }

 private:
  std::unique_ptr<omega::core::OmegaBackend> inner_;
  Slot slot_;
  Ledgers& ledgers_;
};

/// Times ChunkReader::next (the streamed parse of one chunk).
class TimedChunkReader final : public omega::io::ChunkReader {
 public:
  TimedChunkReader(omega::io::ChunkReader& inner, Ledgers& ledgers)
      : inner_(inner), ledgers_(ledgers) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] const omega::io::StreamIndex& index() const noexcept override {
    return inner_.index();
  }
  void plan(std::vector<omega::io::SiteRange> ranges) override {
    inner_.plan(std::move(ranges));
  }
  std::optional<omega::io::DatasetChunk> next() override {
    const Clock::time_point start = Clock::now();
    std::optional<omega::io::DatasetChunk> chunk = inner_.next();
    ThreadLedger& ledger = ledgers_.mine();
    ledger.next_seconds += seconds_since(start);
    if (chunk.has_value()) ++ledger.next_calls;
    return chunk;
  }

 private:
  omega::io::ChunkReader& inner_;
  Ledgers& ledgers_;
};

}  // namespace perfbench
