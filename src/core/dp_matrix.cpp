#include "core/dp_matrix.h"

#include <cstring>
#include <stdexcept>
#include <string>

#include "par/thread_pool.h"

namespace omega::core {

namespace {

/// Relocation compacts once the stale prefix exceeds 1/kCompactSlack of the
/// live rows; below that the base just advances over the stale rows.
constexpr std::size_t kCompactSlack = 8;

}  // namespace

void DpMatrix::reset(std::size_t base) {
  origin_ = base;
  base_ = base;
  count_ = 0;
  storage_.clear();
  ++stats_.resets;
}

double DpMatrix::at(std::size_t gi, std::size_t gj) const {
  if (gi < base_ || gi >= end() || gj < base_ || gj > gi) {
    throw std::out_of_range(
        "DpMatrix::at(" + std::to_string(gi) + ", " + std::to_string(gj) +
        ") outside covered range [" + std::to_string(base_) + ", " +
        std::to_string(end()) + ") with j <= i");
  }
  return at_fast(gi, gj);
}

void DpMatrix::relocate(std::size_t new_base) {
  if (new_base < base_) {
    throw std::invalid_argument("DpMatrix::relocate cannot move base backward");
  }
  const std::size_t delta = new_base - base_;
  if (delta > 0 && delta >= count_) {
    reset(new_base);  // no overlap survives; counts as a reset
    return;
  }
  // The kept rows stay where they are: the base advances over a stale prefix.
  count_ -= delta;
  base_ = new_base;
  ++stats_.relocations;
  stats_.cells_reused += row_offset(count_);
  const std::size_t stale = base_ - origin_;
  if (stale * kCompactSlack <= count_) return;
  // Compaction. Row i' of the compacted triangle holds storage row
  // (i' + stale) entries [stale, stale + i'). Rows move front-to-back; the
  // destination offset is always strictly below the source, so in-place
  // copies are safe.
  for (std::size_t i = 1; i < count_; ++i) {
    std::memmove(storage_.data() + row_offset(i),
                 storage_.data() + row_offset(i + stale) + stale,
                 i * sizeof(double));
  }
  origin_ = base_;
  storage_.resize(row_offset(count_));
  ++stats_.compactions;
}

void DpMatrix::extend(std::size_t new_end, const ld::LdEngine& engine,
                      par::ThreadPool* pool) {
  // No new rows: return before touching storage or the engine.
  if (new_end <= end()) return;
  const std::size_t old_count = count_;
  const std::size_t new_count = new_end - base_;
  const std::size_t new_rows = new_count - old_count;
  const std::size_t stale = base_ - origin_;
  stats_.cells_recomputed += row_offset(new_count) - row_offset(old_count);
  storage_.resize(row_offset(stale + new_count));

  // Fetch r2 for all (new row, column) pairs in one engine call; columns span
  // the full final width so the recurrence below has every value it needs.
  // The fetch buffer is a member scratch: extend() runs once per grid
  // position, and reallocating tens of MB per position dominated small scans.
  const std::size_t ld_r2 = new_count - 1;  // columns 0 .. new_count-2
  if (ld_r2 > 0) {
    if (r2_scratch_.size() < new_rows * ld_r2) {
      r2_scratch_.resize(new_rows * ld_r2);
    }
    engine.r2_block(base_ + old_count, base_ + new_count, base_,
                    base_ + new_count - 1, r2_scratch_.data(), ld_r2);
    r2_fetches_ += static_cast<std::uint64_t>(new_rows) * ld_r2;
  }

  // Eq. (3) in telescoped form. The recurrence
  //   M(i, j) = M(i, j+1) + M(i-1, j) - M(i-1, j+1) + r2(i, j)
  // telescopes (subtract M(i-1, j) and induct down from the M(i, i) = 0
  // boundary) to
  //   M(i, j) = M(i-1, j) + sum_{q = j}^{i-1} r2(i, q),
  // i.e. row i is row i-1 plus the suffix-sum of row i's r2 values. Phase 1
  // computes the suffix scans — independent across rows, so large extends
  // tile them over the pool; the descending per-row order is fixed, keeping
  // the float results identical for any pool size and any matrix base
  // (relocation tests compare them bitwise). Phase 2 adds each previous row
  // in ascending order — a unit-stride vector add replacing the old 4-term
  // per-cell chain. Rows are written from their live column on; the stale
  // columns [origin, base) of new rows are never read.
  const std::size_t first = old_count == 0 ? 1 : old_count;
  const auto live_row = [&](std::size_t i) {
    return storage_.data() + row_offset(stale + i) + stale;
  };
  const auto suffix_row = [&](std::size_t i) {
    double* row = live_row(i);
    const float* r2_row = r2_scratch_.data() + (i - old_count) * ld_r2;
    double acc = 0.0;
    for (std::size_t j = i; j-- > 0;) {
      acc += static_cast<double>(r2_row[j]);
      row[j] = acc;
    }
  };
  constexpr std::size_t kMinRowsForPool = 64;
  if (pool != nullptr && pool->size() > 0 &&
      new_count - first >= kMinRowsForPool) {
    par::parallel_for(*pool, first, new_count, 8, suffix_row);
  } else {
    for (std::size_t i = first; i < new_count; ++i) suffix_row(i);
  }
  for (std::size_t i = first; i < new_count; ++i) {
    double* row = live_row(i);
    const double* prev = live_row(i - 1);
    // Previous row holds columns 0 .. i-2; column i-1 adds the implicit
    // zero diagonal M(i-1, i-1), so the suffix value already stored is final.
    for (std::size_t j = 0; j + 1 < i; ++j) row[j] += prev[j];
  }
  count_ = new_count;
}

}  // namespace omega::core
