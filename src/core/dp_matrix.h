#pragma once
// The dynamic-programming matrix M of Eq. (3):
//
//   M(i, j) = sum of r2_{p,q} over all SNP pairs j <= q < p <= i
//
// built with the OmegaPlus recurrence
//
//   M(i, i)   = 0
//   M(i, i-1) = r2(i, i-1)
//   M(i, j)   = M(i, j+1) + M(i-1, j) - M(i-1, j+1) + r2(i, j)
//
// and supporting the tool's data-reuse optimization: when consecutive grid
// regions overlap, already computed entries are *relocated* (the sub-triangle
// for the overlapping SNP range is kept; M(i,j) only depends on r2 values
// inside [j, i], so the relocated entries stay valid) and only rows for new
// SNPs are computed.
//
// Relocation is lazy. Storage is a packed lower triangle anchored at a
// storage origin <= base: advancing the base only moves the anchor of the
// live window, leaving a stale prefix of rows and columns [origin, base) in
// place. The kept sub-triangle is compacted to the front (one memmove per
// row) only once the stale prefix exceeds 1/8 of the live row count, so the
// copy cost is amortized over many grid positions while the storage stays
// within (9/8)^2 of the live triangle.
//
// Accessors take *global* SNP indices so the scanner never translates
// coordinates. Entries are double: the CPU side is the precision reference;
// accelerator backends consume float casts of these sums exactly as
// OmegaPlus's host code feeds its accelerators.

#include <cstdint>
#include <vector>

#include "ld/ld_engine.h"

namespace omega::par {
class ThreadPool;
}

namespace omega::core {

/// Lifetime reuse accounting of one DpMatrix (observability layer): how the
/// matrix was advanced across grid positions and how many Eq. (3) cells the
/// relocation optimization saved versus recomputed.
struct DpMatrixStats {
  std::uint64_t resets = 0;            // reset() calls (full rebuilds)
  std::uint64_t relocations = 0;       // relocate() calls that kept cells
  std::uint64_t cells_reused = 0;      // entries carried over by relocation
  std::uint64_t cells_recomputed = 0;  // entries computed by extend()
  std::uint64_t compactions = 0;       // relocations that moved the triangle
};

class DpMatrix {
 public:
  DpMatrix() = default;

  /// Empties the matrix and anchors it at `base` (global index of local 0).
  void reset(std::size_t base);

  [[nodiscard]] std::size_t base() const noexcept { return base_; }
  /// One past the last covered global SNP index.
  [[nodiscard]] std::size_t end() const noexcept { return base_ + count_; }
  [[nodiscard]] std::size_t count() const noexcept { return count_; }

  /// M(gi, gj) for base() <= gj <= gi < end(). M(gi, gi) == 0.
  [[nodiscard]] double at(std::size_t gi, std::size_t gj) const;

  /// Sum of r2 over all pairs within the inclusive global range [glo, ghi].
  [[nodiscard]] double range_sum(std::size_t glo, std::size_t ghi) const {
    return at(ghi, glo);
  }

  /// Unchecked accessor for the omega nested loop (the scan hot path); the
  /// caller guarantees base() <= gj <= gi < end().
  [[nodiscard]] double at_fast(std::size_t gi, std::size_t gj) const noexcept {
    const std::size_t i = gi - origin_;
    const std::size_t j = gj - origin_;
    return i == j ? 0.0 : storage_[row_offset(i) + j];
  }

  /// Raw contiguous slice of row `gi` of the packed triangle: entry k is
  /// M(gi, base() + k) for k = 0 .. gi - base() - 1. The diagonal M(gi, gi)
  /// is implicit (zero) and NOT part of the slice — vectorized kernels must
  /// only read columns strictly below gi. Caller guarantees
  /// base() <= gi < end().
  [[nodiscard]] const double* row_data(std::size_t gi) const noexcept {
    return storage_.data() + row_offset(gi - origin_) + (base_ - origin_);
  }

  /// Drops all state before `new_base` (new_base >= base) — the OmegaPlus
  /// relocation. Only the base advances; the kept sub-triangle is compacted
  /// in place once the stale prefix [origin, base) exceeds 1/8 of the live
  /// rows, so most calls copy nothing.
  void relocate(std::size_t new_base);

  /// Grows coverage to [base, new_end) computing new rows via the Eq. (3)
  /// recurrence in telescoped form: row i equals row i-1 plus the suffix-sum
  /// of row i's fresh r2 values, so the per-cell 4-term dependency chain
  /// becomes one suffix scan per row (independent across rows) followed by a
  /// vectorizable row add. r2 values for the new rows are fetched in one
  /// block from the engine (which is where the GEMM engine gets its batch
  /// efficiency) into a reusable scratch buffer. When `pool` is non-null,
  /// large extends tile the suffix-scan phase across it; results are
  /// bit-identical with or without a pool (per-row summation order is
  /// fixed).
  void extend(std::size_t new_end, const ld::LdEngine& engine,
              par::ThreadPool* pool = nullptr);

  /// Number of r2 values fetched over the object's lifetime (reuse metric).
  [[nodiscard]] std::uint64_t r2_fetches() const noexcept { return r2_fetches_; }

  /// Lifetime reset/relocate/extend accounting (reuse observability).
  [[nodiscard]] const DpMatrixStats& stats() const noexcept { return stats_; }

  /// Bytes currently held by the triangle, including the stale prefix not
  /// yet compacted away: at most (9/8)^2 of the live triangle.
  [[nodiscard]] std::size_t bytes() const noexcept {
    return storage_.size() * sizeof(double);
  }

 private:
  /// Offset of local row i (which stores entries j = 0 .. i-1).
  [[nodiscard]] static std::size_t row_offset(std::size_t i) noexcept {
    return i * (i - 1) / 2;
  }

  std::size_t origin_ = 0;  // global index of storage row 0; <= base_
  std::size_t base_ = 0;
  std::size_t count_ = 0;
  std::vector<double> storage_;  // packed lower triangle from origin_,
                                 // diagonal implicit 0
  std::vector<float> r2_scratch_;  // reusable extend() fetch buffer
  std::uint64_t r2_fetches_ = 0;
  DpMatrixStats stats_;
};

}  // namespace omega::core
