#include "core/stream_scanner.h"

#include <algorithm>
#include <future>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.h"
#include "core/scan_driver.h"
#include "core/scan_executor.h"
#include "io/fingerprint.h"
#include "par/thread_pool.h"
#include "util/progress.h"
#include "util/stage.h"
#include "util/telemetry.h"
#include "util/timer.h"
#include "util/trace.h"

namespace omega::core {

void StreamScanOptions::validate() const {
  if (chunk_sites == 0) {
    throw std::invalid_argument("stream: chunk_sites must be >= 1");
  }
  if (resume && checkpoint_path.empty()) {
    throw std::invalid_argument("stream: resume requires a checkpoint path");
  }
}

std::vector<io::SiteRange> StreamPlan::site_ranges() const {
  std::vector<io::SiteRange> ranges;
  ranges.reserve(chunks.size());
  for (const StreamChunkPlan& chunk : chunks) ranges.push_back(chunk.sites);
  return ranges;
}

std::uint64_t StreamPlan::overlap_sites() const {
  std::uint64_t overlap = 0;
  for (std::size_t k = 1; k < chunks.size(); ++k) {
    const std::size_t prev_end = chunks[k - 1].sites.end;
    const std::size_t begin = chunks[k].sites.begin;
    if (begin < prev_end) overlap += prev_end - begin;
  }
  return overlap;
}

StreamPlan plan_stream_chunks(const std::vector<std::int64_t>& positions_bp,
                              const OmegaConfig& config,
                              std::size_t chunk_sites) {
  StreamPlan plan;
  plan.grid = build_grid(positions_bp, config);

  // Pack consecutive valid positions greedily. Grid positions are laid out
  // left to right, so lo/hi are non-decreasing along the grid and the
  // covering span of a chunk is [first lo, last hi + 1).
  bool open = false;
  StreamChunkPlan current;
  std::size_t last_valid = 0;
  auto close = [&](std::size_t grid_end) {
    current.grid_end = grid_end;
    plan.chunks.push_back(current);
    open = false;
  };
  for (std::size_t g = 0; g < plan.grid.size(); ++g) {
    const GridPosition& position = plan.grid[g];
    if (!position.valid) continue;
    const std::size_t end = position.hi + 1;
    if (open && end - current.sites.begin <= chunk_sites) {
      current.sites.end = std::max(current.sites.end, end);
      last_valid = g;
      continue;
    }
    if (open) close(last_valid + 1);
    current = StreamChunkPlan{io::SiteRange{position.lo, end},
                              plan.chunks.empty() ? 0 : last_valid + 1, 0};
    last_valid = g;
    open = true;
  }
  // The final chunk also absorbs any trailing invalid positions.
  if (open) close(plan.grid.size());
  return plan;
}

ScanResult stream_scan(io::ChunkReader& reader, const ScannerOptions& options,
                       const StreamScanOptions& stream_options,
                       const std::function<std::unique_ptr<OmegaBackend>()>&
                           backend_factory) {
  stream_options.validate();
  const util::trace::Span scan_span("stream.scan");
  const util::Timer total;
  const detail::ScanSetup setup(options);
  const detail::CancelState* cancel = setup.cancel();
  static const util::Stage& fetch_stage = util::stage("stream.chunk_fetch");
  static const util::Stage& stall_stage = util::stage("stream.io_stall");
  static const util::Stage& chunk_stage = util::stage("stream.chunk_scan");
  // One executor for the entire stream: per-worker backends keep their
  // degradation state and fault-injection PRNG sequences across chunks (as
  // the in-memory scan's do), and per-worker matrices carry over seams. Its
  // worker layout runs within each resident chunk, so the memory bound is
  // unaffected.
  detail::ScanExecutor executor(options, setup.kernel, setup.threads,
                                backend_factory);

  const io::StreamIndex& index = reader.index();
  StreamPlan plan = plan_stream_chunks(index.positions_bp, options.config,
                                       stream_options.chunk_sites);

  ScanResult result = setup.seed_result(plan.grid);
  ScanProfile& profile = result.profile;
  profile.sched.workers = executor.workers();

  StreamStats& stream = profile.stream;
  stream.chunks = plan.chunks.size();
  stream.chunk_sites_target = stream_options.chunk_sites;
  stream.total_sites = index.num_sites();
  stream.overlap_sites = plan.overlap_sites();
  for (std::size_t k = 0; k < plan.chunks.size(); ++k) {
    // Peak residency is deterministic from the plan: chunk k plus, under
    // double buffering, the chunk being prefetched behind it.
    std::uint64_t resident = plan.chunks[k].sites.size();
    if (stream_options.double_buffer && k + 1 < plan.chunks.size()) {
      resident += plan.chunks[k + 1].sites.size();
    }
    stream.peak_resident_sites = std::max(stream.peak_resident_sites, resident);
  }

  const std::uint64_t valid_positions =
      detail::count_valid_positions(plan.grid);

  if (plan.chunks.empty()) {
    detail::finish_profile(profile, setup.cancel_state, options, plan.grid,
                           result.scores, total.seconds(),
                           setup.telemetry_begin);
    if (options.progress != nullptr) {
      options.progress->begin(valid_positions, plan.chunks.size());
      options.progress->finish();
    }
    return result;  // no valid position anywhere — nothing to read
  }

  // Crash-safe runtime (core/checkpoint.h): the identity of this scan is the
  // dataset fingerprint plus the hash of every score-relevant setting.
  const bool checkpointing = !stream_options.checkpoint_path.empty();
  const io::StreamFingerprint fingerprint =
      io::fingerprint_stream(index, stream_options.source_path);
  const std::string config_backend_name = executor.config_backend_name();
  const std::string config_summary = scan_config_summary(
      options, stream_options.chunk_sites, config_backend_name);
  const std::uint64_t config_hash = scan_config_hash(
      options, stream_options.chunk_sites, config_backend_name);

  std::size_t k0 = 0;  // first chunk this run scans
  util::telemetry::RegistrySnapshot resumed_telemetry;
  if (stream_options.resume) {
    ScanCheckpoint ckpt = load_checkpoint(stream_options.checkpoint_path);
    if (!(ckpt.fingerprint == fingerprint)) {
      throw ResumeMismatchError(
          "stream_scan: checkpoint belongs to a different dataset: "
          "checkpoint " +
          ckpt.fingerprint.describe() + " vs current " +
          fingerprint.describe());
    }
    if (ckpt.config_hash != config_hash) {
      throw ResumeMismatchError(
          "stream_scan: checkpoint was written with a different scan "
          "config: checkpoint {" +
          ckpt.config_summary + "} vs current {" + config_summary + "}");
    }
    if (ckpt.chunks_total != plan.chunks.size() ||
        ckpt.grid_size != plan.grid.size()) {
      throw ResumeMismatchError(
          "stream_scan: checkpoint chunk/grid geometry does not match the "
          "current plan");
    }
    k0 = static_cast<std::size_t>(ckpt.chunks_completed);
    const std::size_t expected_committed =
        k0 == 0 ? 0 : plan.chunks[k0 - 1].grid_end;
    if (ckpt.grid_committed != expected_committed) {
      throw ResumeMismatchError(
          "stream_scan: checkpoint grid cursor does not match the chunk "
          "cursor");
    }
    for (std::size_t g = 0; g < ckpt.scores.size(); ++g) {
      result.scores[g] = ckpt.scores[g];
    }
    merge_profile(profile, ckpt.totals);
    resumed_telemetry = ckpt.totals.telemetry;
    profile.runtime.resume_validations = 1;
    profile.runtime.chunks_resumed = k0;
  }
  // Resumed wall clock; the end-of-scan assignment adds this run's elapsed.
  const double resumed_seconds = profile.total_seconds;

  if (options.progress != nullptr) {
    std::uint64_t positions_resumed = 0;
    const std::size_t committed0 = k0 == 0 ? 0 : plan.chunks[k0 - 1].grid_end;
    for (std::size_t g = 0; g < committed0; ++g) {
      if (plan.grid[g].valid &&
          (result.scores[g].valid || result.scores[g].quarantined)) {
        ++positions_resumed;
      }
    }
    options.progress->begin(valid_positions, plan.chunks.size(),
                            positions_resumed, k0);
  }

  // A resumed reader only plans (and re-parses) the uncommitted suffix.
  {
    std::vector<io::SiteRange> ranges = plan.site_ranges();
    ranges.erase(ranges.begin(),
                 ranges.begin() + static_cast<std::ptrdiff_t>(k0));
    reader.plan(std::move(ranges));
  }

  // Double-buffered fetch: one slot computes while the other fills on the IO
  // pool. Fetches are strictly serialized (submit only after the previous
  // get()), so the slot/fetch_seconds writes are published by the future.
  // The IO thread never writes the profile: checkpoint snapshots copy it
  // while a prefetch runs.
  par::ThreadPool io_pool(1);
  std::optional<io::DatasetChunk> slots[2];
  double fetch_seconds = 0.0;
  std::future<void> inflight;
  auto submit_fetch = [&](std::size_t slot) {
    fetch_seconds = 0.0;
    inflight = io_pool.submit([&reader, &slots, &fetch_seconds, slot] {
      const util::StageScope scope(fetch_stage, &fetch_seconds);
      slots[slot] = reader.next();
    });
  };

  std::size_t cursor = 0;
  if (k0 < plan.chunks.size()) submit_fetch(cursor);

  // Cumulative profile snapshot for a checkpoint: the running accumulators
  // (which already include any resumed totals) plus the end-of-stream
  // finalization, applied to a copy.
  auto snapshot_totals = [&]() -> ScanProfile {
    ScanProfile totals = profile;
    executor.finalize(totals);
    detail::finish_profile(totals, setup.cancel_state, options, plan.grid,
                           result.scores, resumed_seconds + total.seconds(),
                           setup.telemetry_begin, resumed_telemetry);
    return totals;
  };
  std::size_t committed = k0;
  auto write_ckpt = [&]() {
    if (!checkpointing) return;
    ScanCheckpoint ckpt;
    ckpt.fingerprint = fingerprint;
    ckpt.config_hash = config_hash;
    ckpt.config_summary = config_summary;
    ckpt.chunks_total = plan.chunks.size();
    ckpt.chunks_completed = committed;
    ckpt.grid_size = plan.grid.size();
    ckpt.grid_committed =
        committed == 0 ? 0 : plan.chunks[committed - 1].grid_end;
    ckpt.scores.assign(
        result.scores.begin(),
        result.scores.begin() + static_cast<std::ptrdiff_t>(ckpt.grid_committed));
    ckpt.totals = snapshot_totals();
    const std::uint64_t bytes =
        write_checkpoint(stream_options.checkpoint_path, ckpt);
    ++profile.runtime.checkpoints_written;
    profile.runtime.checkpoint_bytes += bytes;
  };
  // Initial checkpoint at the resume cursor, so a kill during the very first
  // chunk still leaves a resumable file behind.
  write_ckpt();

  for (std::size_t k = k0; k < plan.chunks.size(); ++k) {
    if (cancel != nullptr && cancel->should_stop()) break;
    const StreamChunkPlan& step = plan.chunks[k];
    {
      // Without double buffering only chunk 0 was prefetched; later chunks
      // are fetched here, serialized with compute (the whole wait is stall).
      if (!inflight.valid()) submit_fetch(cursor);
      const util::StageScope scope(stall_stage, &stream.io_stall_seconds);
      inflight.get();
      stream.io_seconds += fetch_seconds;
    }
    std::optional<io::DatasetChunk> chunk = std::move(slots[cursor]);
    slots[cursor].reset();
    if (stream_options.double_buffer && k + 1 < plan.chunks.size()) {
      cursor = 1 - cursor;
      submit_fetch(cursor);
    }
    if (!chunk.has_value()) {
      throw std::runtime_error("stream_scan: reader ended before chunk " +
                               std::to_string(k));
    }
    if (chunk->first_site != step.sites.begin ||
        chunk->dataset.num_sites() != step.sites.size()) {
      throw std::runtime_error("stream_scan: reader returned sites [" +
                               std::to_string(chunk->first_site) + ", +" +
                               std::to_string(chunk->dataset.num_sites()) +
                               ") for planned chunk " + std::to_string(k));
    }

    // Scan the chunk's grid positions; a non-BackendError escape (the
    // per-position recovery engine already absorbs BackendErrors) retries
    // the whole chunk, then quarantines whatever is still unscored.
    bool scanned = false;
    for (std::size_t attempt = 0;
         attempt <= stream_options.chunk_retries && !scanned; ++attempt) {
      try {
        const util::StageScope scope(chunk_stage, &stream.compute_seconds);
        const ld::SnpMatrix snps(chunk->dataset);
        const auto inner = options.ld_factory
                               ? options.ld_factory(snps)
                               : make_ld_engine(options.ld, chunk->dataset, snps);
        const ld::OffsetLd engine(*inner, chunk->first_site);
        if (profile.ld_backend.empty()) profile.ld_backend = inner->name();
        // Settled positions are skipped inside the executor, so the
        // chunk-retry path below re-runs only what is still unscored.
        executor.run(plan.grid, step.grid_begin, step.grid_end, engine,
                     result.scores, profile.sched, options.progress, cancel);
        scanned = true;
      } catch (const util::CancelledError&) {
        // A simulator backend observed the cancel mid-launch. NOT a chunk
        // failure (and deliberately caught before the generic handler): the
        // drain below leaves the chunk uncommitted for resume to recompute.
        executor.invalidate();
        break;
      } catch (const std::exception&) {
        // The matrices may hold a half-extended state; force rebuilds.
        executor.invalidate();
      }
    }
    // A chunk commits when every one of its positions settled (valid or
    // quarantined). A cancelled drain can leave the chunk partially scored —
    // it stays uncommitted, the checkpoint cursor stays put, and resume
    // recomputes it from scratch (the settled-skip rule makes the re-scan
    // idempotent for anything that did settle).
    bool commit = scanned;
    if (scanned && cancel != nullptr && cancel->token->cancelled()) {
      for (std::size_t g = step.grid_begin; g < step.grid_end && commit; ++g) {
        if (plan.grid[g].valid && !result.scores[g].valid &&
            !result.scores[g].quarantined) {
          commit = false;
        }
      }
    }
    if (!scanned) {
      if (cancel != nullptr && cancel->token->cancelled()) {
        break;  // drained mid-chunk
      }
      ++stream.failed_chunks;
      executor.invalidate();
      std::uint64_t chunk_quarantined = 0;
      for (std::size_t g = step.grid_begin; g < step.grid_end; ++g) {
        if (!plan.grid[g].valid || result.scores[g].valid) continue;
        result.scores[g].quarantined = true;
        ++profile.faults.quarantined_positions;
        ++chunk_quarantined;
      }
      if (options.progress != nullptr && chunk_quarantined > 0) {
        util::ProgressReporter::Delta delta;
        delta.positions = chunk_quarantined;
        delta.quarantined = chunk_quarantined;
        options.progress->advance(delta);
      }
      commit = true;  // quarantine settles the chunk; the stream continues
    }
    if (!commit) break;
    committed = k + 1;
    if (options.progress != nullptr) {
      util::ProgressReporter::Delta delta;
      delta.chunks = 1;
      options.progress->advance(delta);
    }
    write_ckpt();
  }

  if (inflight.valid()) {
    // A cancelled drain can leave the next chunk's prefetch in flight; wait
    // it out so the IO task never outlives the slots it writes into. Fetch
    // errors are irrelevant once the stream has stopped consuming.
    try {
      inflight.get();
      stream.io_seconds += fetch_seconds;
    } catch (const std::exception&) {
    }
  }

  executor.finalize(profile);
  util::telemetry::gauge("stream.io_overlap_ratio")
      .set(stream.io_overlap_ratio());
  detail::finish_profile(profile, setup.cancel_state, options, plan.grid,
                         result.scores, resumed_seconds + total.seconds(),
                         setup.telemetry_begin, resumed_telemetry);
  if (options.progress != nullptr) options.progress->finish();
  return result;
}

}  // namespace omega::core
