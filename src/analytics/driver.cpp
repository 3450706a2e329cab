#include "analytics/driver.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>

#include "analytics/serialize.h"
#include "core/worker_pool.h"
#include "netbase/error.h"
#include "obs/pipeline_metrics.h"

namespace bgpcc::analytics {

namespace detail {

obs::Histogram* report_histogram(std::size_t pass_index) {
  return obs::enabled() ? &obs::pass_report_histogram(pass_index) : nullptr;
}

}  // namespace detail

namespace {

/// states[shard][pass], as AnalysisDriver keeps them.
using ShardStates = std::vector<std::vector<std::unique_ptr<detail::AnyState>>>;

/// The one merge routine behind snapshot() and the finalize: folds
/// shards 1..N-1 into shard 0, one pool job per pass, each merging in
/// shard order — the grouping every merged view has always used, so a
/// snapshot and the finale agree byte for byte. Each merged-from state
/// is freed as soon as it is folded in. `side`, when set, runs as one
/// more job beside the merges. Returns shard 0's row: the merged states.
std::vector<std::unique_ptr<detail::AnyState>> merge_shards(
    core::WorkerPool& pool, ShardStates shards,
    const std::function<void()>& side = {}) {
  obs::StageTimer merge_timer(obs::pipeline_metrics().analysis_snapshot_merge);
  const std::size_t passes = shards.front().size();
  const std::size_t first_pass = side ? 1 : 0;
  pool.parallel_for(first_pass + passes, [&](std::size_t job) {
    if (job < first_pass) {
      side();
      return;
    }
    const std::size_t p = job - first_pass;
    obs::Histogram* hist =
        obs::enabled() ? &obs::pass_merge_histogram(p) : nullptr;
    for (std::size_t s = 1; s < shards.size(); ++s) {
      obs::StageTimer pass_timer(hist);
      shards.front()[p]->merge(std::move(*shards[s][p]));
      shards[s][p].reset();
    }
  });
  return std::move(shards.front());
}

}  // namespace

const detail::AnyState& ReportSnapshot::state_at(std::size_t index,
                                                 const void* owner) const {
  if (data_ == nullptr) {
    throw ConfigError(
        "ReportSnapshot: report() on an empty snapshot — take one with "
        "AnalysisDriver::snapshot()");
  }
  if (owner != data_->owner || index >= data_->states.size()) {
    throw ConfigError(
        "ReportSnapshot: report() with a handle the snapshotted driver "
        "did not issue");
  }
  return *data_->states[index];
}

AnalysisDriver::AnalysisDriver() = default;
AnalysisDriver::~AnalysisDriver() = default;

void AnalysisDriver::throw_finalized(const char* call) const {
  throw ConfigError(std::string("AnalysisDriver: ") + call +
                    " after finalization (report()/save_state()) — the "
                    "per-shard states are already merged; build a fresh "
                    "driver for a new run");
}

void AnalysisDriver::ensure_can_add() const {
  std::lock_guard<std::mutex> lock(window_mutex_);
  if (finalized_) throw_finalized("add()");
  if (!states_.empty()) {
    throw ConfigError(
        "AnalysisDriver: add() after observation started — register every "
        "pass before attach()/sink()/observe()");
  }
}

void AnalysisDriver::ensure_states() {
  if (!states_.empty()) return;
  states_.resize(shard_slots_);
  for (auto& shard : states_) {
    shard.reserve(passes_.size());
    for (const auto& pass : passes_) {
      shard.push_back(pass->make_state());
    }
  }
  cursors_.assign(tracks_streams_ ? shard_slots_ : 0, core::Classifier{});
}

void AnalysisDriver::attach(core::IngestOptions& options) {
  std::lock_guard<std::mutex> lock(window_mutex_);
  if (finalized_) throw_finalized("attach()");
  // The per-shard state matrix must match the engine's shard layout, or
  // observe_shard would index out of range (or worse, silently fold two
  // engine shards into one slot and break session-order fidelity).
  const std::size_t resolved = core::resolve_shard_count(options);
  if (!states_.empty() && states_.size() != resolved) {
    throw ConfigError(
        "AnalysisDriver: attach() resolves to " + std::to_string(resolved) +
        " shards but this driver already holds " +
        std::to_string(states_.size()) +
        " shard states — use matching IngestOptions across runs");
  }
  shard_slots_ = resolved;
  pool_workers_ = core::resolve_threads(options.num_threads) - 1;
  ensure_states();
  options.shard_observer = [this](std::size_t shard,
                                  const std::vector<core::SeqRecord>&
                                      records) {
    observe_shard(shard, records);
  };
  // The committed-window barrier: the engine holds the driver's window
  // mutex for the whole observer phase of each window, so snapshot()
  // from another thread lands exactly on a window boundary.
  options.window_begin = [this] { window_mutex_.lock(); };
  options.window_commit = [this] { window_mutex_.unlock(); };
}

std::function<void(core::UpdateRecord&&)> AnalysisDriver::sink() {
  {
    std::lock_guard<std::mutex> lock(window_mutex_);
    if (finalized_) throw_finalized("sink()");
    ensure_states();
  }
  return [this](core::UpdateRecord&& record) { observe(record); };
}

void AnalysisDriver::observe(const core::UpdateRecord& record) {
  std::lock_guard<std::mutex> lock(window_mutex_);
  if (finalized_) throw_finalized("observe()");
  ensure_states();
  observe_record(record);
}

void AnalysisDriver::observe_stream(const core::UpdateStream& stream) {
  std::lock_guard<std::mutex> lock(window_mutex_);
  if (finalized_) throw_finalized("observe_stream()");
  ensure_states();
  for (const core::UpdateRecord& record : stream.records()) {
    observe_record(record);
  }
}

void AnalysisDriver::observe_record(const core::UpdateRecord& record) {
  const core::Transition transition =
      cursors_.empty() ? core::Transition{} : cursors_[0].classify(record);
  for (const auto& state : states_[0]) state->observe(record, transition);
}

void AnalysisDriver::observe_shard(
    std::size_t shard, const std::vector<core::SeqRecord>& records) {
  // Called on the engine's worker threads: one thread per shard index at
  // a time (core::IngestOptions::shard_observer contract), so the
  // per-shard states need no locking — and no lock is taken here: the
  // engine's poll thread holds window_mutex_ for the whole observer
  // phase (the window_begin/window_commit bracket installed by
  // attach()), which is what serializes these writes against
  // snapshot()'s clones. ensure_states() already ran on the caller's
  // thread in attach(), before any worker existed.
  if (finalized_) {
    // A still-attached IngestOptions reused after report(): the engine's
    // error collector carries this to the ingest caller as the real
    // contract violation, not a cryptic out-of-range.
    // bgpcc-lint: allow(H1, cold misuse-only path - never hit in steady state)
    throw ConfigError(
        "AnalysisDriver: ingestion observed through attached options "
        "after report() — attach a fresh driver per run");
  }
  obs::pipeline_metrics().analysis_observe_records->inc(records.size());
  // Classify each block of records once into a stack array (no heap), then
  // let each pass fold the block in turn (pass-major keeps states hot).
  constexpr std::size_t kBlock = 512;
  std::array<core::Transition, kBlock> transitions{};
  std::vector<std::unique_ptr<detail::AnyState>>& slot = states_.at(shard);
  for (std::size_t begin = 0; begin < records.size(); begin += kBlock) {
    const std::size_t count = std::min(kBlock, records.size() - begin);
    for (std::size_t i = 0; !cursors_.empty() && i < count; ++i) {
      transitions[i] = cursors_[shard].classify(records[begin + i].record);
    }
    for (const auto& state : slot) {
      for (std::size_t i = 0; i < count; ++i) {
        state->observe(records[begin + i].record, transitions[i]);
      }
    }
  }
}

ReportSnapshot AnalysisDriver::snapshot() {
  const obs::PipelineMetrics& metrics = obs::pipeline_metrics();
  obs::StageTimer snapshot_timer(metrics.analysis_snapshot);
  metrics.analysis_snapshots->inc();
  core::WorkerPool pool(pool_workers_.load(std::memory_order_relaxed));
  // Phase 1, under the committed-window barrier: clone every per-shard
  // state, one pool job per shard. Clones are cheap deep copies (the
  // Pass snapshot contract), so the lock is held O(state size / threads)
  // — ingestion stalls at the next window boundary at most that long.
  ShardStates clones;
  std::uint64_t epoch = 0;
  {
    obs::StageTimer clone_timer(metrics.analysis_snapshot_clone);
    std::lock_guard<std::mutex> lock(window_mutex_);
    if (finalized_) throw_finalized("snapshot()");
    ensure_states();  // snapshot before any observation: empty states
    epoch = ++epochs_;
    clones.resize(states_.size());
    pool.parallel_for(states_.size(), [&](std::size_t s) {
      clones[s].reserve(states_[s].size());
      for (const auto& state : states_[s]) clones[s].push_back(state->clone());
    });
  }
  metrics.analysis_epoch->set(static_cast<std::int64_t>(epoch));
  // Phase 2, outside the lock: merge the clones — the finalize's merge
  // routine, so a snapshot is byte-identical to the report() of a run
  // truncated here.
  auto data = std::make_shared<ReportSnapshot::Data>();
  data->owner = this;
  data->epoch = epoch;
  data->states = merge_shards(pool, std::move(clones));
  return ReportSnapshot(std::move(data));
}

const ReportSnapshot::Data& AnalysisDriver::finalize() {
  // The barrier is held for the whole finalize: a concurrent
  // report()/save_state() waits here and then finds final_ complete, and
  // a racing snapshot() either ran first or throws ConfigError after.
  std::lock_guard<std::mutex> lock(window_mutex_);
  if (!finalized_) {
    // Set first: once the states are moved out there is nothing live to
    // fall back to, even if a merge throws.
    finalized_ = true;
    ensure_states();  // report before any observation: empty states
    ShardStates states = std::move(states_);
    std::vector<core::Classifier> cursors = std::move(cursors_);
    auto data = std::make_shared<ReportSnapshot::Data>();
    data->owner = this;
    core::WorkerPool pool(pool_workers_.load(std::memory_order_relaxed));
    // Snapshots and reports never read the cursor tables: free them on
    // the pool beside the merges.
    data->states = merge_shards(pool, std::move(states), [&cursors] {
      std::vector<core::Classifier>().swap(cursors);
    });
    final_ = ReportSnapshot(std::move(data));
  }
  if (!final_) {
    throw ConfigError(
        "AnalysisDriver: an earlier report()/save_state() failed while "
        "merging the shard states — build a fresh driver for a new run");
  }
  return *final_.data_;
}

const detail::AnyState& AnalysisDriver::finalized_state(std::size_t index,
                                                        const void* owner) {
  if (owner != this || index >= passes_.size()) {
    throw ConfigError(
        "AnalysisDriver: report() with a handle this driver did not issue");
  }
  return *finalize().states[index];
}

// ---------------------------------------------------------------------------
// Wire codec plumbing. Each state travels as a length-prefixed blob: the
// writer serializes into a scratch buffer to learn the length; the reader
// decodes in place and verifies it consumed exactly the declared bytes,
// so a codec/layout mismatch surfaces as DecodeError at the offending
// pass instead of desynchronizing every pass after it.

namespace {

void write_state_blob(serialize::Writer& w, const detail::AnyState& state) {
  std::ostringstream buffer;
  serialize::Writer blob(buffer);
  state.save(blob);
  std::string bytes = std::move(buffer).str();
  w.u64(bytes.size());
  w.raw(bytes.data(), bytes.size());
}

void read_state_blob(serialize::Reader& r, detail::AnyState& state) {
  std::uint64_t declared = r.u64();
  std::uint64_t before = r.bytes_read();
  state.load(r);
  std::uint64_t consumed = r.bytes_read() - before;
  if (consumed != declared) {
    throw DecodeError("state blob declared " + std::to_string(declared) +
                      " bytes but decoding consumed " +
                      std::to_string(consumed) +
                      " — mismatched pass configuration or corrupt file");
  }
}

}  // namespace

void AnalysisDriver::write_tags(serialize::Writer& w) const {
  if (passes_.size() > 0xFFFF) {
    throw ConfigError("AnalysisDriver: more than 65535 passes");
  }
  w.u16(static_cast<std::uint16_t>(passes_.size()));
  for (const auto& pass : passes_) w.u16(pass->state_tag());
}

void AnalysisDriver::check_tags(serialize::Reader& r) const {
  std::uint16_t count = r.u16();
  if (count != passes_.size()) {
    throw ConfigError(
        "AnalysisDriver: state file holds " + std::to_string(count) +
        " passes, this driver registered " + std::to_string(passes_.size()) +
        " — register the same passes in the same order");
  }
  for (std::size_t p = 0; p < passes_.size(); ++p) {
    std::uint16_t tag = r.u16();
    std::uint16_t expected = passes_[p]->state_tag();
    if (tag != expected) {
      throw ConfigError("AnalysisDriver: state file pass " +
                        std::to_string(p) + " has wire tag " +
                        std::to_string(tag) + ", this driver expects tag " +
                        std::to_string(expected) +
                        " — register the same passes in the same order");
    }
  }
}

void AnalysisDriver::save_state(std::ostream& out) {
  const ReportSnapshot::Data& merged = finalize();
  serialize::Writer w(out);
  serialize::write_block_header(w, serialize::BlockKind::kPartialState);
  write_tags(w);
  for (const auto& state : merged.states) write_state_blob(w, *state);
  out.flush();
  if (!out) throw DecodeError("save_state: output stream failed on flush");
}

void AnalysisDriver::load_state(std::istream& in) {
  obs::StageTimer merge_timer(obs::pipeline_metrics().analysis_merge);
  std::lock_guard<std::mutex> lock(window_mutex_);
  if (finalized_) throw_finalized("load_state()");
  ensure_states();
  serialize::Reader r(in);
  serialize::BlockKind kind = serialize::read_block_header(r);
  if (kind == serialize::BlockKind::kIngestCursor) {
    throw DecodeError(
        "load_state: file is a bare ingest cursor, not a pass-state file");
  }
  check_tags(r);
  // A kCheckpoint's shard slots all fold into the sink slot: valid for
  // combining disjoint runs; resuming needs restore() (shard fidelity).
  const bool checkpoint = kind == serialize::BlockKind::kCheckpoint;
  std::uint16_t shard_count = 1;
  if (checkpoint) {
    if (r.boolean()) {
      (void)serialize::read_ingest_checkpoint(r);  // cursor: skip
    }
    shard_count = r.u16();
  }
  for (std::uint16_t s = 0; s < shard_count; ++s) {
    for (std::size_t p = 0; p < passes_.size(); ++p) {
      std::unique_ptr<detail::AnyState> fresh = passes_[p]->make_state();
      read_state_blob(r, *fresh);
      states_[0][p]->merge(std::move(*fresh));
    }
    if (checkpoint && !cursors_.empty()) {
      (void)serialize::read_stream_cursors(r);  // no stream continues
    }
  }
}

void AnalysisDriver::checkpoint(std::ostream& out) {
  checkpoint_impl(out, nullptr);
}

void AnalysisDriver::checkpoint(std::ostream& out,
                                const core::StreamingIngestor& ingestor) {
  checkpoint_impl(out, &ingestor);
}

void AnalysisDriver::checkpoint_impl(std::ostream& out,
                                     const core::StreamingIngestor* ingestor) {
  obs::StageTimer checkpoint_timer(
      obs::pipeline_metrics().analysis_checkpoint);
  // Checkpoints are taken between poll() calls (the StreamingIngestor
  // contract), but a snapshot thread may be live concurrently — holding
  // the barrier serializes against it. Note snapshot() never mutates
  // states_ and the epoch counter is never serialized, so a checkpoint
  // taken after any number of snapshots is byte-identical to one taken
  // on a never-snapshotted run (pinned by snapshot_report_test).
  std::lock_guard<std::mutex> lock(window_mutex_);
  if (finalized_) throw_finalized("checkpoint()");
  ensure_states();
  serialize::Writer w(out);
  serialize::write_block_header(w, serialize::BlockKind::kCheckpoint);
  write_tags(w);
  w.boolean(ingestor != nullptr);
  if (ingestor != nullptr) {
    serialize::write_ingest_checkpoint(w, ingestor->checkpoint_state());
  }
  w.u16(static_cast<std::uint16_t>(states_.size()));
  for (std::size_t s = 0; s < states_.size(); ++s) {
    for (const auto& state : states_[s]) write_state_blob(w, *state);
    if (!cursors_.empty()) serialize::write_stream_cursors(w, cursors_[s]);
  }
  out.flush();
  if (!out) throw DecodeError("checkpoint: output stream failed on flush");
}

void AnalysisDriver::restore(std::istream& in) { restore_impl(in, nullptr); }

void AnalysisDriver::restore(std::istream& in,
                             core::StreamingIngestor& ingestor) {
  restore_impl(in, &ingestor);
}

void AnalysisDriver::restore_impl(std::istream& in,
                                  core::StreamingIngestor* ingestor) {
  obs::StageTimer restore_timer(obs::pipeline_metrics().analysis_restore);
  // attach() may legitimately have minted the (empty) shard states
  // already — restore after attach is the documented resume order, since
  // the ingestor needs the observer installed at construction. load()
  // replaces each state's evidence wholesale, so only finalization is
  // irrecoverable here; anything observed before restore is discarded.
  std::lock_guard<std::mutex> lock(window_mutex_);
  if (finalized_) throw_finalized("restore()");
  serialize::Reader r(in);
  serialize::read_block_header(r, serialize::BlockKind::kCheckpoint);
  check_tags(r);
  bool has_cursor = r.boolean();
  if (ingestor != nullptr && !has_cursor) {
    throw ConfigError(
        "AnalysisDriver: checkpoint carries no ingest cursor (it was "
        "taken without an ingestor) — restore(istream&) the states alone");
  }
  std::size_t cursor_shards = 0;
  if (has_cursor) {
    core::IngestCheckpoint cursor = serialize::read_ingest_checkpoint(r);
    cursor_shards = cursor.shards != 0 ? cursor.shards : cursor.carry.size();
    if (ingestor != nullptr) {
      ingestor->restore_checkpoint(cursor);
    }
    // Without an ingestor the cursor is decoded and dropped: the states
    // alone still restore (merge/report of what was observed so far).
  }
  std::uint16_t shard_count = r.u16();
  if (shard_count == 0 || shard_count > core::kMaxIngestShards) {
    throw ConfigError(
        "AnalysisDriver: checkpoint has " + std::to_string(shard_count) +
        " shard slots — out of range, the file is corrupt or foreign");
  }
  if (cursor_shards != 0 && cursor_shards != shard_count) {
    throw ConfigError(
        "AnalysisDriver: checkpoint cursor resolved " +
        std::to_string(cursor_shards) + " shards but carries " +
        std::to_string(shard_count) +
        " state slots — the file is corrupt");
  }
  // Adopt the checkpoint's shard layout wholesale: restore() replaces
  // every state's evidence anyway, so re-minting at the saved size keeps
  // resume byte-identical even across hosts whose num_threads = 0
  // resolved to different shard counts.
  if (!states_.empty() && states_.size() != shard_count) states_.clear();
  shard_slots_ = shard_count;
  ensure_states();
  for (std::size_t s = 0; s < states_.size(); ++s) {
    for (auto& state : states_[s]) read_state_blob(r, *state);
    if (!cursors_.empty()) cursors_[s] = serialize::read_stream_cursors(r);
  }
}

core::IngestResult analyze_mrt_files(
    AnalysisDriver& driver,
    const std::map<std::string, std::vector<std::string>>& archives,
    core::IngestOptions options) {
  driver.attach(options);
  return core::ingest_mrt_files(archives, options);
}

core::IngestResult analyze_collectors(
    AnalysisDriver& driver,
    const std::vector<const sim::RouteCollector*>& collectors,
    core::IngestOptions options) {
  driver.attach(options);
  return core::ingest_collectors(collectors, options);
}

}  // namespace bgpcc::analytics
