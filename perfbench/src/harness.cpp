// The measuring process: runs one workload's jobs over a generated
// dataset and prints one JSON object (last stdout line) with the metrics,
// the operation counts, and the digests run.py checks.
//
// Untraced mode (trace 0): alternating single-thread and T-thread jobs
// with set-up repetitions between them; end-to-end metrics only.
// Traced mode (trace 1): interleaved untraced and traced T-thread jobs
// for `seconds` (obs stage timing on, the harness's own spans recorded)
// and a single-thread reference job first, then one probe job
// timing snapshot/checkpoint/restore, then isolated single-layer runs
// over the same archives, each calling public functions only.
// Both modes end with one untimed job on the other ingest path, which
// must reach the same nine final reports.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bgp/codec.h"
#include "core/cleaning.h"
#include "core/ingest.h"
#include "mrt/mrt.h"
#include "mrt/source.h"
#include "obs/metrics.h"
#include "obs/pipeline_metrics.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

enum class Workload { kMacroBatch, kMacroStream };

Workload parse_workload(const std::string& name) {
  if (name == "macro_batch") return Workload::kMacroBatch;
  if (name == "macro_stream") return Workload::kMacroStream;
  throw std::runtime_error("unknown workload " + name);
}

/// Window size of macro_stream (the stream_report setting).
constexpr std::size_t kWindowRecords = 65536;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// In-memory spans around the harness's public calls: name, start, end
/// (seconds on now_s()), and the index of the causing span (-1: root).
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
  };
  int begin(const char* name, int parent) {
    spans_.push_back(Span{name, now_s(), 0, parent});
    return static_cast<int>(spans_.size() - 1);
  }
  void end(int id) { spans_[static_cast<std::size_t>(id)].end = now_s(); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// RAII span; inert when the tracer is null.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, int parent)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, parent) : -1) {}
  ~Scope() { close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  void close() {
    if (tracer_ != nullptr && id_ >= 0) tracer_->end(id_);
    tracer_ = nullptr;
  }
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Snapshot/checkpoint/restore timings taken by a probe job.
struct Probe {
  std::vector<double> snapshot_ms;
  std::vector<double> checkpoint_ms;
  double checkpoint_bytes = 0;
  double restore_ms = 0;
};

struct JobOptions {
  unsigned threads = 1;
  bool attach = true;          // false: ingest only, no driver
  bool other_path = false;     // the other workload's ingest path
  Tracer* tracer = nullptr;    // record spans
  Probe* probe = nullptr;      // time snapshot/checkpoint/restore
};

/// The single-thread reference every other job of a run must match.
/// `state` digests the save_state bytes, which depend on the ingest path
/// (ExplorationPass keeps its events in observation order, and windows
/// cut by arrival, not time); `reports` digests the nine final reports,
/// which the pass contract makes path-independent, so macro_batch and
/// macro_stream are compared on it.
struct Reference {
  std::uint64_t state = 0;
  std::uint64_t reports = 0;
};

struct JobResult {
  double setup_s = 0;
  double wall_s = 0;    // first add_file .. nine final reports in hand
  double report_s = 0;  // the finalizing report reads
  std::uint64_t cleaned = 0;
  std::uint64_t digest = 0;          // save_state bytes
  std::uint64_t report_digest = 0;   // the nine final reports
};

class Harness {
 public:
  Harness(Workload workload, Dataset data, std::string tmp_dir)
      : workload_(workload),
        data_(std::move(data)),
        cleaning_(cleaning_for(data_)),
        tmp_dir_(std::move(tmp_dir)) {}

  [[nodiscard]] const Dataset& data() const { return data_; }

  core::IngestOptions ingest_options(unsigned threads, bool windowed) {
    core::IngestOptions o;
    o.num_threads = threads;
    o.cleaning = &cleaning_;
    if (windowed) {
      o.window_records = kWindowRecords;
      o.spill_dir =
          (fs::path(tmp_dir_) / ("spill" + std::to_string(++spills_))).string();
      o.pipeline_windows = true;
    }
    return o;
  }

  /// Set-up only: driver and nine passes built, attached, ingestor
  /// constructed, sources registered. Returns seconds.
  double setup_once() {
    const double t0 = now_s();
    analytics::AnalysisDriver driver;
    (void)add_passes(driver);
    core::IngestOptions o = ingest_options(1, windowed(false));
    driver.attach(o);
    core::StreamingIngestor ingestor(o);
    register_files(ingestor);
    const double elapsed = now_s() - t0;
    cleanup_spill(o);
    return elapsed;
  }

  /// One job: set-up, ingest, and the nine finalizing reports.
  JobResult run_job(const JobOptions& opt) {
    JobResult res;
    Scope job(opt.tracer, "job", -1);
    const double t0 = now_s();
    Scope setup(opt.tracer, "setup", job.id());
    analytics::AnalysisDriver driver;
    Handles h = add_passes(driver);
    const bool windowed_path = windowed(opt.other_path);
    core::IngestOptions o = ingest_options(opt.threads, windowed_path);
    if (opt.attach) driver.attach(o);
    core::StreamingIngestor ingestor(o);
    const double t_first_add = now_s();
    register_files(ingestor);
    res.setup_s = now_s() - t0;
    setup.close();

    core::IngestResult result;
    {
      Scope ingest(opt.tracer, "ingest", job.id());
      if (!windowed_path) {
        result = ingestor.finish();
        res.cleaned = result.stream.size();
      } else {
        std::uint64_t count = 0;
        result = ingestor.finish([&count](core::UpdateRecord&&) { ++count; });
        res.cleaned = count;
      }
    }
    double paused = 0;
    if (opt.probe != nullptr && opt.attach) {
      paused = probe(driver, *opt.probe, job.id(), opt.tracer);
    }
    Reports reports;
    const double t_report = now_s();
    if (opt.attach) {
      Scope span(opt.tracer, "report", job.id());
      reports = collect_final(driver, h);
    }
    const double t_done = now_s();
    res.report_s = t_done - t_report;
    res.wall_s = t_done - t_first_add - paused;
    job.close();
    if (opt.attach) {
      res.report_digest = report_digest(reports);
      res.digest = state_digest(driver);
    }
    cleanup_spill(o);
    return res;
  }

 private:
  /// Whether a job takes the windowed path: macro_stream's own, or
  /// macro_batch's when `other_path` is set.
  [[nodiscard]] bool windowed(bool other_path) const {
    return (workload_ == Workload::kMacroStream) != other_path;
  }

  void register_files(core::StreamingIngestor& ingestor) {
    for (const Dataset::File& f : data_.files) {
      ingestor.add_file(f.collector, f.path);
    }
  }

  void cleanup_spill(const core::IngestOptions& o) {
    if (!o.spill_dir.empty()) {
      std::error_code ec;
      fs::remove_all(o.spill_dir, ec);
    }
  }

  /// Times snapshot, checkpoint, and restore on the fully ingested but
  /// unfinalized driver. Returns the seconds spent.
  double probe(analytics::AnalysisDriver& driver, Probe& probe,
               int parent, Tracer* tracer) {
    const double t0 = now_s();
    {
      Scope span(tracer, "snapshot", parent);
      const double t = now_s();
      analytics::ReportSnapshot snap = driver.snapshot();
      probe.snapshot_ms.push_back((now_s() - t) * 1e3);
    }
    std::ostringstream out;
    {
      Scope span(tracer, "checkpoint", parent);
      const double t = now_s();
      driver.checkpoint(out);
      probe.checkpoint_ms.push_back((now_s() - t) * 1e3);
    }
    const std::string bytes = out.str();
    probe.checkpoint_bytes = static_cast<double>(bytes.size());
    {
      analytics::AnalysisDriver restored;
      (void)add_passes(restored);
      std::istringstream in(bytes);
      const double t = now_s();
      restored.restore(in);
      probe.restore_ms = (now_s() - t) * 1e3;
    }
    return now_s() - t0;
  }

  Workload workload_;
  Dataset data_;
  core::CleaningOptions cleaning_;
  std::string tmp_dir_;
  std::size_t spills_ = 0;
};

/// Metrics in print order: name -> (value, unit).
class Metrics {
 public:
  void put(const std::string& name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  void write(std::FILE* out) const {
    std::fprintf(out, "{");
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::fprintf(out, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   i == 0 ? "" : ", ", items_[i].name.c_str(),
                   items_[i].value, items_[i].unit);
    }
    std::fprintf(out, "}");
  }

 private:
  struct Item {
    std::string name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

/// Operation accounting: a job is one operation; it fails on an
/// exception, a cleaned-record count that differs from the generator's,
/// or a digest mismatch.
struct Accounting {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;

  void fail(std::uint64_t ops, const std::string& why) {
    failed += ops;
    correct = false;
    if (errors.size() < 8) errors.push_back(why);
  }
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// Runs one job, folding exceptions and digest mismatches into `acct`.
/// Returns false when the job threw.
bool checked_job(Harness& harness, const JobOptions& opt, Accounting& acct,
                 const Reference& ref, JobResult& out) {
  acct.attempted += 1;
  try {
    out = harness.run_job(opt);
  } catch (const std::exception& e) {
    acct.fail(1, std::string("exception: ") + e.what());
    return false;
  }
  if (out.cleaned != harness.data().records) {
    acct.fail(1, "cleaned " + std::to_string(out.cleaned) + " records, " +
                     "generated " + std::to_string(harness.data().records));
    return true;
  }
  // A zero reference digest is not checked: the reference job itself,
  // or the other-path job, whose save_state bytes may differ.
  if (opt.attach && ((ref.state != 0 && out.digest != ref.state) ||
                     (ref.reports != 0 && out.report_digest != ref.reports))) {
    acct.fail(1, "final state or report digest differs from the reference");
  }
  return true;
}

struct RunConfig {
  std::string trace_out;  // traced runs: spans + obs JSON go here
  double seconds = 10;
  unsigned threads = 4;
};

/// Untraced run: end-to-end metrics. Single-thread and T-thread jobs
/// alternate (so both see the same host conditions) until `seconds` have
/// passed, at least two of each, with set-up-only repetitions between
/// them; the first single-thread job also fixes the reference digests
/// every later job is checked against.
void run_untraced(Harness& harness, const RunConfig& cfg, Accounting& acct,
                  Metrics& m, Reference& ref) {
  const double start = now_s();
  std::vector<double> setup;
  std::vector<double> rps;
  std::vector<double> rps_1t;
  for (std::size_t job = 0; job < 4 || now_s() - start < cfg.seconds; ++job) {
    // Set-up repetitions between jobs, so their median spans the run.
    for (int i = 0; i < 25; ++i) setup.push_back(harness.setup_once());
    const unsigned threads = job % 2 == 0 ? 1 : cfg.threads;
    JobOptions opt;
    opt.threads = threads;
    JobResult r;
    if (!checked_job(harness, opt, acct, ref, r)) break;
    if (job == 0) ref = Reference{r.digest, r.report_digest};
    setup.push_back(r.setup_s);
    std::fprintf(stderr, "job threads=%u wall_s=%.4f report_s=%.4f\n",
                 threads, r.wall_s, r.report_s);
    const double records_per_s = static_cast<double>(r.cleaned) / r.wall_s;
    (threads == 1 ? rps_1t : rps).push_back(records_per_s);
  }

  m.put("records_per_s", median(rps), "records/s");
  m.put("records_per_s_1t", median(rps_1t), "records/s");
  m.put("peak_rss_mb", peak_rss_mb(), "MB");
  m.put("setup_s", median(setup), "s");
  std::fprintf(stderr, "untraced: %zu T-thread jobs, %zu single-thread jobs\n",
               rps.size(), rps_1t.size());
}

/// Isolated single-layer runs over the dataset's archives.
void run_layers(Harness& harness, Metrics& m, Accounting& acct) {
  const Dataset& data = harness.data();
  // mrt: inflate every archive, then frame the inflated bytes.
  std::vector<std::string> inflated;
  double inflate_s = 0;
  for (const Dataset::File& f : data.files) {
    const double t = now_s();
    mrt::InputStream in = mrt::InputStream::open_file(f.path);
    std::ostringstream bytes;
    bytes << in.stream().rdbuf();
    inflated.push_back(std::move(bytes).str());
    inflate_s += now_s() - t;
  }
  m.put("mrt.inflate_s", inflate_s, "s");

  struct Framed {
    const Dataset::File* file;
    std::vector<mrt::Record> records;
  };
  std::vector<Framed> framed;
  double frame_s = 0;
  for (std::size_t i = 0; i < data.files.size(); ++i) {
    std::istringstream in(std::move(inflated[i]));
    mrt::ChunkedReader reader(in, core::IngestOptions{}.chunk_records);
    Framed out{&data.files[i], {}};
    const double t = now_s();
    while (auto chunk = reader.next_chunk()) {
      for (mrt::Record& r : *chunk) out.records.push_back(std::move(r));
    }
    frame_s += now_s() - t;
    framed.push_back(std::move(out));
  }
  inflated.clear();
  m.put("mrt.frame_s", frame_s, "s");

  // bgp: BGP4MP endpoints + inner UPDATE.
  struct Decoded {
    const Dataset::File* file;
    Timestamp time;
    mrt::Bgp4mpMessage message;
    UpdateMessage update;
  };
  std::vector<Decoded> decoded;
  decoded.reserve(data.messages);
  double decode_s = 0;
  for (Framed& f : framed) {
    const double t = now_s();
    for (const mrt::Record& r : f.records) {
      bool four_byte = true;
      mrt::Bgp4mpMessage message = mrt::Reader::parse_message(r, &four_byte);
      CodecOptions codec;
      codec.four_byte_asn = four_byte;
      UpdateMessage update = decode_update(message.bgp_message, codec);
      decoded.push_back(Decoded{f.file, r.timestamp, std::move(message),
                                std::move(update)});
    }
    decode_s += now_s() - t;
    f.records = {};
  }
  framed.clear();
  m.put("bgp.decode_s", decode_s, "s");

  // core: explode, then §4 clean the whole day at once.
  std::vector<core::UpdateRecord> exploded;
  exploded.reserve(data.records);
  double t = now_s();
  for (const Decoded& d : decoded) {
    core::append_update_records(d.file->collector, d.message.peer_asn,
                                d.message.peer_ip, d.time, d.update, exploded);
  }
  m.put("core.explode_s", now_s() - t, "s");
  decoded = {};
  std::vector<core::SeqRecord> seq;
  seq.reserve(exploded.size());
  for (std::size_t i = 0; i < exploded.size(); ++i) {
    seq.push_back(core::SeqRecord{i, std::move(exploded[i])});
  }
  exploded = {};
  const core::CleaningOptions cleaning = cleaning_for(data);
  t = now_s();
  (void)core::cleaning::run(seq, cleaning);
  m.put("core.clean_s", now_s() - t, "s");
  if (seq.size() != data.records) {
    acct.fail(0, "isolated clean kept " + std::to_string(seq.size()) +
                     " of " + std::to_string(data.records) + " records");
  }

  // analytics: each pass alone over the cleaned stream.
  core::UpdateStream stream;
  for (core::SeqRecord& r : seq) stream.add(std::move(r.record));
  seq = {};
  for (std::size_t i = 0; i < kPassCount; ++i) {
    analytics::AnalysisDriver driver;
    add_one_pass(driver, i);
    t = now_s();
    driver.observe_stream(stream);
    m.put(std::string("analytics.observe_s.") + kPassNames[i], now_s() - t,
          "s");
  }
}

/// Traced run: per-layer metrics.
void run_traced(Harness& harness, const RunConfig& cfg, Accounting& acct,
                Metrics& m, Reference& ref) {
  {
    JobOptions opt;
    opt.threads = 1;
    JobResult r;
    if (checked_job(harness, opt, acct, ref, r)) {
      ref = Reference{r.digest, r.report_digest};
    }
  }

  // Interleaved untraced / traced T-thread jobs.
  Tracer tracer;
  std::vector<double> untraced_rps;
  std::vector<double> traced_rps;
  std::vector<double> report_s;
  std::vector<double> ingest_only;
  obs::Registry::global().reset();
  const double start = now_s();
  int pairs = 0;
  for (; pairs < 2 || now_s() - start < cfg.seconds; ++pairs) {
    JobOptions opt;
    opt.threads = cfg.threads;
    JobResult r;
    obs::set_enabled(false);
    if (checked_job(harness, opt, acct, ref, r)) {
      untraced_rps.push_back(static_cast<double>(r.cleaned) / r.wall_s);
      report_s.push_back(r.report_s);
    }
    obs::set_enabled(true);
    opt.tracer = &tracer;
    if (checked_job(harness, opt, acct, ref, r)) {
      traced_rps.push_back(static_cast<double>(r.cleaned) / r.wall_s);
    }
    obs::set_enabled(false);
  }
  const obs::PipelineMetrics& pm = obs::pipeline_metrics();
  const double k = pairs;
  std::uint64_t opened = 0;
  std::uint64_t compressed = 0;
  for (std::size_t c = 0; c < obs::PipelineMetrics::kCodecs; ++c) {
    opened += pm.source_opened[c]->value();
    compressed += pm.source_compressed_bytes[c]->value();
  }
  // Histograms observe only while timing is enabled: the traced jobs.
  // Counters always update, so they also saw the untraced jobs.
  auto per_traced = [k](const obs::Histogram* h) { return h->sum() / k; };
  auto per_job = [k](std::uint64_t n) {
    return static_cast<double>(n) / (2 * k);
  };
  m.put("mrt.sources_opened", per_job(opened), "count");
  m.put("mrt.compressed_bytes", per_job(compressed), "bytes");
  m.put("core.stage.frame_s", per_traced(pm.ingest_frame), "s");
  m.put("core.stage.decode_s", per_traced(pm.ingest_decode), "s");
  m.put("core.stage.clean_s", per_traced(pm.ingest_clean), "s");
  m.put("core.stage.observe_s", per_traced(pm.ingest_observe), "s");
  m.put("core.stage.merge_s", per_traced(pm.ingest_merge), "s");
  m.put("core.stage.spill_s", per_traced(pm.ingest_spill), "s");
  m.put("core.stage.run_merge_s", per_traced(pm.ingest_run_merge), "s");
  m.put("core.stage.prefetch_wait_s", per_traced(pm.ingest_prefetch_wait), "s");
  m.put("core.pool.queue_wait_s", per_traced(pm.pool_queue_wait), "s");
  m.put("core.windows", per_job(pm.ingest_windows->value()), "count");
  m.put("core.spilled_runs", per_job(pm.ingest_spilled_runs->value()), "count");
  m.put("analytics.report_s", median(report_s), "s");
  m.put("analytics.snapshot_clone_s", per_traced(pm.analysis_snapshot_clone),
        "s");
  m.put("analytics.snapshot_merge_s", per_traced(pm.analysis_snapshot_merge),
        "s");
  for (std::size_t i = 0; i < kPassCount; ++i) {
    m.put(std::string("analytics.merge_s.") + kPassNames[i],
          per_traced(&obs::pass_merge_histogram(i)), "s");
  }
  const double overhead = untraced_rps.empty() || traced_rps.empty()
                              ? 0.0
                              : 1.0 - median(traced_rps) / median(untraced_rps);

  // The trace file: spans plus the obs registry, beside the metrics.
  if (!cfg.trace_out.empty()) {
    std::ofstream out(cfg.trace_out);
    out << "{\"spans\": [";
    const auto& spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      char buf[160];
      std::snprintf(buf, sizeof buf,
                    "%s{\"id\": %zu, \"name\": \"%s\", \"start_s\": %.6f, "
                    "\"end_s\": %.6f, \"parent\": %d}",
                    i == 0 ? "" : ", ", i, spans[i].name.c_str(),
                    spans[i].start, spans[i].end, spans[i].parent);
      out << buf;
    }
    out << "], \"pass_names\": [";
    for (std::size_t i = 0; i < kPassCount; ++i) {
      out << (i == 0 ? "" : ", ") << "\"" << kPassNames[i] << "\"";
    }
    out << "], \"obs\": ";
    obs::render_json(out);
    out << "}\n";
  }

  // Probe job: snapshot / checkpoint / restore.
  Probe probe;
  {
    JobOptions opt;
    opt.threads = cfg.threads;
    opt.probe = &probe;
    JobResult r;
    (void)checked_job(harness, opt, acct, ref, r);
  }
  m.put("analytics.snapshot_ms", median(probe.snapshot_ms), "ms");
  m.put("analytics.checkpoint_ms", median(probe.checkpoint_ms), "ms");
  m.put("analytics.checkpoint_bytes", probe.checkpoint_bytes, "bytes");
  m.put("analytics.restore_ms", probe.restore_ms, "ms");

  // Ingest only: the workload's ingest with no driver attached.
  {
    JobOptions opt;
    opt.threads = cfg.threads;
    opt.attach = false;
    JobResult r;
    if (checked_job(harness, opt, acct, Reference{}, r)) {
      ingest_only.push_back(r.wall_s);
    }
  }
  m.put("core.ingest_s", median(ingest_only), "s");

  run_layers(harness, m, acct);
  m.put("obs.overhead_share", overhead, "share");
  // Context for the results file (run.py keeps only the per-layer list
  // on its last line): the two throughputs the overhead share compares.
  m.put("untraced.records_per_s", median(untraced_rps), "records/s");
  m.put("traced.records_per_s", median(traced_rps), "records/s");
}

/// Runs one untimed T-thread job on the other workload's ingest path
/// (windowed for macro_batch, batch for macro_stream) and checks that it
/// reaches the run's nine final reports, which the pass contract makes
/// path-independent. Its save_state bytes may differ (see Reference), so
/// only the reports are compared. Returns that job's report digest.
std::uint64_t cross_check(Harness& harness, const RunConfig& cfg,
                          Accounting& acct, const Reference& ref) {
  JobOptions opt;
  opt.threads = cfg.threads;
  opt.other_path = true;
  JobResult r;
  (void)checked_job(harness, opt, acct, Reference{0, ref.reports}, r);
  return r.report_digest;
}

}  // namespace

int run_main(const std::string& workload, const std::string& data_dir,
             const std::string& tmp_dir, const std::string& trace_out,
             double seconds, unsigned threads, bool trace) {
  const RunConfig cfg{trace_out, seconds, threads};
  Harness harness(parse_workload(workload), load_dataset(data_dir), tmp_dir);
  Accounting acct;
  Metrics metrics;
  Reference ref;
  if (trace) {
    run_traced(harness, cfg, acct, metrics, ref);
  } else {
    run_untraced(harness, cfg, acct, metrics, ref);
  }
  const std::uint64_t other = cross_check(harness, cfg, acct, ref);
  for (const std::string& e : acct.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  std::printf("{\"workload\": \"%s\", \"threads\": %u, \"correct\": %s, "
              "\"attempted\": %llu, \"failed\": %llu, \"digest\": \"%s\", "
              "\"report_digest\": \"%s\", \"other_path_report_digest\": \"%s\", "
              "\"records\": %llu, \"metrics\": ",
              workload.c_str(), threads, acct.correct ? "true" : "false",
              static_cast<unsigned long long>(acct.attempted),
              static_cast<unsigned long long>(acct.failed), hex(ref.state).c_str(),
              hex(ref.reports).c_str(), hex(other).c_str(),
              static_cast<unsigned long long>(harness.data().records));
  metrics.write(stdout);
  std::printf("}\n");
  return 0;
}

}  // namespace perfbench
