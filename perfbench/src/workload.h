// Shared pieces of the perfbench harness: the nine-pass configuration
// every workload runs, the report and state digests that check outputs,
// the on-disk dataset layout the generator writes and the harness reads,
// and a wall clock.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "analytics/driver.h"
#include "analytics/passes.h"
#include "core/cleaning.h"
#include "core/registry.h"

namespace perfbench {

using namespace bgpcc;

/// Seconds on the steady clock since an arbitrary process-local origin.
[[nodiscard]] inline double now_s() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

/// 64-bit FNV-1a, fed incrementally.
class Fnv {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void text(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Registration names of the nine passes, in registration order: the
/// `pass="0"`…`"8"` labels of the obs per-pass series map onto these.
inline constexpr std::size_t kPassCount = 9;
extern const char* const kPassNames[kPassCount];

/// Handles for all nine shipped passes (registration order = kPassNames).
struct Handles {
  analytics::PassHandle<analytics::ClassifierPass> types;
  analytics::PassHandle<analytics::PerSessionTypesPass> sessions;
  analytics::PassHandle<analytics::TomographyPass> tomography;
  analytics::PassHandle<analytics::CommunityStatsPass> communities;
  analytics::PassHandle<analytics::DuplicateBurstPass> duplicates;
  analytics::PassHandle<analytics::AnomalyPass> anomalies;
  analytics::PassHandle<analytics::RevealedPass> revealed;
  analytics::PassHandle<analytics::ExplorationPass> exploration;
  analytics::PassHandle<analytics::UsageClassificationPass> usage;
};

/// Registers the nine passes, configured as examples/stream_report does.
[[nodiscard]] Handles add_passes(analytics::AnalysisDriver& driver);

/// Registers only pass `index` (of kPassNames), identically configured.
void add_one_pass(analytics::AnalysisDriver& driver, std::size_t index);

/// All nine projections.
struct Reports {
  analytics::ClassifierPass::Report types;
  analytics::PerSessionTypesPass::Report sessions;
  analytics::TomographyPass::Report tomography;
  analytics::CommunityStatsPass::Report communities;
  analytics::DuplicateBurstPass::Report duplicates;
  core::AnomalyReport anomalies;
  core::RevealedStats revealed;
  analytics::ExplorationPass::Report exploration;
  analytics::UsageClassificationPass::Report usage;
};

/// The finalizing reads (the first one finalizes the driver).
[[nodiscard]] Reports collect_final(analytics::AnalysisDriver& driver,
                                    const Handles& h);

/// FNV digest over every field of the nine reports.
[[nodiscard]] std::uint64_t report_digest(const Reports& reports);

/// FNV digest of the driver's save_state bytes (finalizes the driver).
[[nodiscard]] std::uint64_t state_digest(analytics::AnalysisDriver& driver);

/// One generated dataset, as the generator laid it out on disk:
///   manifest.txt  seed, counts, and one `file` line per archive
///   registry.txt  the allocation registry §4 cleaning filters against
///   archives/...  gzip MRT archives, one per collector
struct Dataset {
  struct File {
    std::string collector;
    std::string path;  // absolute or relative to the working directory
  };
  std::uint64_t seed = 0;
  std::uint64_t records = 0;   // per-prefix records generated
  std::uint64_t messages = 0;  // MRT records written
  std::vector<File> files;     // in ingest order
  core::Registry registry;
};

/// Reads `dir`/manifest.txt and `dir`/registry.txt. Throws on error.
[[nodiscard]] Dataset load_dataset(const std::string& dir);

/// The §4 cleaning every workload applies: registry filtering plus the
/// second-granularity repair.
[[nodiscard]] core::CleaningOptions cleaning_for(const Dataset& data);

}  // namespace perfbench
