#include "workload.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "netbase/error.h"

namespace perfbench {

const char* const kPassNames[kPassCount] = {
    "classifier", "per_session_types", "tomography",
    "community_stats", "duplicate_burst", "anomaly",
    "revealed", "exploration", "usage"};

namespace {

core::AnomalyOptions anomaly_options() {
  core::AnomalyOptions options;
  options.min_classified = 20;
  options.novelty_min_occurrences = 50;
  return options;
}

core::UsageOptions usage_options() {
  core::UsageOptions options;
  options.min_occurrences = 5;
  return options;
}

// --- report digest: one feed() per report field type ----------------------

void feed(Fnv& h, std::uint64_t v) { h.u64(v); }
void feed(Fnv& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  h.u64(bits);
}
void feed(Fnv& h, const core::SessionKey& k) { h.text(k.to_string()); }
void feed(Fnv& h, const core::TypeCounts& c) {
  for (std::uint64_t v : c.counts) feed(h, v);
  feed(h, c.first_sightings);
  feed(h, c.withdrawals);
  feed(h, c.nn_with_med_change);
}
void feed(Fnv& h, Timestamp t) {
  feed(h, static_cast<std::uint64_t>(t.unix_micros()));
}
void feed(Fnv& h, const std::pair<core::SessionKey, core::TypeCounts>& p) {
  feed(h, p.first);
  feed(h, p.second);
}
void feed(Fnv& h, const core::AsEvidence& e) {
  feed(h, std::uint64_t{e.asn.value()});
  feed(h, e.on_path);
  feed(h, e.own_namespace_tagged);
  feed(h, e.as_peer);
  feed(h, e.as_peer_with_communities);
  feed(h, e.as_peer_with_foreign);
  feed(h, static_cast<std::uint64_t>(e.classification));
}
void feed(Fnv& h, const analytics::CommunityStatsPass::NamespaceCount& n) {
  feed(h, std::uint64_t{n.asn16});
  feed(h, n.distinct_values);
}
void feed(Fnv& h, const analytics::DuplicateBurstPass::SessionDuplicates& s) {
  feed(h, s.session);
  feed(h, s.classified);
  feed(h, s.nn);
  feed(h, s.bursts);
  feed(h, s.longest_run);
}
void feed(Fnv& h, const core::DuplicateOutlier& o) {
  feed(h, o.session);
  feed(h, o.nn);
  feed(h, o.classified);
  feed(h, o.nn_share);
  feed(h, o.sigma);
}
void feed(Fnv& h, const core::NoveltyBurst& b) {
  h.text(b.community.to_string());
  feed(h, b.first_seen);
  feed(h, b.occurrences);
}
void feed(Fnv& h, const core::ExplorationEvent& e) {
  feed(h, e.session);
  h.text(e.prefix.to_string());
  h.text(e.as_path.to_string());
  feed(h, e.begin);
  feed(h, e.end);
  feed(h, static_cast<std::uint64_t>(e.nc_count));
  feed(h, static_cast<std::uint64_t>(e.distinct_attributes));
}
void feed(Fnv& h, const core::AsUsage& u) {
  feed(h, std::uint64_t{u.asn16});
  feed(h, u.occurrences);
  feed(h, u.distinct_values);
  feed(h, u.sessions);
  for (std::uint64_t v : u.usage_occurrences) feed(h, v);
  for (std::uint64_t v : u.usage_values) feed(h, v);
  feed(h, static_cast<std::uint64_t>(u.profile));
}

template <typename T>
void feed_all(Fnv& h, const std::vector<T>& items) {
  feed(h, static_cast<std::uint64_t>(items.size()));
  for (const T& item : items) feed(h, item);
}

}  // namespace

Handles add_passes(analytics::AnalysisDriver& driver) {
  Handles h;
  core::BeaconSchedule schedule;  // the RIS beacon schedule
  h.types = driver.add(analytics::ClassifierPass{});
  h.sessions = driver.add(analytics::PerSessionTypesPass{});
  h.tomography = driver.add(analytics::TomographyPass{});
  h.communities = driver.add(analytics::CommunityStatsPass{});
  h.duplicates = driver.add(analytics::DuplicateBurstPass{});
  h.anomalies = driver.add(analytics::AnomalyPass{anomaly_options()});
  h.revealed = driver.add(analytics::RevealedPass{schedule});
  h.exploration = driver.add(analytics::ExplorationPass{schedule});
  h.usage = driver.add(analytics::UsageClassificationPass{usage_options()});
  return h;
}

void add_one_pass(analytics::AnalysisDriver& driver, std::size_t index) {
  core::BeaconSchedule schedule;
  switch (index) {
    case 0: (void)driver.add(analytics::ClassifierPass{}); return;
    case 1: (void)driver.add(analytics::PerSessionTypesPass{}); return;
    case 2: (void)driver.add(analytics::TomographyPass{}); return;
    case 3: (void)driver.add(analytics::CommunityStatsPass{}); return;
    case 4: (void)driver.add(analytics::DuplicateBurstPass{}); return;
    case 5: (void)driver.add(analytics::AnomalyPass{anomaly_options()}); return;
    case 6: (void)driver.add(analytics::RevealedPass{schedule}); return;
    case 7: (void)driver.add(analytics::ExplorationPass{schedule}); return;
    case 8:
      (void)driver.add(analytics::UsageClassificationPass{usage_options()});
      return;
    default: throw std::out_of_range("add_one_pass: no such pass");
  }
}

Reports collect_final(analytics::AnalysisDriver& driver, const Handles& h) {
  return Reports{driver.report(h.types),      driver.report(h.sessions),
                 driver.report(h.tomography), driver.report(h.communities),
                 driver.report(h.duplicates), driver.report(h.anomalies),
                 driver.report(h.revealed),   driver.report(h.exploration),
                 driver.report(h.usage)};
}

std::uint64_t report_digest(const Reports& r) {
  Fnv h;
  feed(h, r.types.counts);
  feed(h, r.types.streams);
  feed_all(h, r.sessions);
  feed_all(h, r.tomography);
  feed(h, r.communities.announcements);
  feed(h, r.communities.withdrawals);
  feed(h, r.communities.with_communities);
  feed(h, r.communities.community_occurrences);
  feed(h, r.communities.unique_communities);
  feed_all(h, r.communities.namespaces);
  feed_all(h, r.communities.communities_per_announcement);
  feed(h, r.duplicates.classified);
  feed(h, r.duplicates.nn);
  feed(h, r.duplicates.bursts);
  feed_all(h, r.duplicates.sessions);
  feed_all(h, r.anomalies.duplicate_outliers);
  feed_all(h, r.anomalies.novelty_bursts);
  feed(h, r.anomalies.population_mean_nn_share);
  feed(h, r.anomalies.population_stddev_nn_share);
  feed(h, r.revealed.total_unique);
  feed(h, r.revealed.withdrawal_only);
  feed(h, r.revealed.announce_only);
  feed(h, r.revealed.outside_only);
  feed(h, r.revealed.ambiguous);
  feed_all(h, r.exploration);
  feed_all(h, r.usage);
  return h.value();
}

std::uint64_t state_digest(analytics::AnalysisDriver& driver) {
  std::ostringstream out;
  driver.save_state(out);
  Fnv h;
  const std::string bytes = out.str();
  h.bytes(bytes.data(), bytes.size());
  return h.value();
}

Dataset load_dataset(const std::string& dir) {
  Dataset data;
  std::ifstream manifest(dir + "/manifest.txt");
  if (!manifest) throw std::runtime_error("no manifest.txt in " + dir);
  std::string key;
  while (manifest >> key) {
    if (key == "seed") {
      manifest >> data.seed;
    } else if (key == "records") {
      manifest >> data.records;
    } else if (key == "messages") {
      manifest >> data.messages;
    } else if (key == "file") {
      Dataset::File file;
      manifest >> file.collector >> file.path;
      file.path = dir + "/" + file.path;
      data.files.push_back(std::move(file));
    } else {
      throw std::runtime_error("manifest.txt: unknown key " + key);
    }
  }
  if (data.files.empty() || data.records == 0) {
    throw std::runtime_error("manifest.txt in " + dir + " is incomplete");
  }

  std::ifstream registry(dir + "/registry.txt");
  if (!registry) throw std::runtime_error("no registry.txt in " + dir);
  std::string value;
  while (registry >> key >> value) {
    if (key == "asn") {
      data.registry.allocate_asn(
          Asn(static_cast<std::uint32_t>(std::stoul(value))));
    } else if (key == "prefix") {
      data.registry.allocate_prefix(Prefix::from_string(value));
    } else {
      throw std::runtime_error("registry.txt: unknown key " + key);
    }
  }
  return data;
}

core::CleaningOptions cleaning_for(const Dataset& data) {
  core::CleaningOptions options;
  options.registry = &data.registry;
  options.fix_second_granularity = true;
  return options;
}

}  // namespace perfbench
