// Workload generator: writes one dataset (gzip MRT archives, registry,
// manifest) for a (seed, size) key. Deterministic: the same key gives
// byte-identical files. Runs in its own process, so the measuring process
// never holds generator state.
//
// The dataset is one synth::MacroGen March-15-2020 day at
// march2020(1/4096), one time-sorted archive per collector.
//
// Records with whole-second timestamps are written as plain BGP4MP, the
// rest as BGP4MP_ET.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bgp/codec.h"
#include "mrt/mrt.h"
#include "mrt/source.h"
#include "synth/macrogen.h"
#include "workload.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// One BGP4MP message ready to be framed.
struct Message {
  Timestamp time;
  Asn peer_asn;
  IpAddress peer_ip;
  std::vector<std::uint8_t> bgp;
};

/// One output archive: its messages in file order.
struct Archive {
  std::string collector;
  std::string relpath;
  Asn local_asn;
  IpAddress local_ip;
  std::vector<const Message*> messages;
};

/// The allocation registry a day needs so §4 filtering keeps every
/// record: each ASN on a path or peering, each covering /8 (IPv4) or
/// /16 (IPv6) block.
class RegistryWriter {
 public:
  void add(Asn peer, const Prefix& prefix, const UpdateMessage* update) {
    asns_.insert(peer.value());
    blocks_.insert(Prefix(prefix.address(), prefix.is_v4() ? 8 : 16));
    if (update != nullptr && update->attrs) {
      for (Asn asn : update->attrs->as_path.flatten()) {
        asns_.insert(asn.value());
      }
    }
  }
  void add(Asn peer, const UpdateMessage& update) {
    for (const Prefix& p : update.withdrawn) add(peer, p, nullptr);
    for (const Prefix& p : update.announced) add(peer, p, &update);
  }
  void write(const fs::path& path) const {
    std::ofstream out(path);
    for (std::uint32_t asn : asns_) out << "asn " << asn << "\n";
    for (const Prefix& block : blocks_) {
      out << "prefix " << block.to_string() << "\n";
    }
    if (!out) throw std::runtime_error("cannot write " + path.string());
  }

 private:
  std::set<std::uint32_t> asns_;
  std::set<Prefix> blocks_;
};

bool whole_second(Timestamp t) { return t.unix_micros() % 1000000 == 0; }

/// Frames, compresses, and writes every archive over up to four threads.
/// Returns (raw MRT bytes, compressed bytes).
std::pair<std::uint64_t, std::uint64_t> write_archives(
    const fs::path& dir, const std::vector<Archive>& archives) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::uint64_t> raw_bytes{0};
  std::atomic<std::uint64_t> gz_bytes{0};
  std::exception_ptr error;
  std::mutex error_mutex;
  auto work = [&] {
    try {
      for (std::size_t i = next++; i < archives.size(); i = next++) {
        const Archive& a = archives[i];
        std::ostringstream raw;
        mrt::Writer writer(raw);
        for (const Message* m : a.messages) {
          mrt::Bgp4mpMessage record;
          record.peer_asn = m->peer_asn;
          record.local_asn = a.local_asn;
          record.peer_ip = m->peer_ip;
          record.local_ip = a.local_ip;
          record.bgp_message = m->bgp;
          writer.write_message(m->time, record, !whole_second(m->time));
        }
        const std::string payload = mrt::gzip_compress(raw.str());
        const fs::path path = dir / a.relpath;
        fs::create_directories(path.parent_path());
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
        if (!out) throw std::runtime_error("cannot write " + path.string());
        raw_bytes += raw.str().size();
        gz_bytes += payload.size();
      }
    } catch (...) {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!error) error = std::current_exception();
    }
  };
  const unsigned n =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < n; ++t) threads.emplace_back(work);
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
  return {raw_bytes.load(), gz_bytes.load()};
}

void write_manifest(const fs::path& dir, std::uint64_t seed,
                    std::uint64_t records, std::uint64_t messages,
                    const std::vector<Archive>& archives) {
  std::ofstream out(dir / "manifest.txt");
  out << "seed " << seed << "\nrecords " << records << "\nmessages "
      << messages << "\n";
  for (const Archive& a : archives) {
    out << "file " << a.collector << " " << a.relpath << "\n";
  }
  if (!out) throw std::runtime_error("cannot write manifest.txt");
}

struct GenStats {
  std::uint64_t records = 0;
  std::uint64_t messages = 0;
  std::size_t files = 0;
  std::uint64_t raw_bytes = 0;
  std::uint64_t compressed_bytes = 0;
};

/// The day's size: march2020(1/4096), about 253k records. NOTES.md
/// records why the 1/1024 day does not fit a measurement.
constexpr double kVolume = 1.0 / 4096;

GenStats generate_macro(const fs::path& dir, std::uint64_t seed, bool small) {
  synth::MacroParams params =
      small ? synth::MacroParams::march2020(1.0 / 65536, 1.0 / 512)
            : synth::MacroParams::march2020(kVolume);
  params.seed = 20200315 + seed * 1000003;
  synth::MacroGen gen(params);

  // Encode as the generator emits; records arrive per (session, prefix)
  // stream, so each collector's list is time-sorted afterwards (stable:
  // same-time records keep generation order).
  std::map<std::string, std::vector<Message>> by_collector;
  RegistryWriter registry;
  GenStats stats;
  (void)gen.generate_day([&](const core::UpdateRecord& r) {
    UpdateMessage update;
    if (r.announcement) {
      update.announced.push_back(r.prefix);
      update.attrs = r.attrs;
    } else {
      update.withdrawn.push_back(r.prefix);
    }
    registry.add(r.session.peer_asn, update);
    by_collector[r.session.collector].push_back(Message{
        r.time, r.session.peer_asn, r.session.peer_address,
        encode_update(update)});
    ++stats.records;
  });

  std::vector<Archive> archives;
  std::uint32_t index = 0;
  for (auto& [collector, messages] : by_collector) {
    std::stable_sort(messages.begin(), messages.end(),
                     [](const Message& a, const Message& b) {
                       return a.time < b.time;
                     });
    Archive a;
    a.collector = collector;
    a.relpath = "archives/" + collector + ".mrt.gz";
    a.local_asn = Asn(12654);
    a.local_ip = IpAddress::v4(193, 0, 4, static_cast<std::uint8_t>(++index));
    for (const Message& m : messages) a.messages.push_back(&m);
    stats.messages += messages.size();
    archives.push_back(std::move(a));
  }
  std::tie(stats.raw_bytes, stats.compressed_bytes) =
      write_archives(dir, archives);
  stats.files = archives.size();
  registry.write(dir / "registry.txt");
  write_manifest(dir, seed, stats.records, stats.messages, archives);
  return stats;
}

}  // namespace

int generate_main(std::uint64_t seed, bool small, const std::string& out_dir) {
  const fs::path dir(out_dir);
  fs::create_directories(dir);
  const double t0 = now_s();
  const GenStats stats = generate_macro(dir, seed, small);
  const double gen_s = now_s() - t0;
  std::printf(
      "{\"seed\": %llu, \"gen_s\": %.6f, \"records\": %llu, "
      "\"messages\": %llu, \"files\": %zu, \"raw_bytes\": %llu, "
      "\"compressed_bytes\": %llu}\n",
      static_cast<unsigned long long>(seed), gen_s,
      static_cast<unsigned long long>(stats.records),
      static_cast<unsigned long long>(stats.messages), stats.files,
      static_cast<unsigned long long>(stats.raw_bytes),
      static_cast<unsigned long long>(stats.compressed_bytes));
  return 0;
}

}  // namespace perfbench
