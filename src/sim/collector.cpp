#include "sim/collector.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>

#include "bgp/codec.h"
#include "mrt/mrt.h"
#include "mrt/source.h"
#include "netbase/error.h"

namespace bgpcc::sim {

void RouteCollector::write_range(std::ostream& out, std::size_t begin,
                                 std::size_t end, bool extended_time) const {
  // BGP4MP carries one address family for both endpoints. A session
  // whose family differs from the collector's own address records the
  // unspecified address of the session's family as the local end, so
  // every log the collector accepted can be written (and ingested).
  const std::uint8_t unspecified_v6[16] = {};
  mrt::Writer writer(out);
  for (std::size_t i = begin; i < end; ++i) {
    const RecordedMessage& rec = messages_[i];
    mrt::Bgp4mpMessage message;
    message.peer_asn = rec.peer_asn;
    message.local_asn = asn_;
    message.peer_ip = rec.peer_address;
    if (rec.peer_address.family() == address_.family()) {
      message.local_ip = address_;
    } else if (rec.peer_address.family() == AddressFamily::kIpv6) {
      message.local_ip = IpAddress::v6(unspecified_v6);
    } else {
      message.local_ip = IpAddress::v4(0);
    }
    message.bgp_message = encode_update(rec.update);
    writer.write_message(rec.time, message, extended_time);
  }
}

// Compressed output goes through an in-memory staging buffer: collector
// fixture logs are small (simulation-scale), and one-shot compression
// keeps the Writer path free of a streaming-compressor dependency.
void RouteCollector::write_slice(std::ostream& out, std::size_t begin,
                                 std::size_t end, bool extended_time,
                                 mrt::Compression compression) const {
  if (compression == mrt::Compression::kNone) {
    write_range(out, begin, end, extended_time);
    return;
  }
  std::ostringstream staging;
  write_range(staging, begin, end, extended_time);
  std::string payload = mrt::compress(staging.str(), compression);
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  if (!out) throw ConfigError("MRT output write failed (stream error)");
}

void RouteCollector::write_mrt(std::ostream& out, bool extended_time,
                               mrt::Compression compression) const {
  write_slice(out, 0, messages_.size(), extended_time, compression);
}

void RouteCollector::write_mrt(const std::string& path, bool extended_time,
                               mrt::Compression compression) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw ConfigError("cannot open MRT output file: " + path);
  write_mrt(out, extended_time, compression);
}

std::vector<std::string> RouteCollector::write_mrt_rotated(
    const std::string& path_prefix, std::size_t files, bool extended_time,
    mrt::Compression compression) const {
  if (files == 0) {
    throw ConfigError("write_mrt_rotated: need at least one output file");
  }
  std::vector<std::string> paths;
  paths.reserve(files);
  std::size_t total = messages_.size();
  for (std::size_t f = 0; f < files; ++f) {
    char suffix[32];
    std::snprintf(suffix, sizeof(suffix), ".%04zu", f);
    std::string path =
        path_prefix + suffix + mrt::compression_suffix(compression);
    // Contiguous slices in record order: concatenating the rotation
    // reproduces the original log byte-for-byte.
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw ConfigError("cannot open MRT output file: " + path);
    write_slice(out, f * total / files, (f + 1) * total / files,
                extended_time, compression);
    paths.push_back(std::move(path));
  }
  return paths;
}

}  // namespace bgpcc::sim
