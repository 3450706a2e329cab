#include "synth/macrogen.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <random>

namespace bgpcc::synth {
namespace {

// One collector session with its behavioral attributes.
struct SessionInfo {
  core::SessionKey key;
  bool cleaning = false;
  bool dup_vendor = true;
  bool second_granularity = false;
  bool route_server = false;
};

// Per-prefix static facts.
struct PrefixInfo {
  Prefix prefix;
  Asn origin;
  int transit_base = 0;   // index into the transit pool
  bool origin_tagged = false;
  bool v6 = false;
};

// Per-(session, prefix) evolving route state.
struct RouteState {
  int variant = 0;       // which transit path variant is current
  int tag = 0;           // which ingress tag set is current
  bool prepended = false;
  bool announced = false;
  Timestamp last_emit;
};

struct Transit {
  Asn asn;
  bool tagger = true;
  int city_count = 40;
};

std::uint64_t hash_combine(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2));
}

}  // namespace

MacroParams MacroParams::march2020(double volume_scale,
                                   double population_scale) {
  MacroParams p;
  p.year = 2020;
  p.quarter = 0;
  p.prefixes_v4 = std::max(64, static_cast<int>(1071150 * population_scale));
  p.prefixes_v6 = std::max(8, static_cast<int>(99141 * population_scale));
  p.origin_ases = std::max(32, static_cast<int>(68911 * population_scale));
  p.announcement_target =
      static_cast<std::uint64_t>(1008e6 * volume_scale);
  return p;
}

MacroParams MacroParams::for_sample(int year, int quarter,
                                    double volume_scale,
                                    double population_scale) {
  MacroParams p;
  p.year = year;
  p.quarter = quarter;
  double t = (year - 2010) + quarter / 4.0;  // 0 .. 10.25
  double frac = t / 10.0;

  p.sessions = static_cast<int>(700 + (1504 - 700) * frac);
  p.peers = static_cast<int>(290 + (581 - 290) * frac);
  p.collectors = static_cast<int>(20 + 14 * frac);
  p.prefixes_v4 =
      std::max(64, static_cast<int>((400000 + 671150 * frac) *
                                    population_scale));
  p.prefixes_v6 =
      std::max(8, static_cast<int>((3000 + 96141 * frac) * population_scale));
  p.origin_ases = std::max(
      32, static_cast<int>((35000 + 33911 * frac) * population_scale));

  // Community adoption: ~2.5x growth over the decade.
  p.tagged_route_fraction = 0.50 + 0.35 * frac;
  p.origin_tag_fraction = 0.10 + 0.15 * frac;
  p.clean_session_fraction = 0.13 + 0.05 * frac;

  // Volume: ~150M/day in 2010 to ~1G/day in 2020, with deterministic
  // per-sample variability (the wild is noisy).
  std::mt19937_64 noise_rng(static_cast<std::uint64_t>(year) * 4 +
                            static_cast<std::uint64_t>(quarter));
  std::uniform_real_distribution<double> noise(0.75, 1.35);
  double base = 150e6 + (1008e6 - 150e6) * frac;
  p.announcement_target =
      static_cast<std::uint64_t>(base * noise(noise_rng) * volume_scale);

  // The paper's Figure 2 footnote: an nn artifact spike around mid-2012.
  p.nn_artifact = (year == 2012 && (quarter == 1 || quarter == 2));

  p.seed = static_cast<std::uint64_t>(year) * 100 +
           static_cast<std::uint64_t>(quarter);
  // Sample days: the 15th of Mar/Jun/Sep/Dec (paper's quarterly cadence).
  // Approximate UTC midnight via days-since-epoch arithmetic.
  int month = 3 + quarter * 3;
  std::int64_t days = (year - 1970) * 365 + (year - 1969) / 4 +
                      (month - 1) * 30 + 14;
  p.day_start = Timestamp::from_unix_seconds(days * 86400);
  return p;
}

MacroGen::MacroGen(MacroParams params) : params_(std::move(params)) {}

MacroStats MacroGen::generate_day(
    const std::function<void(const core::UpdateRecord&)>& sink) {
  const MacroParams& p = params_;
  std::mt19937_64 rng(p.seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);

  MacroStats stats;

  // --- Build the session population.
  std::vector<SessionInfo> sessions;
  sessions.reserve(static_cast<std::size_t>(p.sessions));
  for (int s = 0; s < p.sessions; ++s) {
    SessionInfo info;
    int peer_index = s % p.peers;
    Asn peer_asn(20000 + static_cast<std::uint32_t>(peer_index));
    int collector_index = s % p.collectors;
    info.key.collector = (collector_index < 22)
                             ? "rrc" + std::to_string(collector_index)
                             : "route-views" +
                                   std::to_string(collector_index - 22);
    info.key.peer_asn = peer_asn;
    info.key.peer_address =
        IpAddress::v4(192, static_cast<std::uint8_t>(peer_index / 250),
                      static_cast<std::uint8_t>(peer_index % 250 + 1),
                      static_cast<std::uint8_t>(s % 250 + 1));
    // Behavioral attributes are per-peer (stable across its sessions).
    std::mt19937_64 peer_rng(p.seed ^ (0xabcdull + peer_index));
    std::uniform_real_distribution<double> peer_unit(0.0, 1.0);
    info.cleaning = peer_unit(peer_rng) < p.clean_session_fraction;
    info.dup_vendor = peer_unit(peer_rng) < p.dup_vendor_fraction;
    info.second_granularity = peer_unit(peer_rng) < p.second_granularity_fraction;
    info.route_server = peer_unit(peer_rng) < p.route_server_fraction;
    sessions.push_back(std::move(info));
  }

  // --- Transit pool (vocabulary source for geo communities).
  std::vector<Transit> transits;
  transits.reserve(static_cast<std::size_t>(p.transit_count));
  for (int t = 0; t < p.transit_count; ++t) {
    Transit transit;
    transit.asn = Asn(3000 + static_cast<std::uint32_t>(t) * 17);
    transit.tagger = unit(rng) < p.tagged_route_fraction;
    transit.city_count = 25 + static_cast<int>(unit(rng) * 50);
    transits.push_back(transit);
  }

  // --- Prefix universe.
  int total_prefixes = p.prefixes_v4 + p.prefixes_v6;
  std::vector<PrefixInfo> prefixes;
  prefixes.reserve(static_cast<std::size_t>(total_prefixes));
  for (int i = 0; i < total_prefixes; ++i) {
    PrefixInfo info;
    info.v6 = i >= p.prefixes_v4;
    if (!info.v6) {
      std::uint32_t base = 0x0b000000u + static_cast<std::uint32_t>(i) * 256;
      info.prefix = Prefix(IpAddress::v4(base), 24);
    } else {
      int j = i - p.prefixes_v4;
      std::array<std::uint8_t, 16> bytes{};
      bytes[0] = 0x24;
      bytes[1] = static_cast<std::uint8_t>(j >> 16);
      bytes[2] = static_cast<std::uint8_t>(j >> 8);
      bytes[3] = static_cast<std::uint8_t>(j & 0xff);
      info.prefix = Prefix(IpAddress::v6(bytes), 32);
    }
    info.origin = Asn(40000 + static_cast<std::uint32_t>(i % p.origin_ases));
    info.transit_base = i % p.transit_count;
    info.origin_tagged = unit(rng) < p.origin_tag_fraction;
    prefixes.push_back(std::move(info));
  }

  // --- Emission machinery.
  std::map<std::pair<int, int>, RouteState> states;  // (session, prefix)

  auto attrs_for = [&](const SessionInfo& session, const PrefixInfo& prefix,
                       const RouteState& state) {
    PathAttributes attrs;
    // The first-hop transit is fixed per prefix: its geo tags persist
    // across downstream path changes (a path change does not by itself
    // imply a community change — pc vs pn stays mechanism-driven).
    const Transit& transit =
        transits[static_cast<std::size_t>(prefix.transit_base)];
    std::vector<Asn> hops;
    if (!session.route_server) hops.push_back(session.key.peer_asn);
    hops.push_back(transit.asn);
    // Variants differ in the downstream leg: direct, or via one of two
    // second transits.
    if (state.variant % 3 != 0) {
      hops.push_back(
          transits[static_cast<std::size_t>(
                       (prefix.transit_base + 5 +
                        7 * (state.variant % 3)) %
                       p.transit_count)]
              .asn);
    }
    hops.push_back(prefix.origin);
    attrs.as_path = AsPath::sequence(hops);
    if (state.prepended) attrs.as_path.prepend(session.key.peer_asn, 2);
    attrs.next_hop = session.key.peer_address;
    attrs.origin = Origin::kIgp;
    if (!session.cleaning) {
      if (transit.tagger) {
        std::uint16_t asn16 =
            static_cast<std::uint16_t>(transit.asn.value() & 0xffff);
        int city = state.tag % transit.city_count;
        attrs.communities.add(Community::of(
            asn16, static_cast<std::uint16_t>(2000 + city)));
        attrs.communities.add(Community::of(
            asn16, static_cast<std::uint16_t>(500 + city / 4)));
        attrs.communities.add(Community::of(
            asn16, static_cast<std::uint16_t>(50 + city / 12)));
      }
      if (prefix.origin_tagged) {
        attrs.communities.add(Community::of(
            static_cast<std::uint16_t>(prefix.origin.value() & 0xffff),
            static_cast<std::uint16_t>(100 + prefix.transit_base % 7)));
      }
    }
    return attrs;
  };

  auto emit = [&](int session_index, int prefix_index, RouteState& state,
                  Timestamp when, bool announcement) {
    const SessionInfo& session =
        sessions[static_cast<std::size_t>(session_index)];
    const PrefixInfo& prefix =
        prefixes[static_cast<std::size_t>(prefix_index)];
    core::UpdateRecord record;
    // Per-stream chronological order even when event times collide.
    if (when <= state.last_emit) {
      when = state.last_emit + Duration::millis(50);
    }
    state.last_emit = when;
    record.time = session.second_granularity
                      ? Timestamp::from_unix_seconds(when.unix_seconds())
                      : when;
    record.session = session.key;
    record.prefix = prefix.prefix;
    record.announcement = announcement;
    if (announcement) {
      record.attrs = attrs_for(session, prefix, state);
      ++stats.announcements;
      if (!record.attrs.communities.empty()) {
        ++stats.with_communities;
        for (Community c : record.attrs.communities) {
          stats.community_values.insert(c.raw());
        }
      }
      std::uint64_t path_hash = 0xcbf29ce484222325ull;
      for (Asn asn : record.attrs.as_path.flatten()) {
        path_hash = hash_combine(path_hash, asn.value());
        stats.ases_seen.insert(asn.value());
      }
      stats.unique_paths.insert(path_hash);
      if (prefix.v6) {
        stats.prefixes_seen_v6.insert(prefix_index);
      } else {
        stats.prefixes_seen_v4.insert(prefix_index);
      }
      state.announced = true;
    } else {
      ++stats.withdrawals;
      state.announced = false;
    }
    sink(record);
  };

  auto get_state = [&](int session_index, int prefix_index) -> RouteState& {
    auto key = std::make_pair(session_index, prefix_index);
    auto it = states.find(key);
    if (it == states.end()) {
      RouteState fresh;
      std::uint64_t h = hash_combine(
          p.seed, static_cast<std::uint64_t>(session_index) * 100003 +
                      static_cast<std::uint64_t>(prefix_index));
      fresh.variant = static_cast<int>(h % 3);
      fresh.tag = static_cast<int>((h >> 8) % 1000);
      it = states.emplace(key, fresh).first;
    }
    return it->second;
  };

  // Event weights.
  double weight_sum = p.path_event_weight + p.comm_event_weight +
                      p.churn_event_weight + p.flap_event_weight +
                      p.prepend_event_weight;
  std::geometric_distribution<int> burst_size(
      1.0 / (1.0 + p.mean_exploration_length));
  std::geometric_distribution<int> fanout(1.0 / 4.0);
  std::int64_t day_micros = Duration::hours(24).count_micros();

  // Generate events until the announcement budget is spent.
  while (stats.announcements < p.announcement_target) {
    // Heavy-tailed prefix popularity: low indices are hot.
    double u = unit(rng);
    int prefix_index =
        static_cast<int>(static_cast<double>(total_prefixes) * u * u * u);
    prefix_index = std::min(prefix_index, total_prefixes - 1);

    Timestamp when =
        p.day_start + Duration::micros(static_cast<std::int64_t>(
                          unit(rng) * static_cast<double>(day_micros)));

    double kind_roll = unit(rng) * weight_sum;
    int session_count = 1 + fanout(rng);
    session_count = std::min(session_count, p.sessions);
    int session_start =
        static_cast<int>(unit(rng) * static_cast<double>(p.sessions));

    for (int s = 0; s < session_count; ++s) {
      int session_index = (session_start + s * 37) % p.sessions;
      const SessionInfo& session =
          sessions[static_cast<std::size_t>(session_index)];
      RouteState& state = get_state(session_index, prefix_index);
      const Transit& transit = transits[static_cast<std::size_t>(
          prefixes[static_cast<std::size_t>(prefix_index)].transit_base)];
      bool visible_tags = transit.tagger && !session.cleaning;

      if (!state.announced) {
        // Baseline announcement so the stream has a predecessor.
        emit(session_index, prefix_index, state, when, true);
        when = when + Duration::millis(200);
      }

      if (kind_roll < p.path_event_weight) {
        // Path switch. The ingress into the tagging transit usually moves
        // with it (new tags -> pc); sometimes only the downstream leg
        // changes (tags persist -> pn even on tagged routes).
        state.variant = (state.variant + 1) % 3;
        if (unit(rng) < 0.95) state.tag += 1 + static_cast<int>(unit(rng) * 5);
        emit(session_index, prefix_index, state, when, true);
        if (unit(rng) < p.exploration_probability) {
          int len = 1 + burst_size(rng);
          for (int b = 0; b < len; ++b) {
            when = when + Duration::millis(80);
            if (visible_tags) {
              state.tag += 1;  // community exploration: nc
              emit(session_index, prefix_index, state, when, true);
            } else if (session.dup_vendor) {
              emit(session_index, prefix_index, state, when, true);  // nn
            }
          }
        }
      } else if (kind_roll < p.path_event_weight + p.comm_event_weight) {
        // Community-only event.
        if (visible_tags) {
          state.tag += 1;
          emit(session_index, prefix_index, state, when, true);  // nc
        } else if (transit.tagger && session.cleaning &&
                   session.dup_vendor) {
          emit(session_index, prefix_index, state, when, true);  // nn (Exp3)
        }
      } else if (kind_roll < p.path_event_weight + p.comm_event_weight +
                                 p.churn_event_weight) {
        // Internal churn: duplicate on duplicate-emitting vendors only.
        if (session.dup_vendor) {
          emit(session_index, prefix_index, state, when, true);  // nn
        }
      } else if (kind_roll < p.path_event_weight + p.comm_event_weight +
                                 p.churn_event_weight +
                                 p.flap_event_weight) {
        // Origin flap: withdraw + identical re-announce.
        emit(session_index, prefix_index, state, when, false);
        when = when + Duration::millis(400);
        emit(session_index, prefix_index, state, when, true);  // nn
      } else {
        // Prepend toggle.
        state.prepended = !state.prepended;
        emit(session_index, prefix_index, state, when, true);  // xn / xc
      }
    }
  }

  // The 2012 artifact: one AS bursts identical updates (Figure 2 footnote).
  if (p.nn_artifact) {
    int session_index = 3 % p.sessions;
    std::uint64_t artifact = p.announcement_target;
    Timestamp when = p.day_start + Duration::hours(11);
    for (std::uint64_t i = 0; i < artifact; ++i) {
      int prefix_index = static_cast<int>(i % 50);
      RouteState& state = get_state(session_index, prefix_index);
      if (!state.announced) {
        emit(session_index, prefix_index, state, when, true);
      }
      when = when + Duration::millis(2);
      emit(session_index, prefix_index, state, when, true);  // nn burst
    }
  }

  return stats;
}

MacroGen::DayResult MacroGen::classify_day() {
  DayResult result;
  core::Classifier classifier;
  result.stats =
      generate_day([&classifier, &result](const core::UpdateRecord& record) {
        result.types.add(classifier.classify(record));
      });
  return result;
}

}  // namespace bgpcc::synth
