#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "dns/record.h"
#include "dns/zone.h"
#include "util/rng.h"

namespace v6mon::dns {

/// Result of a resolution attempt.
struct QueryResult {
  Rcode rcode = Rcode::kOk;
  std::vector<ResourceRecord> records;

  [[nodiscard]] bool ok() const { return rcode == Rcode::kOk; }
  [[nodiscard]] bool has_answers() const { return ok() && !records.empty(); }
};

/// Stub resolver used by the monitor. Every query goes to the
/// authoritative source: campaign rounds are days apart, so any sane TTL
/// has expired and the paper's monitor issues fresh queries every round.
/// `timeout_prob` injects query loss.
class Resolver {
 public:
  struct Options {
    double timeout_prob = 0.0;
  };

  struct Stats {
    std::uint64_t queries = 0;
    std::uint64_t timeouts = 0;
    std::uint64_t nxdomain = 0;
  };

  /// `rng` drives timeout injection only; it is LazyRng so that the
  /// common timeout_prob == 0 configuration never pays the engine
  /// seeding (an eager util::Rng converts implicitly, engine state
  /// preserved).
  Resolver(const AuthoritativeSource& source, Options options, util::LazyRng rng);

  /// Resolve `name`/`type` as of measurement round `round`.
  QueryResult resolve(std::string_view name, RecordType type, std::uint32_t round);

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  const AuthoritativeSource& source_;
  Options options_;
  util::LazyRng rng_;
  Stats stats_;
};

}  // namespace v6mon::dns
