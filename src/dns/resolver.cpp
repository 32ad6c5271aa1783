#include "dns/resolver.h"

#include "obs/metrics.h"

namespace v6mon::dns {

namespace {

/// Campaign-wide mirrors of the per-Resolver Stats counters. Each event
/// fires once per (site, round) RNG stream, so totals are deterministic
/// in thread count.
struct DnsMetricIds {
  obs::MetricId queries = obs::metrics().counter("dns.queries");
  obs::MetricId timeouts = obs::metrics().counter("dns.timeouts");
  obs::MetricId nxdomain = obs::metrics().counter("dns.nxdomain");
};

const DnsMetricIds& dns_metric_ids() {
  static const DnsMetricIds ids;
  return ids;
}

}  // namespace

Resolver::Resolver(const AuthoritativeSource& source, Options options,
                   util::LazyRng rng)
    : source_(source), options_(options), rng_(std::move(rng)) {}

QueryResult Resolver::resolve(std::string_view name, RecordType type,
                              std::uint32_t round) {
  ++stats_.queries;
  obs::metrics().add(dns_metric_ids().queries);

  if (options_.timeout_prob > 0.0 && rng_.get().chance(options_.timeout_prob)) {
    ++stats_.timeouts;
    obs::metrics().add(dns_metric_ids().timeouts);
    QueryResult r;
    r.rcode = Rcode::kTimeout;
    return r;
  }

  QueryResult r;
  bool exists = true;
  r.records = source_.query(name, type, round, exists);
  if (!exists) {
    r.rcode = Rcode::kNxDomain;
    ++stats_.nxdomain;
    obs::metrics().add(dns_metric_ids().nxdomain);
  }
  return r;
}

}  // namespace v6mon::dns
