#include "topo/address_plan.h"

namespace v6mon::topo {

void assign_addresses(AsGraph& graph, const AddressPlanParams& params,
                      util::Rng& rng) {
  ip::Ipv4Allocator v4_alloc(params.v4_pool, params.v4_as_prefix_len);
  ip::Ipv6Allocator v6_alloc(params.v6_pool, params.v6_as_prefix_len);
  util::Rng r = rng.child("address-plan");

  for (std::size_t i = 0; i < graph.num_ases(); ++i) {
    AsNode& n = graph.node(static_cast<Asn>(i));
    n.v4_prefixes.push_back(v4_alloc.allocate());
    if (!n.has_v6) continue;
    const bool six_to_four =
        n.tier == Tier::kStub && r.chance(params.six_to_four_fraction);
    if (six_to_four) {
      // 2002:<v4-block>::/48 derived from the AS's IPv4 space (RFC 3056).
      const ip::Ipv6Address base =
          ip::Ipv6Address::from_6to4(n.v4_prefixes.front().network());
      n.v6_prefixes.push_back(ip::Ipv6Prefix(base, 48));
    } else {
      n.v6_prefixes.push_back(v6_alloc.allocate());
    }
  }
}

OriginMap OriginMap::build(const AsGraph& graph) {
  OriginMap m;
  for (std::size_t i = 0; i < graph.num_ases(); ++i) {
    const AsNode& n = graph.node(static_cast<Asn>(i));
    for (const auto& p : n.v4_prefixes) m.v4_.insert(p, n.asn);
    for (const auto& p : n.v6_prefixes) m.v6_.insert(p, n.asn);
  }
  return m;
}

void OriginMap::refresh_v6(const AsGraph& graph, const ip::Ipv6Prefix& prefix) {
  // build() lets the last announcer in ASN order win a shared prefix.
  std::optional<Asn> origin;
  for (std::size_t i = 0; i < graph.num_ases(); ++i) {
    const AsNode& n = graph.node(static_cast<Asn>(i));
    for (const auto& p : n.v6_prefixes) {
      if (p == prefix) origin = n.asn;
    }
  }
  if (origin.has_value()) {
    v6_.insert(prefix, *origin);
  } else {
    v6_.erase(prefix);
  }
}

std::optional<Asn> OriginMap::origin_v4(const ip::Ipv4Address& a) const {
  const Asn* asn = v4_.lookup(a);
  if (asn == nullptr) return std::nullopt;
  return *asn;
}

std::optional<Asn> OriginMap::origin_v6(const ip::Ipv6Address& a) const {
  const Asn* asn = v6_.lookup(a);
  if (asn == nullptr) return std::nullopt;
  return *asn;
}

}  // namespace v6mon::topo
