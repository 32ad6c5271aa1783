#pragma once

#include <optional>

#include "ip/allocator.h"
#include "ip/trie.h"
#include "topo/as_graph.h"
#include "util/rng.h"

namespace v6mon::topo {

/// Address-plan knobs. Defaults leave room for ~4k ASes.
struct AddressPlanParams {
  ip::Ipv4Prefix v4_pool = ip::Ipv4Prefix::parse_or_throw("16.0.0.0/4");
  unsigned v4_as_prefix_len = 16;
  ip::Ipv6Prefix v6_pool = ip::Ipv6Prefix::parse_or_throw("2001::/16");
  unsigned v6_as_prefix_len = 32;
  /// Fraction of IPv6 stub ASes that announce a 6to4-derived 2002::/48
  /// instead of a native allocation (RFC 3056) — these are the "island"
  /// candidates the tunnel overlay serves.
  double six_to_four_fraction = 0.03;
};

/// Assign every AS one IPv4 block, and every IPv6-enabled AS one IPv6
/// block (native 2001-space or 6to4-derived 2002-space).
void assign_addresses(AsGraph& graph, const AddressPlanParams& params,
                      util::Rng& rng);

/// Prefix-to-origin-AS maps, the ground truth a BGP RIB converges to.
/// Built once after `assign_addresses`.
class OriginMap {
 public:
  static OriginMap build(const AsGraph& graph);
  /// Re-derive the IPv6 origin of `prefix` from `graph` after an epoch
  /// announced or withdrew it: lookups then answer as build(graph)'s do.
  void refresh_v6(const AsGraph& graph, const ip::Ipv6Prefix& prefix);

  [[nodiscard]] std::optional<Asn> origin_v4(const ip::Ipv4Address& a) const;
  [[nodiscard]] std::optional<Asn> origin_v6(const ip::Ipv6Address& a) const;

  [[nodiscard]] std::size_t v4_prefixes() const { return v4_.size(); }
  [[nodiscard]] std::size_t v6_prefixes() const { return v6_.size(); }

 private:
  ip::PrefixTrie<ip::Ipv4Address, Asn> v4_;
  ip::PrefixTrie<ip::Ipv6Address, Asn> v6_;
};

}  // namespace v6mon::topo
