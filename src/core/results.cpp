#include "core/results.h"

#include <algorithm>
#include <charconv>
#include <sstream>
#include <string_view>

#include "util/contracts.h"
#include "util/error.h"

namespace v6mon::core {

// --- PathRegistry ----------------------------------------------------------

std::size_t PathRegistry::SpanHash::operator()(const SpanKey& k) const noexcept {
  // FNV-1a over the ASN words, seeded with the length so prefixes of a
  // path hash apart from the path itself.
  std::uint64_t h = 0xcbf29ce484222325ULL ^ k.len;
  for (std::uint32_t i = 0; i < k.len; ++i) {
    h ^= k.data[i];
    h *= 0x100000001b3ULL;
  }
  return static_cast<std::size_t>(h);
}

bool PathRegistry::SpanEq::operator()(const SpanKey& a,
                                      const SpanKey& b) const noexcept {
  if (a.len != b.len) return false;
  return std::equal(a.data, a.data + a.len, b.data);
}

PathId PathRegistry::intern(std::span<const topo::Asn> path) {
  const SpanKey probe{path.data(), static_cast<std::uint32_t>(path.size())};
  util::LockGuard lock(mu_);
  const auto it = index_.find(probe);
  if (it != index_.end()) return it->second;  // hot path: zero allocations
  const PathId id = static_cast<PathId>(paths_.size());
  // Deque storage: elements never move, so the key can point into it.
  std::vector<topo::Asn>& stored = paths_.emplace_back(path.begin(), path.end());
  index_.emplace(SpanKey{stored.data(), probe.len}, id);
  return id;
}

const std::vector<topo::Asn>& PathRegistry::path(PathId id) const {
  util::LockGuard lock(mu_);
  V6MON_REQUIRE(id < paths_.size(), "path id out of range");
  return paths_[id];
}

std::size_t PathRegistry::size() const {
  util::LockGuard lock(mu_);
  return paths_.size();
}

std::string PathRegistry::to_string(PathId id) const {
  if (id == kNoPath) return "-";
  // A reference, not a copy: interned paths live in deque storage and are
  // never modified or moved, so rendering after path() unlocks is safe.
  const std::vector<topo::Asn>& p = path(id);
  if (p.empty()) return "(local)";
  std::string out;
  char num[16];
  for (std::size_t i = 0; i < p.size(); ++i) {
    out += i ? " AS" : "AS";
    out.append(num, std::to_chars(num, num + sizeof num, p[i]).ptr);
  }
  return out;
}

// --- ObservationColumns ------------------------------------------------------

void ObservationColumns::reserve(std::size_t n) {
  site.reserve(n);
  round.reserve(n);
  status.reserve(n);
  v4_speed_kBps.reserve(n);
  v6_speed_kBps.reserve(n);
  v4_samples.reserve(n);
  v6_samples.reserve(n);
  v4_path.reserve(n);
  v6_path.reserve(n);
  v4_origin.reserve(n);
  v6_origin.reserve(n);
}

void ObservationColumns::push_back(const Observation& o) {
  site.push_back(o.site);
  round.push_back(o.round);
  status.push_back(o.status);
  v4_speed_kBps.push_back(o.v4_speed_kBps);
  v6_speed_kBps.push_back(o.v6_speed_kBps);
  v4_samples.push_back(o.v4_samples);
  v6_samples.push_back(o.v6_samples);
  v4_path.push_back(o.v4_path);
  v6_path.push_back(o.v6_path);
  v4_origin.push_back(o.v4_origin);
  v6_origin.push_back(o.v6_origin);
}

Observation ObservationColumns::row(std::size_t i) const {
  Observation o;
  o.site = site[i];
  o.round = round[i];
  o.status = status[i];
  o.v4_speed_kBps = v4_speed_kBps[i];
  o.v6_speed_kBps = v6_speed_kBps[i];
  o.v4_samples = v4_samples[i];
  o.v6_samples = v6_samples[i];
  o.v4_path = v4_path[i];
  o.v6_path = v6_path[i];
  o.v4_origin = v4_origin[i];
  o.v6_origin = v6_origin[i];
  return o;
}

// --- ResultsDb ---------------------------------------------------------------

void ResultsDb::add(const Observation& obs) {
  V6MON_REQUIRE(!finalized_, "add() after finalize()");
  rows_.push_back(obs);
}

RoundCounters& ResultsDb::round_slot(std::uint32_t round) {
  if (round >= rounds_.size()) rounds_.resize(round + 1);
  return rounds_[round];
}

void ResultsDb::count(std::uint32_t round, MonitorStatus status, std::uint64_t n) {
  RoundCounters& c = round_slot(round);
  switch (status) {
    case MonitorStatus::kDnsFailed: c.dns_failed += n; break;
    case MonitorStatus::kV4Only: c.v4_only += n; break;
    case MonitorStatus::kV6Only: c.v6_only += n; break;
    case MonitorStatus::kV4DownloadFailed:
    case MonitorStatus::kV6DownloadFailed:
      c.dual += n;
      c.download_failed += n;
      break;
    case MonitorStatus::kDifferentContent:
      c.dual += n;
      c.different_content += n;
      break;
    case MonitorStatus::kMeasured:
      c.dual += n;
      c.measured += n;
      break;
  }
}

void ResultsDb::count_listed(std::uint32_t round, std::uint64_t n) {
  round_slot(round).listed += n;
}

SiteSeries ResultsDb::series(std::uint32_t site) const {
  V6MON_REQUIRE(finalized_, "series() requires a finalized ResultsDb");
  if (site >= site_index_.size()) return {};
  const SiteRef ref = site_index_[site];
  if (ref.count == 0) return {};
  return SiteSeries(&cols_, ref.offset, ref.count);
}

const RoundCounters& ResultsDb::round_counters(std::uint32_t round) const {
  static const RoundCounters kEmpty{};
  if (round >= rounds_.size()) return kEmpty;
  return rounds_[round];
}

void ResultsDb::finalize() {
  if (finalized_) return;
  finalized_ = true;
  if (rows_.empty()) return;

  // Group by site with a counting sort, which keeps add order within
  // each site's run: count, prefix-sum into offsets, scatter.
  std::uint32_t max_site = 0;
  for (const Observation& o : rows_) max_site = std::max(max_site, o.site);
  site_index_.resize(max_site + std::size_t{1});
  for (const Observation& o : rows_) ++site_index_[o.site].count;
  std::uint32_t offset = 0;
  for (std::uint32_t site = 0; site <= max_site; ++site) {
    SiteRef& ref = site_index_[site];
    if (ref.count == 0) continue;
    ref.offset = offset;
    offset += ref.count;
    site_ids_.push_back(site);
  }
  std::vector<Observation> grouped(rows_.size());
  for (const Observation& o : rows_) grouped[site_index_[o.site].offset++] = o;
  std::deque<Observation>().swap(rows_);  // free it before the columns grow

  cols_.reserve(grouped.size());
  for (const std::uint32_t site : site_ids_) {
    SiteRef& ref = site_index_[site];
    ref.offset -= ref.count;  // the scatter advanced it past the run
    const auto run = grouped.begin() + ref.offset;
    // Sort each site's series by round with the sort the golden digests
    // were recorded under. A site's equal-round W6D mini-rounds (twelve by
    // default) fall inside its 16-element insertion-sort cutoff, so they
    // keep their add order.
    std::sort(run, run + ref.count,
              [](const Observation& a, const Observation& b) { return a.round < b.round; });
    for (auto it = run; it != run + ref.count; ++it) cols_.push_back(*it);
  }
}

namespace {

/// Rows are appended here and handed to the stream in chunks of about
/// this many bytes: one write per chunk, never a whole dump in memory.
constexpr std::size_t kCsvChunkBytes = 64 * 1024;

/// Longest text of each fixed-width CSV field.
constexpr std::size_t kU32Chars = 10;    ///< 4294967295
constexpr std::size_t kU16Chars = 5;     ///< 65535
constexpr std::size_t kFloatChars = 12;  ///< `%.6g`, e.g. -1.17549e-38
constexpr std::size_t kStatusChars = 18; ///< v4-download-failed

constexpr bool status_names_fit() {
  for (auto s = static_cast<std::uint8_t>(MonitorStatus::kDnsFailed);
       s <= static_cast<std::uint8_t>(MonitorStatus::kMeasured); ++s) {
    const std::string_view name = monitor_status_name(static_cast<MonitorStatus>(s));
    if (name.size() > kStatusChars) return false;
  }
  return true;
}
static_assert(status_names_fit(), "a status name outgrew its CSV window");

/// Streams observation rows as CSV text. Numbers go through
/// std::to_chars (speeds as `%.6g` in the C locale, which is what a
/// default-state `ostream << float` prints), so the bytes never depend on
/// the destination stream's flags or locale. Path text is rendered at most
/// once per id per dump.
class ObservationCsvWriter {
 public:
  ObservationCsvWriter(std::ostream& out, const PathRegistry& paths)
      : out_(out), paths_(paths), path_text_(paths.size()) {
    buf_.reserve(kCsvChunkBytes + 512);
    buf_ +=
        "site,round,status,v4_speed_kBps,v6_speed_kBps,v4_samples,v6_samples,"
        "v4_origin,v6_origin,v4_path,v6_path\n";
  }

  void row(const ObservationColumns& c, std::size_t i) {
    // Every field is formatted into a window of its own longest text, so
    // the compiler can bound each write (and no window can overflow).
    char line[4 * kU32Chars + 2 * kU16Chars + kStatusChars + 2 * kFloatChars + 9];
    constexpr auto kGeneral = std::chars_format::general;
    char* p = line;
    p = std::to_chars(p, p + kU32Chars, c.site[i]).ptr;
    *p++ = ',';
    p = std::to_chars(p, p + kU32Chars, c.round[i]).ptr;
    *p++ = ',';
    const std::string_view status = monitor_status_name(c.status[i]);
    p = std::copy_n(status.data(), std::min(status.size(), kStatusChars), p);
    *p++ = ',';
    p = std::to_chars(p, p + kFloatChars, c.v4_speed_kBps[i], kGeneral, 6).ptr;
    *p++ = ',';
    p = std::to_chars(p, p + kFloatChars, c.v6_speed_kBps[i], kGeneral, 6).ptr;
    *p++ = ',';
    p = std::to_chars(p, p + kU16Chars, c.v4_samples[i]).ptr;
    *p++ = ',';
    p = std::to_chars(p, p + kU16Chars, c.v6_samples[i]).ptr;
    *p++ = ',';
    if (c.v4_origin[i] != topo::kNoAs) p = std::to_chars(p, p + kU32Chars, c.v4_origin[i]).ptr;
    *p++ = ',';
    if (c.v6_origin[i] != topo::kNoAs) p = std::to_chars(p, p + kU32Chars, c.v6_origin[i]).ptr;
    *p++ = ',';
    buf_.append(line, p);
    append_path(c.v4_path[i]);
    buf_ += ',';
    append_path(c.v6_path[i]);
    buf_ += '\n';
    if (buf_.size() >= kCsvChunkBytes) write_chunk();
  }

  /// Hand over the last partial chunk and flush the stream.
  void finish() {
    write_chunk();
    out_.flush();
    check_stream();
  }

 private:
  void append_path(PathId id) {
    if (id == kNoPath) {
      buf_ += '-';
      return;
    }
    V6MON_REQUIRE(id < path_text_.size(), "path id out of range");
    std::string& text = path_text_[id];
    if (text.empty()) text = paths_.to_string(id);  // never empty once rendered
    buf_ += text;
  }

  void write_chunk() {
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    buf_.clear();
    check_stream();
  }

  /// A dump that hit a full disk or bad streambuf must surface at once —
  /// a silently truncated CSV is indistinguishable from a small campaign,
  /// and formatting the rest of a dump nobody receives is wasted work.
  void check_stream() const {
    if (out_.fail()) throw IoError("observation CSV write failed (stream in fail state)");
  }

  std::ostream& out_;
  const PathRegistry& paths_;
  std::vector<std::string> path_text_;  ///< Indexed by PathId; "" = not yet rendered.
  std::string buf_;
};

}  // namespace

void ResultsDb::write_csv(std::ostream& out) const {
  V6MON_REQUIRE(finalized_, "write_csv() requires a finalized ResultsDb");
  // Columns are site-major and round-sorted: stream straight through.
  ObservationCsvWriter writer(out, paths_);
  for (std::size_t i = 0; i < cols_.size(); ++i) writer.row(cols_, i);
  writer.finish();
}

std::string ResultsDb::to_csv() const {
  std::ostringstream out;
  write_csv(out);
  return out.str();
}

}  // namespace v6mon::core
