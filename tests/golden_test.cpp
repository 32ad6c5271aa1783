// Golden outputs: absolute pins of everything examples/full_study emits.
//
// The determinism matrices elsewhere only prove that one configuration
// matches another (thread counts, incremental x rebuild). This test
// pins the outputs themselves: it replays full_study's call sequence in
// process at two small configurations and compares a digest of every
// output against the files committed under tests/golden/.
//
//   frozen.digest         scale 0.05, frozen world, default fallback
//   evolving_race.digest  scale 0.05, evolution.enabled, FallbackPolicy::kRace
//
// Digest: FNV-1a 64 (offset basis 0xcbf29ce484222325, prime
// 0x100000001b3) over the output's bytes, printed as 16 lowercase hex
// digits, followed by the byte count. One line per output,
// `<output> <digest> <bytes>`, sorted by output name. Outputs: every
// figure/table CSV, each vantage point's regular and W6D observation CSV,
// fallback.csv and longitudinal_<VP>.csv where full_study writes them,
// and counters.json — MetricsRegistry::counters_json() with its
// zero-valued entries dropped, so it pins every counter that measured
// something but not the pre-registered key set.
//
// Every run writes what it produced to golden_actual/<config>.digest in
// the working directory. tools/regen_golden.sh copies those files over
// the committed ones; it is the only sanctioned way to change them.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/fallback_view.h"
#include "analysis/longitudinal.h"
#include "analysis/tables.h"
#include "core/campaign.h"
#include "core/world_timeline.h"
#include "obs/metrics.h"
#include "scenario/evolution.h"
#include "scenario/paper.h"

namespace v6mon {
namespace {

constexpr std::uint64_t kSeed = 2011;
constexpr double kScale = 0.05;

/// Output name -> bytes.
using Outputs = std::map<std::string, std::string>;

std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// counters_json() minus its `"name":0` entries.
std::string nonzero_counters(const std::string& json) {
  const std::string head = "{\"counters\":{";
  const std::string tail = "}}";
  EXPECT_EQ(json.compare(0, head.size(), head), 0) << json;
  const std::string body = json.substr(head.size(), json.size() - head.size() - tail.size());
  std::string out = head;
  bool first = true;
  std::istringstream entries(body);
  std::string entry;
  while (std::getline(entries, entry, ',')) {
    if (entry.size() >= 2 && entry.compare(entry.size() - 2, 2, ":0") == 0) continue;
    if (!first) out += ',';
    out += entry;
    first = false;
  }
  return out + tail;
}

/// examples/full_study's calls, in its order, at (kSeed, kScale), with
/// metrics on (as `full_study --metrics`). Outputs are kept in memory.
Outputs run_full_study(bool evolving) {
  auto& metrics = obs::metrics();
  metrics.reset();
  metrics.set_enabled(true);

  scenario::WorldSpec world_spec = scenario::paper_spec(kSeed, kScale);
  world_spec.evolution.enabled = evolving;
  core::WorldTimeline timeline = scenario::build_timeline(world_spec);
  const core::World& world = timeline.world();
  EXPECT_EQ(timeline.empty(), !evolving);

  core::CampaignConfig cfg = scenario::paper_campaign_config(kSeed);
  if (evolving) cfg.monitor.fallback = core::FallbackPolicy::kRace;
  core::Campaign campaign(timeline, cfg);
  campaign.run();
  campaign.run_w6d();
  campaign.finalize();

  Outputs out;
  std::vector<core::ObservationView> views, w6d_views;
  for (std::size_t i = 0; i < world.vantage_points.size(); ++i) {
    const std::string& name = world.vantage_points[i].name;
    views.emplace_back(campaign.results(i));
    w6d_views.emplace_back(campaign.w6d_results(i));
    out["observations_" + name + ".csv"] = campaign.results(i).to_csv();
    out["observations_" + name + "_w6d.csv"] = campaign.w6d_results(i).to_csv();
  }
  const auto reports = analysis::analyze_world(world, views);
  auto w6d_reports = analysis::analyze_world(world, w6d_views);
  std::erase_if(w6d_reports,
                [](const analysis::VpReport& r) { return r.name == "Comcast"; });

  out["fig1.csv"] =
      analysis::fig1_table(analysis::fig1_series(world.catalog, world.num_rounds)).to_csv();
  out["fig3a.csv"] =
      analysis::fig3a_table(analysis::fig3a_buckets(world.catalog, world.num_rounds))
          .to_csv();
  for (const auto& r : reports) {
    if (r.name == "Penn") {
      out["fig3b.csv"] =
          analysis::fig3b_table(analysis::fig3b_sample_bias(r, world.catalog)).to_csv();
    }
  }
  out["table2.csv"] = analysis::table2_render(analysis::table2_profiles(reports)).to_csv();
  out["table3.csv"] =
      analysis::table3_render(analysis::table3_sanitization(reports)).to_csv();
  out["table4.csv"] =
      analysis::table4_render(analysis::table4_classification(reports)).to_csv();
  out["table5.csv"] =
      analysis::table5_render(analysis::table5_removed_bias(reports)).to_csv();
  out["table6.csv"] = analysis::table6_render(analysis::table6_dl_perf(reports)).to_csv();
  out["table7.csv"] =
      analysis::hopcount_render(analysis::table7_hopcount_dldp(reports)).to_csv();
  out["table8.csv"] = analysis::table8_render(analysis::table8_sp(reports)).to_csv();
  out["table9.csv"] =
      analysis::hopcount_render(analysis::table9_hopcount_sp(reports)).to_csv();
  out["table10.csv"] = analysis::table10_render(analysis::table8_sp(w6d_reports)).to_csv();
  out["table11.csv"] = analysis::table11_render(analysis::table11_dp(reports)).to_csv();
  out["table12.csv"] =
      analysis::table12_render(analysis::table11_dp(w6d_reports)).to_csv();
  out["table13.csv"] =
      analysis::table13_render(analysis::table13_good_as(reports)).to_csv();
  if (cfg.monitor.fallback != core::FallbackPolicy::kNone) {
    out["fallback.csv"] =
        analysis::fallback_table(analysis::fallback_reports(campaign)).to_csv();
  }
  if (!timeline.empty()) {
    std::vector<std::uint32_t> boundaries;
    for (const core::EpochStats& s : timeline.epoch_stats()) boundaries.push_back(s.round);
    for (std::size_t i = 0; i < world.vantage_points.size(); ++i) {
      out["longitudinal_" + world.vantage_points[i].name + ".csv"] =
          analysis::longitudinal_view(views[i], boundaries).table().to_csv();
    }
  }
  out["counters.json"] = nonzero_counters(metrics.counters_json());

  metrics.set_enabled(false);
  metrics.reset();
  return out;
}

std::string digest_file(const Outputs& outputs) {
  std::string text;
  for (const auto& [name, bytes] : outputs) {
    char line[64];
    std::snprintf(line, sizeof line, " %016" PRIx64 " %zu\n", fnv1a64(bytes), bytes.size());
    text += name + line;
  }
  return text;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void expect_golden(const std::string& config, const Outputs& outputs) {
  const std::string actual = digest_file(outputs);
  std::filesystem::create_directories("golden_actual");
  std::ofstream("golden_actual/" + config + ".digest", std::ios::binary) << actual;

  const std::filesystem::path committed =
      std::filesystem::path(V6MON_GOLDEN_DIR) / (config + ".digest");
  ASSERT_TRUE(std::filesystem::exists(committed)) << committed;
  EXPECT_EQ(read_file(committed), actual)
      << "outputs differ from " << committed
      << "; if the change is intended, run tools/regen_golden.sh and record it in "
         "CHANGES.md";
}

TEST(Golden, Fnv1a64MatchesPublishedVectors) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ULL);
}

TEST(Golden, NonzeroCountersDropsOnlyZeros) {
  EXPECT_EQ(nonzero_counters("{\"counters\":{\"a\":0,\"b\":10,\"c\":0,\"d\":7}}"),
            "{\"counters\":{\"b\":10,\"d\":7}}");
  EXPECT_EQ(nonzero_counters("{\"counters\":{\"a\":0}}"), "{\"counters\":{}}");
}

TEST(Golden, FrozenWorldOutputs) {
  const Outputs outputs = run_full_study(/*evolving=*/false);
  EXPECT_EQ(outputs.count("fallback.csv"), 0u);
  expect_golden("frozen", outputs);
}

TEST(Golden, EvolvingWorldRaceFallbackOutputs) {
  const Outputs outputs = run_full_study(/*evolving=*/true);
  EXPECT_EQ(outputs.count("fallback.csv"), 1u);
  expect_golden("evolving_race", outputs);
}

}  // namespace
}  // namespace v6mon
