#include "study.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>

#include "analysis/fallback_view.h"
#include "analysis/longitudinal.h"
#include "analysis/report.h"
#include "analysis/tables.h"
#include "bgp/rib.h"
#include "core/world_timeline.h"
#include "obs/metrics.h"
#include "scenario/evolution.h"
#include "scenario/paper.h"

namespace v6bench {

using namespace v6mon;

namespace {

/// The paper workloads run at most this many campaign and build threads
/// (the core count of the host the baseline was recorded on).
constexpr std::size_t kPaperThreads = 4;

std::size_t paper_threads() {
  const std::size_t hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, kPaperThreads);
}

/// Every workload builds its world from this seed; the run's seed is the
/// campaign's, which drives all measurement randomness. Reseeding the
/// world changes how many sites are dual-stack, and with them the
/// monitored work: by about +-10% at paper scale (279k to 339k monitored
/// rows) and by up to a third on the small many-VP catalog. That would
/// swamp any change under test.
constexpr std::uint64_t kWorldSeed = 2011;

/// bench_pipeline's BM_CampaignMultiVp world, widened to 16 vantage
/// points and 480 rounds: many small (vp, round) blocks, so scheduling,
/// ingest, per-VP analysis and export dominate and the world build and
/// catalog scan are negligible.
scenario::WorldSpec many_vps_spec() {
  scenario::WorldSpec spec;
  spec.seed = kWorldSeed;
  spec.topology.num_tier1 = 4;
  spec.topology.num_transit = 30;
  spec.topology.num_stub = 150;
  spec.catalog.initial_sites = 250;
  spec.catalog.churn_per_round = 5;
  spec.catalog.num_rounds = 480;
  spec.w6d_round = 240;
  const scenario::V6UplinkMode modes[] = {
      scenario::V6UplinkMode::kSameProviders,
      scenario::V6UplinkMode::kSubsetProviders,
      scenario::V6UplinkMode::kSeparateProvider};
  const topo::Region regions[] = {topo::Region::kNorthAmerica,
                                  topo::Region::kEurope, topo::Region::kAsia};
  for (int i = 0; i < 16; ++i) {
    spec.vantage_points.push_back(
        {.name = "VP-" + std::to_string(i),
         .type = i % 2 == 0 ? core::VantagePoint::Type::kAcademic
                            : core::VantagePoint::Type::kCommercial,
         .region = regions[i % 3],
         .start_round = static_cast<std::uint32_t>(i % 4),
         .has_as_path = true,
         .whitelisted = false,
         .uses_dns_cache_supplement = i % 4 == 0,
         .num_v4_providers = 1 + i % 2,
         .v6_mode = modes[i % 3]});
  }
  return spec;
}

void emit_table(OutputCheck& check, const std::string& name,
                const util::TextTable& table) {
  check.emit(name, [&](std::ostream& out) { out << table.to_csv(); });
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "paper_frozen", "paper_evolving_race", "many_vps_serial"};
  return names;
}

StudyInputs make_inputs(const std::string& workload, std::uint64_t seed, double scale,
                        std::size_t threads) {
  StudyInputs in;
  if (workload == "paper_frozen" || workload == "paper_evolving_race") {
    in.spec = scenario::paper_spec(kWorldSeed, scale > 0 ? scale : 1.0);
    in.cfg = scenario::paper_campaign_config(seed);
    in.cfg.threads = threads > 0 ? threads : paper_threads();
    if (workload == "paper_evolving_race") {
      in.spec.evolution.enabled = true;
      in.cfg.monitor.fallback = core::FallbackPolicy::kRace;
    }
  } else if (workload == "many_vps_serial") {
    in.spec = many_vps_spec();
    in.cfg = scenario::paper_campaign_config(seed);
    in.cfg.threads = threads > 0 ? threads : 1;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  in.spec.build_threads = in.cfg.threads;
  return in;
}

StudyTimes run_study(const StudyInputs& in, OutputCheck& check, Trace* trace) {
  StudyTimes t;
  obs::MetricsRegistry& metrics = obs::metrics();
  // executor.nodes_stolen is a gauge each Executor::run overwrites; read
  // it after every graph and clear it so a skipped graph adds nothing.
  const auto take_stolen = [&] {
    if (!metrics.enabled()) return;
    const std::string json = metrics.to_json();
    const std::string key = "\"executor.nodes_stolen\": ";
    const std::size_t at = json.find(key);
    if (at != std::string::npos) {
      t.nodes_stolen += std::stoull(json.substr(at + key.size()));
    }
    metrics.set_gauge("executor.nodes_stolen", 0);
  };

  Timed study(trace, "study");

  Timed world_span(trace, "world");
  core::WorldTimeline timeline = scenario::build_timeline(in.spec);
  const core::World& world = timeline.world();
  t.setup_s = world_span.stop();

  core::Campaign campaign(timeline, in.cfg);
  Timed run_span(trace, "campaign.run");
  campaign.run();
  t.run_s = run_span.stop();
  take_stolen();

  Timed w6d_span(trace, "campaign.w6d");
  campaign.run_w6d();
  t.w6d_s = w6d_span.stop();
  take_stolen();

  Timed finalize_span(trace, "campaign.finalize");
  campaign.finalize();
  t.finalize_s = finalize_span.stop();

  Timed analyze_span(trace, "analysis.analyze");
  std::vector<core::ObservationView> views, w6d_views;
  for (std::size_t i = 0; i < world.vantage_points.size(); ++i) {
    views.emplace_back(campaign.results(i));
    w6d_views.emplace_back(campaign.w6d_results(i));
  }
  const auto reports = analysis::analyze_world(world, views);
  auto w6d_reports = analysis::analyze_world(world, w6d_views);
  // The paper's W6D tables exclude Comcast (no event data there).
  std::erase_if(w6d_reports,
                [](const analysis::VpReport& r) { return r.name == "Comcast"; });
  t.analyze_s = analyze_span.stop();

  Timed tables_span(trace, "analysis.tables");
  emit_table(check, "fig1.csv",
             analysis::fig1_table(analysis::fig1_series(world.catalog, world.num_rounds)));
  emit_table(check, "fig3a.csv",
             analysis::fig3a_table(analysis::fig3a_buckets(world.catalog, world.num_rounds)));
  for (const auto& r : reports) {
    if (r.name == "Penn") {
      emit_table(check, "fig3b.csv",
                 analysis::fig3b_table(analysis::fig3b_sample_bias(r, world.catalog)));
    }
  }
  emit_table(check, "table2.csv", analysis::table2_render(analysis::table2_profiles(reports)));
  emit_table(check, "table3.csv",
             analysis::table3_render(analysis::table3_sanitization(reports)));
  emit_table(check, "table4.csv",
             analysis::table4_render(analysis::table4_classification(reports)));
  emit_table(check, "table5.csv",
             analysis::table5_render(analysis::table5_removed_bias(reports)));
  emit_table(check, "table6.csv", analysis::table6_render(analysis::table6_dl_perf(reports)));
  emit_table(check, "table7.csv",
             analysis::hopcount_render(analysis::table7_hopcount_dldp(reports)));
  emit_table(check, "table8.csv", analysis::table8_render(analysis::table8_sp(reports)));
  emit_table(check, "table9.csv",
             analysis::hopcount_render(analysis::table9_hopcount_sp(reports)));
  emit_table(check, "table10.csv", analysis::table10_render(analysis::table8_sp(w6d_reports)));
  emit_table(check, "table11.csv", analysis::table11_render(analysis::table11_dp(reports)));
  emit_table(check, "table12.csv",
             analysis::table12_render(analysis::table11_dp(w6d_reports)));
  emit_table(check, "table13.csv",
             analysis::table13_render(analysis::table13_good_as(reports)));
  if (in.cfg.monitor.fallback != core::FallbackPolicy::kNone) {
    emit_table(check, "fallback.csv",
               analysis::fallback_table(analysis::fallback_reports(campaign)));
  }
  if (!timeline.empty()) {
    std::vector<std::uint32_t> boundaries;
    for (const core::EpochStats& s : timeline.epoch_stats()) boundaries.push_back(s.round);
    for (std::size_t i = 0; i < world.vantage_points.size(); ++i) {
      emit_table(check, "longitudinal_" + world.vantage_points[i].name + ".csv",
                 analysis::longitudinal_view(views[i], boundaries).table());
    }
  }
  t.tables_s = tables_span.stop();

  Timed export_span(trace, "export.obs_csv");
  const auto dump = [&](const core::ResultsDb& db, const std::string& name) {
    std::uint64_t lines = 0;
    t.export_bytes += check.emit("observations_" + name + ".csv",
                                 [&](std::ostream& out) { db.write_csv(out); }, &lines);
    t.obs_rows += lines > 0 ? lines - 1 : 0;  // minus the header line
  };
  for (std::size_t i = 0; i < world.vantage_points.size(); ++i) {
    dump(campaign.results(i), world.vantage_points[i].name);
    dump(campaign.w6d_results(i), world.vantage_points[i].name + "_w6d");
  }
  t.export_s = export_span.stop();

  t.study_s = study.stop();
  return t;
}

LayerPass run_layer_pass(const StudyInputs& in, Trace* trace) {
  LayerPass p;
  obs::MetricsRegistry& metrics = obs::metrics();

  Timed world_span(trace, "layers.world");
  core::WorldTimeline timeline = scenario::build_timeline(in.spec);
  world_span.stop();
  core::World& world = timeline.world();
  p.ases = world.graph.num_ases();
  p.links = world.graph.num_links();
  p.sites = world.catalog.size();

  // As bench_pipeline's BM_RibBuild: the convergence and RIB insertion
  // again on the built world. The rebuilt RIBs equal the cleared ones.
  for (core::VantagePoint& vp : world.vantage_points) vp.rib = bgp::Rib();
  metrics.reset();
  metrics.set_enabled(true);
  {
    Timed rib_span(trace, "bgp.rib_build");
    scenario::build_ribs(world, in.spec.build_threads);
    p.rib_build_s = rib_span.stop();
  }
  metrics.set_enabled(false);
  p.dest_tables = metrics.counter_value("rib.dest_tables");
  p.routes = metrics.counter_value("rib.routes");
  metrics.reset();

  // The campaign again, one round at a time: the per-(vp, round) time
  // distribution the executor graph hides inside Campaign::run.
  Timed rounds_span(trace, "campaign.rounds");
  core::Campaign campaign(timeline, in.cfg);
  for (std::uint32_t round = 0; round <= world.num_rounds; ++round) {
    if (!timeline.empty()) {  // a frozen world has nothing to advance
      const std::uint64_t a0 = now_ns();
      campaign.advance_world(round);
      p.advance_s += static_cast<double>(now_ns() - a0) * 1e-9;
    }
    for (std::size_t vp = 0; vp < world.vantage_points.size(); ++vp) {
      if (round < world.vantage_points[vp].start_round) continue;
      const std::uint64_t r0 = now_ns();
      campaign.run_round(vp, round);
      p.round_ms.push_back(static_cast<double>(now_ns() - r0) * 1e-6);
    }
  }
  rounds_span.stop();

  for (const core::EpochStats& s : timeline.epoch_stats()) {
    ++p.epochs;
    p.changed_routes += s.changed_routes;
    p.delta_fallbacks += s.fallbacks;
    p.delta_recomputes += s.delta_recomputes;
  }
  return p;
}

}  // namespace v6bench
