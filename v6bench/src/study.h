#pragma once

// The benchmark's workloads and one replay of examples/full_study: the
// same public calls in the same order, with every output streamed
// through OutputCheck instead of to disk.

#include <cstdint>
#include <string>
#include <vector>

#include "core/campaign.h"
#include "digest.h"
#include "scenario/world_builder.h"
#include "trace.h"

namespace v6bench {

/// Everything a study needs; a pure function of (workload, seed).
struct StudyInputs {
  v6mon::scenario::WorldSpec spec;
  v6mon::core::CampaignConfig cfg;
};

/// Workload names, in the order BENCHMARK.json lists them.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Inputs of `workload` at campaign seed `seed` (the world's seed is
/// fixed, see study.cpp). `scale` and `threads` override the
/// workload's own (paper scale 1.0, 4 threads, or the fixed many-VP
/// world, 1 thread) when nonzero; the self-test uses them. Throws
/// std::invalid_argument for an unknown workload.
[[nodiscard]] StudyInputs make_inputs(const std::string& workload, std::uint64_t seed,
                                      double scale = 0.0, std::size_t threads = 0);

/// Wall times of one study, each call timed from outside.
struct StudyTimes {
  double study_s = 0;     ///< WorldSpec to the last output digested.
  double setup_s = 0;     ///< scenario::build_timeline.
  double run_s = 0;       ///< Campaign::run.
  double w6d_s = 0;       ///< Campaign::run_w6d.
  double finalize_s = 0;  ///< Campaign::finalize.
  double analyze_s = 0;   ///< analysis::analyze_world, regular and W6D.
  double tables_s = 0;    ///< Figures, tables, longitudinal and fallback views.
  double export_s = 0;    ///< ResultsDb::write_csv for every store.
  std::uint64_t obs_rows = 0;      ///< Finalized rows, regular plus W6D.
  std::uint64_t export_bytes = 0;  ///< Bytes of the observation dumps.
  /// executor.nodes_stolen summed over the run and W6D graphs; read
  /// only when the metrics registry is enabled.
  std::uint64_t nodes_stolen = 0;
};

/// One full study. With `trace`, every timed call is also a span under
/// one `study` span.
StudyTimes run_study(const StudyInputs& in, OutputCheck& check, Trace* trace);

/// Facts of the layers that the study itself cannot time from outside.
struct LayerPass {
  std::size_t ases = 0;
  std::size_t links = 0;
  std::size_t sites = 0;
  double rib_build_s = 0;  ///< build_ribs on the built world, RIBs cleared.
  std::uint64_t dest_tables = 0;
  std::uint64_t routes = 0;
  double advance_s = 0;  ///< Sum of the advance_world calls.
  std::size_t epochs = 0;
  std::size_t changed_routes = 0;
  std::size_t delta_fallbacks = 0;
  std::size_t delta_recomputes = 0;
  std::vector<double> round_ms;  ///< One sample per (vp, round) run_round.
};

/// Outside any study: builds a fresh timeline, re-runs the RIB build on
/// it (metrics on, for the rib.* counters), then drives a fresh campaign
/// round by round through advance_world and run_round (metrics off).
[[nodiscard]] LayerPass run_layer_pass(const StudyInputs& in, Trace* trace);

}  // namespace v6bench
