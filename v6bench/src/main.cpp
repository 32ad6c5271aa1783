// v6bench: the end-to-end study benchmark.
//
//   v6bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//           [--digests FILE] [--trace-out FILE] [--git-head SHA]
//   v6bench --regenerate --workload NAME --seed N [--digests FILE]
//   v6bench --selftest
//
// A run replays examples/full_study's calls (study.h) again and again for
// --seconds seconds after one untimed warm-up study, checks every output
// of every study against the committed digests, and prints each metric
// by name and unit. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 reports the per-layer metrics: it alternates untraced and
// traced studies (metrics registry on, spans recorded), then runs
// the layer pass (study.h) once outside any study, and writes the spans
// as Chrome trace-event JSON to --trace-out.
//
// The input seed is --seed itself when digests are committed for it;
// any other --seed selects one of the committed pool seeds
// (kSeedPool[seed % 8]), so every run is checked against digests.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "digest.h"
#include "obs/metrics.h"
#include "study.h"
#include "trace.h"
#include "util/error.h"

using namespace v6bench;

namespace {

/// Seeds that any --seed without committed digests maps onto.
constexpr std::uint64_t kSeedPool[] = {1, 2, 3, 4, 5, 6, 7, 8};
constexpr std::size_t kSeedPoolSize = sizeof kSeedPool / sizeof kSeedPool[0];

struct Args {
  std::string workload;
  std::uint64_t seed = 2011;
  double seconds = 10.0;
  bool trace = false;
  bool regenerate = false;
  bool selftest = false;
  std::string digests = "v6bench/digests.txt";
  std::string trace_out;
  std::string git_head = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "v6bench: %s\n"
               "usage: v6bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "               [--digests FILE] [--trace-out FILE] [--git-head SHA]\n"
               "       v6bench --regenerate --workload NAME --seed N [--digests FILE]\n"
               "       v6bench --selftest\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(flag + " needs a value");
      return argv[++i];
    };
    try {
      if (flag == "--workload") {
        a.workload = value();
      } else if (flag == "--seed") {
        a.seed = std::stoull(value());
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value());
      } else if (flag == "--trace") {
        const std::string v = value();
        if (v != "0" && v != "1") usage("--trace wants 0 or 1");
        a.trace = v == "1";
      } else if (flag == "--digests") {
        a.digests = value();
      } else if (flag == "--trace-out") {
        a.trace_out = value();
      } else if (flag == "--git-head") {
        a.git_head = value();
      } else if (flag == "--regenerate") {
        a.regenerate = true;
      } else if (flag == "--selftest") {
        a.selftest = true;
      } else {
        usage("unknown argument " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (!a.selftest && a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

std::string num(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

std::string loadavg_json() {
  double l[3] = {0, 0, 0};
  if (getloadavg(l, 3) != 3) return "null";
  return "[" + num(l[0]) + "," + num(l[1]) + "," + num(l[2]) + "]";
}

/// Host stamp: ties every result to the machine and build it came from.
struct Host {
  std::string git_head;
  std::string load_start;

  [[nodiscard]] std::string json() const {
    return "{\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN)) +
           ",\"build_type\":\"" V6BENCH_BUILD_TYPE "\",\"contract_level\":" +
           std::to_string(V6MON_CONTRACT_LEVEL) + ",\"compiler\":\"" V6BENCH_COMPILER
           "\",\"git_head\":\"" + git_head + "\",\"load_start\":" + load_start +
           ",\"load_end\":" + loadavg_json() + "}";
  }
};

/// One metric line of the result.
struct Metric {
  std::string name;
  double value = 0;
  const char* unit = "";
};

std::uint64_t resolve_seed(const DigestFile& file, const std::string& workload,
                           std::uint64_t seed) {
  if (file.find(workload, seed) != nullptr) return seed;
  return kSeedPool[seed % kSeedPoolSize];
}

/// Nearest-rank percentile `p` of `v`.
double pct(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// The highest percentile of the ladder with at least 10 samples beyond
/// it, so that the tail it reports is not one or two outliers.
double tail_rank(std::size_t samples) {
  for (const double p : {99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) return p;
  }
  return 50.0;
}

double ratio(double num_, double den) { return den > 0 ? num_ / den : 0.0; }

/// Per-layer facts of one traced study, read from its spans and from the
/// metrics registry it recorded into.
std::map<std::string, double> traced_facts(const StudyTimes& t, const Trace& trace,
                                           Trace::SpanId study_span) {
  v6mon::obs::MetricsRegistry& m = v6mon::obs::metrics();
  const auto c = [&](const char* name) {
    return static_cast<double>(m.counter_value(name));
  };
  const auto cpu_ms = [&](v6mon::obs::Stage s) {
    return static_cast<double>(m.stage_totals(s).total_ns) * 1e-6;
  };
  const double fast = c("campaign.fast_path_sites");
  const double monitored = c("campaign.sites_monitored");
  const double lookups = c("path_cache.lookups");
  using v6mon::obs::Stage;
  return {
      {"trace.study_s", t.study_s},
      {"scenario.world_build_s", t.setup_s},
      {"core.campaign.run_s", t.run_s},
      {"core.campaign.w6d_s", t.w6d_s},
      {"core.campaign.finalize_s", t.finalize_s},
      {"core.executor.nodes", c("executor.nodes")},
      {"core.executor.nodes_stolen", static_cast<double>(t.nodes_stolen)},
      {"core.campaign.sites_scanned", fast + monitored},
      {"core.campaign.sites_monitored", monitored},
      {"core.campaign.scan_useful_ratio", ratio(monitored, fast + monitored)},
      {"core.monitor.measure_cpu_ms", cpu_ms(Stage::kRepeatDownloads)},
      {"core.monitor.identity_cpu_ms", cpu_ms(Stage::kIdentityFetch)},
      {"core.monitor.site_resolve_cpu_ms", cpu_ms(Stage::kSiteResolve)},
      {"dns.resolve_cpu_ms", cpu_ms(Stage::kDnsResolve)},
      {"transport.downloads", c("transport.downloads")},
      {"transport.downloads_per_measured_site",
       ratio(c("transport.downloads"), c("monitor.status.measured"))},
      {"transport.download_failures", c("transport.download_failures")},
      {"transport.path_cache_hit_ratio",
       ratio(lookups - c("path_cache.inserts"), lookups)},
      {"dns.queries", c("dns.queries")},
      {"dns.cache_hit_ratio", ratio(c("dns.cache_hits"), c("dns.queries"))},
      {"transport.conn_attempts", c("conn.attempts")},
      {"transport.conn_fallbacks", c("conn.fallbacks")},
      {"core.results.rows", c("ingest.rows")},
      {"core.results.flushes", c("ingest.flushes")},
      {"core.results.ingest_flush_cpu_ms", cpu_ms(Stage::kIngestFlush)},
      {"analysis.analyze_s", t.analyze_s},
      {"analysis.tables_s", t.tables_s},
      {"export.obs_csv_s", t.export_s},
      {"export.bytes", static_cast<double>(t.export_bytes)},
      {"trace.coverage", ratio(static_cast<double>(trace.children_ns(study_span)) * 1e-9,
                               t.study_s)},
  };
}

/// Units of the per-layer metrics, in report order.
const std::vector<std::pair<const char*, const char*>>& layer_units() {
  static const std::vector<std::pair<const char*, const char*>> units = {
      {"scenario.world_build_s", "s"},
      {"topo.ases", "count"},
      {"topo.links", "count"},
      {"web.sites", "count"},
      {"bgp.rib_build_s", "s"},
      {"bgp.dest_tables", "count"},
      {"bgp.routes", "count"},
      {"core.timeline.advance_s", "s"},
      {"core.timeline.epochs", "count"},
      {"core.timeline.changed_routes", "count"},
      {"core.timeline.delta_fallbacks", "count"},
      {"core.timeline.delta_recomputes", "count"},
      {"core.campaign.run_s", "s"},
      {"core.campaign.w6d_s", "s"},
      {"core.campaign.finalize_s", "s"},
      {"core.campaign.round_ms.p50", "ms"},
      {"core.campaign.round_ms.pNN", "ms"},
      {"core.campaign.round_ms.pNN_rank", "%"},
      {"core.campaign.rounds", "count"},
      {"core.executor.nodes", "count"},
      {"core.executor.nodes_stolen", "count"},
      {"core.executor.overlap_ratio", "ratio"},
      {"core.campaign.sites_scanned", "count"},
      {"core.campaign.sites_monitored", "count"},
      {"core.campaign.scan_useful_ratio", "ratio"},
      {"core.monitor.measure_cpu_ms", "ms"},
      {"core.monitor.identity_cpu_ms", "ms"},
      {"core.monitor.site_resolve_cpu_ms", "ms"},
      {"dns.resolve_cpu_ms", "ms"},
      {"transport.downloads", "count"},
      {"transport.downloads_per_measured_site", "ratio"},
      {"transport.download_failures", "count"},
      {"transport.path_cache_hit_ratio", "ratio"},
      {"dns.queries", "count"},
      {"dns.cache_hit_ratio", "ratio"},
      {"transport.conn_attempts", "count"},
      {"transport.conn_fallbacks", "count"},
      {"core.results.rows", "count"},
      {"core.results.flushes", "count"},
      {"core.results.ingest_flush_cpu_ms", "ms"},
      {"analysis.analyze_s", "s"},
      {"analysis.tables_s", "s"},
      {"export.obs_csv_s", "s"},
      {"export.bytes", "B"},
      {"obs.overhead_ratio", "ratio"},
      {"trace.coverage", "ratio"},
  };
  return units;
}

/// Tallies the output checks of every study in a run.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void add(const OutputCheck& check) {
    attempted += check.attempted();
    failed += check.failed();
    for (const std::string& p : check.problems()) {
      if (problems.size() < 20) problems.push_back(p);
    }
  }
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  for (const std::string& p : tally.problems) std::printf("FAILED %s\n", p.c_str());
  std::printf("output_error_rate = %s ratio (%llu of %llu outputs)\n",
              num(ratio(static_cast<double>(tally.failed),
                        static_cast<double>(tally.attempted))).c_str(),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.attempted));
  for (const Metric& m : metrics) {
    std::printf("%-40s %16s %s\n", m.name.c_str(), num(m.value).c_str(), m.unit);
  }
  std::string json = "{\"correct\": " + std::string(tally.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(tally.attempted) +
                     ", \"failed\": " + std::to_string(tally.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
            num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int run_benchmark(const Args& args, const DigestFile& file, const Host& host) {
  const std::uint64_t seed = resolve_seed(file, args.workload, args.seed);
  const StudyInputs in = make_inputs(args.workload, seed);
  const DigestMap none;
  const DigestMap* expected = file.find(args.workload, seed);
  if (expected == nullptr) expected = &none;  // every output then fails
  std::printf("v6bench workload=%s seed=%llu (input seed %llu) seconds=%s trace=%d "
              "threads=%zu\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(seed), num(args.seconds).c_str(),
              args.trace ? 1 : 0, in.cfg.threads);

  Tally tally;
  const auto study = [&](Trace* trace) {
    OutputCheck check(expected);
    const StudyTimes t = run_study(in, check, trace);
    check.close();
    tally.add(check);
    return t;
  };

  // Warm-up: allocator arenas, page faults and lazy statics settle here,
  // so the first timed study is not the slowest of the run. Checked, not
  // timed.
  study(nullptr);

  std::vector<double> study_s, setup_s, rows_per_s;
  std::vector<std::map<std::string, double>> traced;
  Trace trace;
  v6mon::obs::MetricsRegistry& registry = v6mon::obs::metrics();
  const std::uint64_t t0 = now_ns();
  const auto elapsed = [&] { return static_cast<double>(now_ns() - t0) * 1e-9; };
  while (elapsed() < args.seconds || study_s.size() < 3 ||
         (args.trace && traced.size() < 2)) {
    const StudyTimes t = study(nullptr);
    study_s.push_back(t.study_s);
    setup_s.push_back(t.setup_s);
    rows_per_s.push_back(static_cast<double>(t.obs_rows) /
                         (t.run_s + t.w6d_s + t.finalize_s));
    if (args.trace) {
      registry.reset();
      registry.set_enabled(true);
      const StudyTimes tt = study(&trace);
      registry.set_enabled(false);
      Trace::SpanId root = Trace::kNoSpan;
      for (const Trace::Span& s : trace.spans()) {
        if (s.name == "study") root = s.id;
      }
      traced.push_back(traced_facts(tt, trace, root));
      registry.reset();
    }
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {{"study_s", median(study_s), "s"},
               {"setup_s", median(setup_s), "s"},
               {"obs_rows_per_s", median(rows_per_s), "rows/s"},
               {"peak_rss_mb", peak_rss_mb(), "MB"}};
    std::printf("studies timed: %zu\nstudy_s samples:", study_s.size());
    for (const double x : study_s) std::printf(" %.4f", x);
    std::printf("\nsetup_s samples:");
    for (const double x : setup_s) std::printf(" %.4f", x);
    std::printf("\n");
  } else {
    const LayerPass pass = run_layer_pass(in, &trace);
    std::map<std::string, double> v;
    for (const auto& [name, unit] : layer_units()) {
      std::vector<double> samples;
      for (const auto& facts : traced) {
        if (const auto it = facts.find(name); it != facts.end()) samples.push_back(it->second);
      }
      if (!samples.empty()) v[name] = median(samples);
    }
    std::vector<double> traced_study;
    for (const auto& facts : traced) traced_study.push_back(facts.at("trace.study_s"));
    v["obs.overhead_ratio"] = median(traced_study) / median(study_s) - 1.0;
    v["topo.ases"] = static_cast<double>(pass.ases);
    v["topo.links"] = static_cast<double>(pass.links);
    v["web.sites"] = static_cast<double>(pass.sites);
    v["bgp.rib_build_s"] = pass.rib_build_s;
    v["bgp.dest_tables"] = static_cast<double>(pass.dest_tables);
    v["bgp.routes"] = static_cast<double>(pass.routes);
    v["core.timeline.advance_s"] = pass.advance_s;
    v["core.timeline.epochs"] = static_cast<double>(pass.epochs);
    v["core.timeline.changed_routes"] = static_cast<double>(pass.changed_routes);
    v["core.timeline.delta_fallbacks"] = static_cast<double>(pass.delta_fallbacks);
    v["core.timeline.delta_recomputes"] = static_cast<double>(pass.delta_recomputes);
    const double rank = tail_rank(pass.round_ms.size());
    v["core.campaign.round_ms.p50"] = pct(pass.round_ms, 50);
    v["core.campaign.round_ms.pNN"] = pct(pass.round_ms, rank);
    v["core.campaign.round_ms.pNN_rank"] = rank;
    v["core.campaign.rounds"] = static_cast<double>(pass.round_ms.size());
    double round_sum_ms = 0;
    for (const double ms : pass.round_ms) round_sum_ms += ms;
    v["core.executor.overlap_ratio"] =
        ratio(round_sum_ms * 1e-3, v["core.campaign.run_s"]);
    for (const auto& [name, unit] : layer_units()) metrics.push_back({name, v[name], unit});

    std::printf("studies: %zu untraced, %zu traced\n%s", study_s.size(), traced.size(),
                trace.layer_table().c_str());
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      trace.write_chrome_json(out, host.json());
      out.flush();
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
        return 1;
      }
      std::printf("trace written to %s\n", args.trace_out.c_str());
    }
  }
  std::printf("host %s\n", host.json().c_str());
  print_result(tally, metrics);
  return 0;
}

int regenerate(const Args& args, DigestFile& file) {
  const StudyInputs in = make_inputs(args.workload, args.seed);
  OutputCheck check(nullptr);
  run_study(in, check, nullptr);
  if (check.failed() != 0) {
    for (const std::string& p : check.problems()) std::fprintf(stderr, "%s\n", p.c_str());
    return 1;
  }
  const DigestMap* old = file.find(args.workload, args.seed);
  std::size_t changed = 0;
  for (const auto& [name, d] : check.produced()) {
    std::string was = "(none)";
    if (old != nullptr) {
      if (const auto it = old->find(name); it != old->end()) was = hex(it->second.hash);
    }
    if (was != hex(d.hash)) ++changed;
    std::printf("%s %llu %-32s old %-16s new %s\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), name.c_str(), was.c_str(),
                hex(d.hash).c_str());
  }
  if (old != nullptr) {
    for (const auto& [name, d] : *old) {
      if (check.produced().count(name) == 0) {
        ++changed;
        std::printf("%s %llu %-32s old %-16s new (none)\n", args.workload.c_str(),
                    static_cast<unsigned long long>(args.seed), name.c_str(),
                    hex(d.hash).c_str());
      }
    }
  }
  file.put(args.workload, args.seed, check.produced());
  file.save(args.digests);
  std::printf("%s seed %llu: %zu outputs, %zu changed; wrote %s\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), check.produced().size(), changed,
              args.digests.c_str());
  return 0;
}

/// The benchmark's own checks, at a small paper scale.
int selftest() {
  constexpr double kScale = 0.05;
  constexpr std::uint64_t kSeed = 2011;
  int failures = 0;
  const auto expect = [&](bool ok, const char* what) {
    std::printf("%s %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok) ++failures;
  };
  const auto digests = [&](std::size_t threads, bool traced) {
    OutputCheck check(nullptr);
    Trace trace;
    v6mon::obs::metrics().set_enabled(traced);
    run_study(make_inputs("paper_frozen", kSeed, kScale, threads), check,
              traced ? &trace : nullptr);
    v6mon::obs::metrics().set_enabled(false);
    v6mon::obs::metrics().reset();
    return check.produced();
  };

  const DigestMap serial = digests(1, false);
  const DigestMap parallel = digests(4, false);
  expect(!serial.empty() && serial == parallel,
         "paper_frozen digests agree between threads 1 and 4");
  expect(digests(4, true) == parallel, "a traced study's digests equal the untraced ones");

  DigestMap tampered = parallel;
  tampered.begin()->second.hash ^= 1;
  OutputCheck check(&tampered);
  run_study(make_inputs("paper_frozen", kSeed, kScale, 4), check, nullptr);
  check.close();
  expect(check.failed() == 1, "tampering with one digest fails exactly that output");

  OutputCheck throwing(&parallel);
  throwing.emit("fig1.csv", [](std::ostream&) { throw v6mon::IoError("disk full"); });
  expect(throwing.failed() == 1, "a writer that throws counts as a failed output");

  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  if (std::strcmp(V6BENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "v6bench: library build type is '%s'; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n", V6BENCH_BUILD_TYPE);
    return 2;
  }
  try {
    if (args.selftest) return selftest();
    const bool known = std::find(workload_names().begin(), workload_names().end(),
                                 args.workload) != workload_names().end();
    if (!known) usage("unknown workload '" + args.workload + "'");
    DigestFile file;
    if (!args.regenerate || std::ifstream(args.digests).good()) {
      file = DigestFile::load(args.digests);
    }
    if (args.regenerate) return regenerate(args, file);
    const Host host{args.git_head, loadavg_json()};
    return run_benchmark(args, file, host);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "v6bench: %s\n", e.what());
    return 1;
  }
}
