// Fuzz harness for the scenario config loader
// (src/scenario/config_loader.h) — the text untrusted-byte boundary.
// Contract: for ANY byte string, parse_scenario either returns a
// validated ScenarioSpec or throws v6mon::Error (ParseError /
// ConfigError) — no crashes, no non-finite values smuggled into
// MonitorConfig, no unbounded allocation.
//
// Built two ways (tests/fuzz/CMakeLists.txt):
//  * V6MON_FUZZ=ON (clang): linked with -fsanitize=fuzzer; libFuzzer
//    drives LLVMFuzzerTestOneInput with coverage-guided mutations of
//    the seed corpus in tests/fuzz/corpus/config/.
//  * otherwise: fuzz_driver_main.cpp provides a main() that replays
//    every corpus file through the same entry point, so the boundary
//    stays exercised by ctest on every toolchain.

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "scenario/config_loader.h"
#include "util/error.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);
  try {
    const v6mon::scenario::ScenarioSpec spec =
        v6mon::scenario::parse_scenario(text);
    // Anything that parses must already satisfy the domain checks a
    // programmatic config goes through; re-validating here turns a
    // missed check into a crash the fuzzer reports.
    spec.campaign.monitor.validate();
  } catch (const v6mon::Error&) {
    // Rejected input — expected for almost all mutations.
  }
  return 0;
}
