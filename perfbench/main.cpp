// perfbench — the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <fabric_churn|serving_chaos|durable_query>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--trace-out <file.json>] [--source <id>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
// the last stdout line is the result JSON. perfbench/run.py builds the
// binary and is the usual way in.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "harness.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--tiny] [--trace-out <path>] "
               "[--source <id>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg{argv[i]};
    if (arg == "--tiny") {
      cfg.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return usage("missing value after an option");
    const char* value = argv[++i];
    try {
      if (arg == "--workload") {
        cfg.workload = value;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (arg == "--trace") {
        cfg.trace = std::stoi(value) != 0;
      } else if (arg == "--trace-out") {
        cfg.trace_out = value;
      } else if (arg == "--source") {
        cfg.source_id = value;
      } else {
        return usage("unknown option");
      }
    } catch (const std::exception&) {
      return usage("malformed option value");
    }
  }
  if (!(cfg.seconds > 0.0) || cfg.seconds > 600.0)
    return usage("--seconds must be in (0, 600]");

  std::unique_ptr<perfbench::Workload> workload;
  if (cfg.workload == "fabric_churn") {
    workload = perfbench::make_fabric_churn(cfg);
  } else if (cfg.workload == "serving_chaos") {
    workload = perfbench::make_serving_chaos(cfg);
  } else if (cfg.workload == "durable_query") {
    workload = perfbench::make_durable_query(cfg);
  } else {
    return usage("unknown --workload");
  }
  try {
    return perfbench::run(*workload, cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
