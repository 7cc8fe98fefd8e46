// histbench: the historian benchmark. One workload per invocation:
//
//   histbench --workload <ingest_steady|dashboard_live|history_scan>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// An untraced run prints the end-to-end metrics; a traced run prints the
// per-layer metrics and writes its spans to --trace-out. The last line of
// stdout is one JSON object; the exit code is non-zero when any answer was
// wrong or any op failed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

int main(int argc, char** argv) {
  histbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  std::printf("histbench workload=%s seed=%llu seconds=%.3f trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  histbench::Report report;
  if (args.workload == "ingest_steady") {
    return histbench::RunIngestSteady(args, &report);
  }
  if (args.workload == "dashboard_live") {
    return histbench::RunDashboardLive(args, &report);
  }
  if (args.workload == "history_scan") {
    return histbench::RunHistoryScan(args, &report);
  }
  std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
