// ioc_perfbench: the repository benchmark binary. perfbench/run.py builds
// and invokes it; see perfbench/README.md.
//
//   ioc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out FILE]
//
// The last stdout line is the JSON result; lines before it start with "#".
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "util/log.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ioc_perfbench --workload insitu_crack|staged_campaign|"
               "fleet_soak|live_control --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v, &end, 10);
      if (*end != '\0') return usage();
    } else if (a == "--seconds") {
      args.seconds = static_cast<int>(std::strtol(v, &end, 10));
      if (*end != '\0' || args.seconds < 1 || args.seconds > 600) {
        return usage();
      }
    } else if (a == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
        return usage();
      }
      args.trace = v[0] == '1';
    } else if (a == "--trace-out") {
      args.trace_out = v;
    } else {
      return usage();
    }
  }

  // The kernel pool: the caller runs one chunk, so 1 worker makes the 2
  // threads insitu_crack's par.kernel_speedup compares against 1. Set before
  // the pool is created.
  setenv("IOC_THREADS", "1", 1);

  // Fault-injected retries log warnings by design; keep stderr quiet.
  ioc::util::set_log_level(ioc::util::LogLevel::kError);

  perfbench::Report report;
  perfbench::RunResult r;
  if (args.workload == "insitu_crack") {
    r = perfbench::insitu_crack(args, report);
  } else if (args.workload == "staged_campaign") {
    r = perfbench::staged_campaign(args, report);
  } else if (args.workload == "fleet_soak") {
    r = perfbench::fleet_soak(args, report);
  } else if (args.workload == "live_control") {
    r = perfbench::live_control(args, report);
  } else {
    return usage();
  }
  if (r.attempted == 0) return 1;  // set-up failed; no result to print
  report.print_result(r.attempted, r.failed);
  return 0;
}
