// The four workloads. Each runs set-up (timed, repeated, median), then timed
// ops until the time budget is spent, checking every op's output. Untraced
// it reports the end-to-end metrics; traced it reports its layer metrics.
#pragma once

#include <cstdint>

#include "harness.h"

namespace perfbench {

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

RunResult insitu_crack(const Args& args, Report& report);
RunResult staged_campaign(const Args& args, Report& report);
RunResult fleet_soak(const Args& args, Report& report);
RunResult live_control(const Args& args, Report& report);

}  // namespace perfbench
