// Golden digests for the control plane. The constants below were recorded
// from the fleet chaos soak (five seeds) and the staged-pipeline chaos soak
// (seed 1) before the coordinators' trace recorders and the CM-side reply
// caches were folded into core::ControlTrace and core::ReplyCache. Any
// refactor of the control plane must reproduce them bit-for-bit: a changed
// digest means a round, a retry, a fence or a trade now happens at a
// different instant, or not at all.
//
// The scenarios are frozen here (not shared with fed_test.cpp or
// chaos_test.cpp) so the digests never depend on another test file's
// helper.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/protocol.h"
#include "core/runtime.h"
#include "core/spec.h"
#include "des/time.h"
#include "fault/injector.h"
#include "fed/fleet.h"

namespace ioc {
namespace {

using des::kMillisecond;
using des::kSecond;

std::uint64_t fnv(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

std::uint64_t fold(std::uint64_t h, std::uint64_t v) {
  return fnv(h, &v, sizeof v);
}

std::uint64_t fold(std::uint64_t h, std::string_view s) {
  h = fold(h, s.size());
  return fnv(h, s.data(), s.size());
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ull;

/// Every field of every recorded control event, in order.
std::uint64_t trace_digest(const std::vector<core::ControlTraceEvent>& trace,
                           std::uint64_t h = kFnvBasis) {
  h = fold(h, trace.size());
  for (const core::ControlTraceEvent& e : trace) {
    h = fold(h, static_cast<std::uint64_t>(e.at));
    h = fold(h, e.container);
    h = fold(h, e.type);
    h = fold(h, e.to_cm ? 1u : 0u);
    h = fold(h, static_cast<std::uint64_t>(e.delta));
  }
  return h;
}

// --- federated fleet under chaos --------------------------------------------

struct FleetGolden {
  std::uint64_t result_digest;  ///< Fleet::Result::digest
  std::uint64_t trace_digest;   ///< every shard's and the root's trace
};

FleetGolden run_fleet_chaos(std::uint64_t seed) {
  fed::Fleet::Options opt;
  opt.shards = 8;
  opt.pipelines = 32;
  opt.staging_per_shard = 8;
  opt.max_pipeline_width = 4;
  opt.horizon = 15 * kSecond;
  opt.settle = 4 * kSecond;
  opt.demand_events = 240;
  opt.seed = seed;
  opt.faults_enabled = true;
  fault::ClassFaults noisy;
  noisy.drop_rate = 0.02;
  noisy.duplicate_rate = 0.02;
  noisy.delay_rate = 0.10;
  noisy.delay_min = 1 * kMillisecond;
  noisy.delay_max = 8 * kMillisecond;
  opt.faults = fault::FaultConfig::uniform(seed, noisy);

  fed::Fleet fleet(opt);
  fleet.injector()->schedule_crash(fleet.shard_node(1), 4 * kSecond);
  fleet.injector()->schedule_crash(fleet.shard_node(3), 7 * kSecond);
  fleet.injector()->schedule_crash(fleet.shard_node(5), 10 * kSecond);
  fleet.injector()->partition({fleet.shard_node(6)}, {0}, 12 * kSecond,
                              15 * kSecond);
  const fed::Fleet::Result r = fleet.run();
  std::uint64_t h = kFnvBasis;
  for (std::size_t i = 0; i < fleet.shard_count(); ++i) {
    h = trace_digest(fleet.shard(i).control_trace(), h);
  }
  h = trace_digest(fleet.root().control_trace(), h);
  return {r.digest, h};
}

struct FleetCase {
  std::uint64_t seed;
  FleetGolden golden;
};

class FleetChaosGolden : public ::testing::TestWithParam<FleetCase> {};

TEST_P(FleetChaosGolden, ResultAndTraceDigestsAreFrozen) {
  const FleetCase& c = GetParam();
  const FleetGolden got = run_fleet_chaos(c.seed);
  EXPECT_EQ(got.result_digest, c.golden.result_digest)
      << std::hex << "0x" << got.result_digest;
  EXPECT_EQ(got.trace_digest, c.golden.trace_digest)
      << std::hex << "0x" << got.trace_digest;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FleetChaosGolden,
    ::testing::Values(
        FleetCase{1u, {0x4a0e250698da962full, 0x92c47ad27f3d0fefull}},
        FleetCase{7u, {0x49ba9d03e18f96fdull, 0x64c4f58ed56d3f70ull}},
        FleetCase{42u, {0xda14f93bccea084bull, 0x88a911d43f9abf98ull}},
        FleetCase{1234u, {0x4faacf20f8935337ull, 0xc85160a8696ec469ull}},
        FleetCase{987654321u, {0x7a1bdf985ac38127ull, 0xf7ef3165ca248436ull}}),
    [](const ::testing::TestParamInfo<FleetCase>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

// --- staged pipeline under chaos, GM crash included -------------------------

struct PipelineGolden {
  std::uint64_t outcome_digest;  ///< steps, widths, actions, faults, ...
  std::uint64_t trace_digest;    ///< the promoted GM's control trace
};

PipelineGolden run_pipeline_chaos(std::uint64_t seed) {
  auto spec = core::PipelineSpec::lammps_smartpointer(8, 13);
  spec.steps = 12;
  core::StagedPipeline::Options opt;
  opt.seed = seed;
  opt.gm.round.timeout = 60 * kSecond;
  opt.gm.round.retries = 3;
  opt.gm.round.backoff = 2 * kSecond;
  opt.faults_enabled = true;
  opt.faults.seed = seed;
  opt.faults.control.drop_rate = 0.05;
  opt.faults.control.duplicate_rate = 0.10;
  opt.faults.control.delay_rate = 0.25;
  opt.faults.control.delay_min = 10 * kMillisecond;
  opt.faults.control.delay_max = 100 * kMillisecond;
  opt.heartbeat_interval = 10 * kSecond;
  opt.auto_failover = true;
  core::StagedPipeline p(std::move(spec), opt);
  p.injector()->schedule_crash(1, 60 * kSecond, 80 * kSecond);

  const des::SimTime end = p.run();
  std::uint64_t h = kFnvBasis;
  h = fold(h, p.steps_emitted());
  h = fold(h, p.auto_failovers());
  h = fold(h, p.pool().conserved() ? 1u : 0u);
  for (const char* name : {"helper", "bonds", "csym", "cna"}) {
    h = fold(h, p.container(name)->width());
    h = fold(h, p.pool().owned_by(name));
  }
  for (const core::ManagementEvent& e : p.events()) {
    h = fold(h, static_cast<std::uint64_t>(e.at));
    h = fold(h, e.action);
    h = fold(h, e.container);
    h = fold(h, static_cast<std::uint64_t>(e.delta));
  }
  h = fold(h, p.sim().events_processed());
  const auto& st = p.injector()->stats();
  h = fold(h, st.dropped);
  h = fold(h, st.duplicated);
  h = fold(h, st.delayed);
  h = fold(h, st.crash_drops);
  h = fold(h, static_cast<std::uint64_t>(end));
  return {h, trace_digest(p.gm().control_trace())};
}

TEST(PipelineChaosGolden, Seed1OutcomeAndTraceAreFrozen) {
  const PipelineGolden got = run_pipeline_chaos(1);
  EXPECT_EQ(got.outcome_digest, 0xf5ba518f1346ca07ull)
      << std::hex << "0x" << got.outcome_digest;
  EXPECT_EQ(got.trace_digest, 0x47fe0d7eaf8e51e3ull)
      << std::hex << "0x" << got.trace_digest;
}

}  // namespace
}  // namespace ioc
