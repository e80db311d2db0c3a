// Federation-layer tests: consistent-hash placement properties, quiet and
// chaos-battered fleet soaks (shard crashes, partitions, message faults),
// cross-shard trade recovery, the fleet metrics snapshot, and the IOC106
// escrow-leak replay from the federation model checker.
//
// The chaos soaks follow the repo's determinism idiom: every run is a pure
// function of (Options, fault schedule), so a soak runs twice per seed and
// the two Fleet::Results must compare equal field-for-field.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/protocol.h"
#include "core/rounds.h"
#include "core/spec.h"
#include "des/time.h"
#include "fault/injector.h"
#include "fed/fleet.h"
#include "fed/hash.h"
#include "fed/pipeline.h"
#include "lint/trace.h"
#include "trace/metrics.h"
#include "verify/fed_model.h"

namespace {

using ioc::des::kMillisecond;
using ioc::des::kSecond;
using ioc::des::SimTime;
using ioc::fed::Fleet;
using ioc::fed::HashRing;

std::vector<std::string> test_keys(std::size_t n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back("pipe-" + std::to_string(i));
  return keys;
}

HashRing ring_of(std::size_t shards, std::size_t vnodes = 64) {
  HashRing ring(vnodes);
  for (std::size_t i = 0; i < shards; ++i) ring.add("s" + std::to_string(i));
  return ring;
}

// --- consistent hashing ----------------------------------------------------

TEST(HashRing, PlacementIsDeterministic) {
  const HashRing a = ring_of(8);
  const HashRing b = ring_of(8);
  for (const auto& key : test_keys(256)) {
    ASSERT_FALSE(a.owner(key).empty());
    EXPECT_EQ(a.owner(key), b.owner(key)) << key;
  }
}

TEST(HashRing, EveryShardOwnsASliceAndNoneDominates) {
  const HashRing ring = ring_of(8);
  std::map<std::string, std::size_t> owned;
  const auto keys = test_keys(1024);
  for (const auto& key : keys) ++owned[ring.owner(key)];
  EXPECT_EQ(owned.size(), 8u);  // no empty shard at 64 vnodes
  for (const auto& [shard, n] : owned) {
    // 1024/8 = 128 expected; allow generous imbalance, forbid pathology.
    EXPECT_GT(n, 128u / 4) << shard;
    EXPECT_LT(n, 128u * 4) << shard;
  }
}

TEST(HashRing, RemovalMovesOnlyTheDeadShardsKeys) {
  HashRing ring = ring_of(8);
  const auto keys = test_keys(1024);
  std::map<std::string, std::string> before;
  for (const auto& key : keys) before[key] = ring.owner(key);

  ring.remove("s3");
  std::size_t moved = 0;
  for (const auto& key : keys) {
    const std::string& now = ring.owner(key);
    EXPECT_NE(now, "s3");
    if (before[key] == "s3") {
      ++moved;
    } else {
      // A key a surviving shard already owned must not move: failover
      // reshuffles the dead shard's pipelines and nothing else.
      EXPECT_EQ(now, before[key]) << key;
    }
  }
  EXPECT_GT(moved, 0u);
}

TEST(HashRing, AdditionMovesKeysOnlyToTheNewShard) {
  HashRing ring = ring_of(8);
  const auto keys = test_keys(1024);
  std::map<std::string, std::string> before;
  for (const auto& key : keys) before[key] = ring.owner(key);

  ring.add("s8");
  std::size_t moved = 0;
  for (const auto& key : keys) {
    const std::string& now = ring.owner(key);
    if (now != before[key]) {
      EXPECT_EQ(now, "s8") << key;  // churn lands on the newcomer only
      ++moved;
    }
  }
  // Bounded key movement: about K/(N+1) keys, never a wholesale reshuffle.
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, keys.size() / 3);
}

TEST(HashRing, SuccessorIsADistinctLiveShard) {
  const HashRing ring = ring_of(8);
  for (std::size_t i = 0; i < 8; ++i) {
    const std::string id = "s" + std::to_string(i);
    const std::string heir = ring.successor(id);
    EXPECT_FALSE(heir.empty());
    EXPECT_NE(heir, id);
    EXPECT_TRUE(ring.contains(heir));
  }
  HashRing lone(16);
  lone.add("only");
  EXPECT_TRUE(lone.successor("only").empty());
}

// --- FedPipeline: the CM side of a resize round -----------------------------

/// One pipeline driven directly by a stand-in shard endpoint.
struct PipelineFixture {
  ioc::des::Simulator sim;
  ioc::net::Cluster cluster{sim, 2};
  ioc::net::Network net{cluster};
  ioc::ev::Bus bus{net};
  ioc::ev::EndpointId shard = bus.open(0, "test.shard").id();
  ioc::fed::FedPipeline pipe{bus, 1, "pipe", {}};

  PipelineFixture() { pipe.set_owner(shard); }
  ~PipelineFixture() {
    pipe.fence();
    bus.close(shard);
    while (sim.step()) {
    }
  }

  /// Deliver one round request and run until its reply lands.
  ioc::ev::Message round(const ioc::ev::Message& m) {
    ioc::ev::Message reply;
    spawn(sim, ask(bus, shard, pipe.endpoint(), m, &reply));
    sim.run();
    return reply;
  }

  static ioc::des::Process ask(ioc::ev::Bus& bus, ioc::ev::EndpointId from,
                               ioc::ev::EndpointId to, ioc::ev::Message m,
                               ioc::ev::Message* out) {
    auto t = bus.request(from, to, std::move(m));
    *out = co_await t;
  }
};

ioc::ev::Message resize_request(bool grow, std::uint64_t token,
                                ioc::net::NodeId node) {
  ioc::ev::Message m;
  m.token = token;
  if (grow) {
    m.type_id = ioc::core::kMidIncrease;
    m.payload = ioc::core::IncreasePayload{{node}};
  } else {
    m.type_id = ioc::core::kMidDecrease;
    m.payload = ioc::core::DecreasePayload{1};
  }
  return m;
}

TEST(FedPipeline, ReplyCacheStopsGrowingAtItsCapacity) {
  PipelineFixture f;
  for (std::uint64_t i = 0; i < 200; ++i) {
    const ioc::ev::Message reply = f.round(
        resize_request(i % 2 == 0, f.bus.fresh_token(), 100));
    ASSERT_EQ(reply.type_id, ioc::core::kMidDone) << "round " << i;
    EXPECT_EQ(f.pipe.width(), i % 2 == 0 ? 1u : 0u);
    EXPECT_EQ(f.pipe.cached_replies(),
              std::min<std::size_t>(i + 1, ioc::core::ReplyCache::kCapacity))
        << "round " << i;
  }
  EXPECT_EQ(f.pipe.resizes_applied(), 200u);
}

TEST(FedPipeline, DuplicateIncreaseIsAppliedOnceAndRepliedTwiceAlike) {
  PipelineFixture f;
  const ioc::ev::Message m = resize_request(true, f.bus.fresh_token(), 100);
  const ioc::ev::Message first = f.round(m);
  const ioc::ev::Message second = f.round(m);
  EXPECT_EQ(f.pipe.width(), 1u);
  EXPECT_EQ(f.pipe.resizes_applied(), 1u);
  EXPECT_EQ(first.type_id, ioc::core::kMidDone);
  EXPECT_EQ(second.type_id, first.type_id);
  EXPECT_EQ(second.token, first.token);
  const auto* a = first.as<ioc::core::DonePayload>();
  const auto* b = second.as<ioc::core::DonePayload>();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->report.delta, 1);
  EXPECT_EQ(b->report.delta, a->report.delta);
  EXPECT_EQ(b->report.total, a->report.total);
  EXPECT_EQ(b->freed_nodes, a->freed_nodes);
}

// --- quiet fleet -----------------------------------------------------------

Fleet::Options quiet_options() {
  Fleet::Options opt;
  opt.shards = 4;
  opt.pipelines = 16;
  opt.staging_per_shard = 8;
  opt.horizon = 6 * kSecond;
  opt.settle = 2 * kSecond;
  opt.demand_events = 80;
  opt.seed = 11;
  return opt;
}

TEST(Fleet, QuietFleetConvergesAndConserves) {
  Fleet fleet(quiet_options());
  const Fleet::Result r = fleet.run();
  EXPECT_TRUE(r.conserved);
  EXPECT_EQ(r.open_escrow, 0u);
  EXPECT_EQ(r.failovers, 0u);
  EXPECT_EQ(r.live_shards, 4u);
  EXPECT_EQ(r.live_pipelines, 16u);
  EXPECT_EQ(r.converged_pipelines, r.live_pipelines);
  EXPECT_GT(r.resizes, 0u);
}

TEST(Fleet, ScarcePoolsForceCrossShardTrades) {
  // Tight per-shard pools against wide demand: some shard must run dry
  // while a sibling still has spares, so the root brokers trades.
  Fleet::Options opt = quiet_options();
  opt.shards = 4;
  opt.pipelines = 12;
  opt.staging_per_shard = 4;
  opt.max_pipeline_width = 4;
  opt.horizon = 10 * kSecond;
  opt.demand_events = 160;
  opt.seed = 3;
  Fleet fleet(opt);
  const Fleet::Result r = fleet.run();
  EXPECT_TRUE(r.conserved);
  EXPECT_EQ(r.open_escrow, 0u);
  EXPECT_GT(r.trades_committed, 0u);
}

// --- failover --------------------------------------------------------------

TEST(Fleet, ShardCrashFailsPipelinesOverToSurvivors) {
  Fleet::Options opt = quiet_options();
  opt.faults_enabled = true;  // injector present, zero random rates
  opt.horizon = 8 * kSecond;
  opt.demand_events = 120;
  Fleet fleet(opt);
  fleet.injector()->schedule_crash(fleet.shard_node(0), 3 * kSecond);
  const Fleet::Result r = fleet.run();
  EXPECT_TRUE(r.conserved);
  EXPECT_EQ(r.open_escrow, 0u);
  EXPECT_EQ(r.failovers, 1u);
  EXPECT_EQ(r.live_shards, 3u);
  // Every pipeline of the dead shard was adopted by a survivor: none are
  // fenced, and all of them converge to their demand again.
  EXPECT_EQ(r.live_pipelines, 16u);
  EXPECT_EQ(r.converged_pipelines, r.live_pipelines);
  EXPECT_TRUE(fleet.shard(0).fenced());
  EXPECT_GT(r.pipelines_reassigned, 0u);
}

TEST(Fleet, PartitionedShardIsFencedNotLeaked) {
  // A live shard cut off from the root looks dead; the root must STONITH
  // it and move its pipelines — and conservation must survive the fenced
  // shard's pool being swept while its (stopped) loops still exist.
  Fleet::Options opt = quiet_options();
  opt.faults_enabled = true;
  opt.horizon = 8 * kSecond;
  opt.demand_events = 120;
  Fleet fleet(opt);
  fleet.injector()->partition({fleet.shard_node(1)}, {0},
                              2 * kSecond, 8 * kSecond);
  const Fleet::Result r = fleet.run();
  EXPECT_TRUE(r.conserved);
  EXPECT_EQ(r.open_escrow, 0u);
  EXPECT_GE(r.failovers, 1u);
  EXPECT_TRUE(fleet.shard(1).fenced());
  EXPECT_EQ(r.converged_pipelines, r.live_pipelines);
}

// --- chaos soak ------------------------------------------------------------

Fleet::Result run_chaos(std::uint64_t seed) {
  Fleet::Options opt;
  opt.shards = 8;
  opt.pipelines = 32;
  opt.staging_per_shard = 8;
  opt.max_pipeline_width = 4;
  opt.horizon = 15 * kSecond;
  opt.settle = 4 * kSecond;
  opt.demand_events = 240;
  opt.seed = seed;
  opt.faults_enabled = true;
  ioc::fault::ClassFaults noisy;
  noisy.drop_rate = 0.02;
  noisy.duplicate_rate = 0.02;
  noisy.delay_rate = 0.10;
  noisy.delay_min = 1 * kMillisecond;
  noisy.delay_max = 8 * kMillisecond;
  opt.faults = ioc::fault::FaultConfig::uniform(seed, noisy);

  Fleet fleet(opt);
  // Repeated shard deaths (no restarts: a dead GM stays dead, its slice
  // must fail over), plus a root-link partition that fences a live shard.
  fleet.injector()->schedule_crash(fleet.shard_node(1), 4 * kSecond);
  fleet.injector()->schedule_crash(fleet.shard_node(3), 7 * kSecond);
  fleet.injector()->schedule_crash(fleet.shard_node(5), 10 * kSecond);
  fleet.injector()->partition({fleet.shard_node(6)}, {0},
                              12 * kSecond, 15 * kSecond);
  return fleet.run();
}

class FedChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FedChaos, SurvivesCrashesAndPartitionsConserved) {
  const Fleet::Result r = run_chaos(GetParam());
  // The robustness headline: however the adversary interleaved drops,
  // duplicates, delays, three shard deaths, and a partition, the fleet
  // quiesces with every staging node accounted for and no escrow orphaned.
  EXPECT_TRUE(r.conserved);
  EXPECT_EQ(r.open_escrow, 0u);
  EXPECT_GE(r.failovers, 3u);   // the three crashed shards, at least
  EXPECT_LE(r.live_shards, 5u);
  EXPECT_GT(r.live_pipelines, 0u);
  // Surviving pipelines meet their resize SLA: demand raised under chaos
  // still converges within two seconds (retry ladders + trades included).
  EXPECT_EQ(r.converged_pipelines, r.live_pipelines);
  if (!r.resize_latencies.empty()) {
    std::vector<SimTime> lat = r.resize_latencies;
    std::sort(lat.begin(), lat.end());
    const SimTime p99 = lat[(lat.size() * 99) / 100 == lat.size()
                                ? lat.size() - 1
                                : (lat.size() * 99) / 100];
    EXPECT_LT(p99, 2 * kSecond);
  }
}

TEST_P(FedChaos, SameSeedSameFleetBitForBit) {
  const Fleet::Result a = run_chaos(GetParam());
  const Fleet::Result b = run_chaos(GetParam());
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FedChaos,
                         ::testing::Values(1u, 7u, 42u, 1234u, 987654321u));

// --- metrics ---------------------------------------------------------------

TEST(Fleet, PublishMetricsExposesShardAndFaultCounters) {
  Fleet::Options opt = quiet_options();
  opt.faults_enabled = true;
  Fleet fleet(opt);
  fleet.injector()->schedule_crash(fleet.shard_node(2), 3 * kSecond);
  (void)fleet.run();

  ioc::trace::MetricsRegistry reg;
  fleet.publish_metrics(reg);
  const std::string prom = reg.to_prometheus();
  for (const char* name :
       {"ioc_fed_shard_pool_nodes", "ioc_fed_shard_spare_nodes",
        "ioc_fed_shard_escrow_nodes", "ioc_fed_shard_up",
        "ioc_fed_shard_resizes_total", "ioc_fed_failovers_total",
        "ioc_fed_pipelines_reassigned_total", "ioc_fed_trades_total",
        "ioc_fed_resize_latency_seconds", "ioc_fault_events_total"}) {
    EXPECT_NE(prom.find(name), std::string::npos) << name << "\n" << prom;
  }
  EXPECT_NE(prom.find("shard=\"s0\""), std::string::npos);
  EXPECT_NE(prom.find("kind=\"crash\""), std::string::npos);
}

// --- IOC106 end-to-end -----------------------------------------------------

TEST(FedVerify, CleanTradeModelHasNoOrphanEscrow) {
  ioc::verify::FedScenario sc;  // 1 drop + 1 dup + 1 crash budget
  const auto rep = ioc::verify::run_fed_check(ioc::verify::FedModel(sc));
  EXPECT_TRUE(rep.ok()) << (rep.violation ? rep.violation->message : "cap");
  EXPECT_GT(rep.states, 100u);
}

TEST(FedVerify, LeakEscrowCounterexampleReplaysAsIOC106) {
  // Seed the historical bug (fenced trade skips the donor settle and its
  // terminal marker): the checker must find the orphaned escrow, and the
  // counterexample's control trace must trip the IOC106 lint rule — the
  // model checker, the runtime recovery pass, and the offline lint all
  // enforce one contract.
  ioc::verify::FedScenario sc;
  sc.leak_escrow = true;
  const auto rep = ioc::verify::run_fed_check(ioc::verify::FedModel(sc));
  ASSERT_TRUE(rep.violation.has_value());
  EXPECT_EQ(rep.violation->property, ioc::verify::Property::kOrphanEscrow);
  ASSERT_FALSE(rep.trace.empty());

  ioc::core::PipelineSpec spec;
  spec.staging_nodes = static_cast<std::size_t>(sc.total_nodes());
  const auto lint = ioc::lint::check_trace(spec, rep.trace);
  bool saw_106 = false;
  for (const auto& d : lint.diagnostics) saw_106 |= d.code == "IOC106";
  EXPECT_TRUE(saw_106) << ioc::lint::to_text(lint);
}

}  // namespace
