#include <gtest/gtest.h>

#include "core/container.h"
#include "core/global.h"
#include "core/protocol.h"
#include "core/resources.h"
#include "core/rounds.h"
#include "core/runtime.h"
#include "core/spec.h"
#include "core/trade.h"
#include "ev/bus.h"
#include "net/cluster.h"
#include "net/network.h"
#include "txn/d2t.h"
#include "util/config.h"

namespace ioc::core {
namespace {

TEST(ResourcePool, GrantReclaimConservation) {
  ResourcePool pool({10, 11, 12, 13, 14});
  EXPECT_EQ(pool.total(), 5u);
  EXPECT_EQ(pool.spare_count(), 5u);
  auto a = pool.grant("bonds", 3);
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(pool.owned_by("bonds"), 3u);
  EXPECT_EQ(pool.spare_count(), 2u);
  EXPECT_TRUE(pool.conserved());
  pool.reclaim("bonds", {a[0]});
  EXPECT_EQ(pool.owned_by("bonds"), 2u);
  EXPECT_EQ(pool.spare_count(), 3u);
  EXPECT_TRUE(pool.conserved());
}

TEST(ResourcePool, GrantReturnsFewerWhenShort) {
  ResourcePool pool({1, 2});
  auto a = pool.grant("x", 5);
  EXPECT_EQ(a.size(), 2u);
  EXPECT_TRUE(pool.grant("y", 1).empty());
}

TEST(ResourcePool, TransferValidatesOwnership) {
  ResourcePool pool({1, 2, 3});
  auto a = pool.grant("x", 2);
  EXPECT_THROW(pool.transfer("y", "z", {a[0]}), std::invalid_argument);
  // Failed validation must not move anything.
  EXPECT_EQ(pool.owner_of(a[0]), "x");
  pool.transfer("x", "z", {a[0]});
  EXPECT_EQ(pool.owner_of(a[0]), "z");
  EXPECT_THROW(pool.owner_of(99), std::invalid_argument);
}

TEST(Spec, LammpsSmartpointerValid) {
  auto spec = PipelineSpec::lammps_smartpointer(256, 13);
  EXPECT_EQ(spec.containers.size(), 4u);
  EXPECT_EQ(spec.initial_node_demand(), 13u);
  auto spec24 = PipelineSpec::lammps_smartpointer(512, 24);
  EXPECT_EQ(spec24.initial_node_demand(), 20u);  // 4 spares
  EXPECT_EQ(spec24.staging_nodes, 24u);
}

TEST(Spec, DownstreamCascadeOrder) {
  auto spec = PipelineSpec::lammps_smartpointer(256, 13);
  auto down = spec.downstream_of("bonds");
  ASSERT_EQ(down.size(), 2u);
  EXPECT_EQ(down[0], "csym");
  EXPECT_EQ(down[1], "cna");
  EXPECT_TRUE(spec.downstream_of("cna").empty());
}

TEST(Spec, ValidationCatchesErrors) {
  auto spec = PipelineSpec::lammps_smartpointer(256, 13);
  spec.containers[1].upstream = "nope";
  EXPECT_THROW(spec.validate(), std::runtime_error);

  spec = PipelineSpec::lammps_smartpointer(256, 13);
  spec.containers[0].model = sp::ComputeModel::kParallel;  // helper != tree
  EXPECT_THROW(spec.validate(), std::runtime_error);

  spec = PipelineSpec::lammps_smartpointer(256, 13);
  spec.staging_nodes = 5;  // demand 13 > 5
  EXPECT_THROW(spec.validate(), std::runtime_error);
}

TEST(Spec, FromConfigRoundTrip) {
  auto cfg = util::Config::parse(R"(
[pipeline]
output_interval_s = 10
sim_nodes = 64
staging_nodes = 6
steps = 12
overflow_backlog = 4

[container]
name = helper
kind = helper
model = tree
nodes = 3
min_nodes = 2
essential = true

[container]
name = bonds
kind = bonds
model = parallel
nodes = 3
upstream = helper
output_ratio = 1.5
)");
  auto spec = PipelineSpec::from_config(cfg);
  EXPECT_DOUBLE_EQ(spec.output_interval_s, 10);
  EXPECT_DOUBLE_EQ(spec.latency_sla_s, 10);  // defaults to interval
  EXPECT_EQ(spec.sim_nodes, 64u);
  ASSERT_EQ(spec.containers.size(), 2u);
  EXPECT_EQ(spec.containers[0].min_nodes, 2u);
  EXPECT_TRUE(spec.containers[0].essential);
  EXPECT_EQ(spec.containers[1].model, sp::ComputeModel::kParallel);
  EXPECT_DOUBLE_EQ(spec.containers[1].output_ratio, 1.5);
}

// --- end-to-end pipeline runs -------------------------------------------

PipelineSpec tiny_spec(bool management) {
  // Small enough to drain in well under a virtual hour.
  PipelineSpec spec = PipelineSpec::lammps_smartpointer(256, 13);
  spec.steps = 6;
  spec.management_enabled = management;
  return spec;
}

TEST(StagedPipeline, UnmanagedRunDeliversAllSteps) {
  StagedPipeline p(tiny_spec(false));
  p.run();
  EXPECT_EQ(p.steps_emitted(), 6u);
  EXPECT_EQ(p.container("helper")->steps_processed(), 6u);
  EXPECT_EQ(p.container("bonds")->steps_processed(), 6u);
  EXPECT_EQ(p.container("csym")->steps_processed(), 6u);
  EXPECT_EQ(p.container("cna")->steps_processed(), 0u);  // dormant
  EXPECT_TRUE(p.events().empty());
  EXPECT_TRUE(p.pool().conserved());
}

TEST(StagedPipeline, SinkEmitsEndToEndSamples) {
  StagedPipeline p(tiny_spec(false));
  p.run();
  auto e2e = p.hub().history_for("pipeline", mon::MetricKind::kEndToEnd);
  EXPECT_EQ(e2e.size(), 6u);
  for (const auto& s : e2e) EXPECT_GT(s.value, 0.0);
}

TEST(StagedPipeline, MonitoringSeesAllOnlineContainers) {
  StagedPipeline p(tiny_spec(false));
  p.run();
  EXPECT_TRUE(p.hub().avg_latency("helper").has_value());
  EXPECT_TRUE(p.hub().avg_latency("bonds").has_value());
  EXPECT_TRUE(p.hub().avg_latency("csym").has_value());
  EXPECT_FALSE(p.hub().avg_latency("cna").has_value());
  // Bonds (parallel O(n^2) on 2 nodes) is the bottleneck by far.
  EXPECT_EQ(p.hub().bottleneck().value(), "bonds");
}

TEST(StagedPipeline, ManagementImprovesBondsLatency) {
  // The Fig. 7 situation: 256-rank workload, 13 staging nodes, no spares.
  PipelineSpec spec = PipelineSpec::lammps_smartpointer(256, 13);
  spec.steps = 30;
  StagedPipeline p(std::move(spec));
  p.run();
  // Management stole nodes from helper for bonds.
  bool bonds_increase = false;
  bool helper_decrease = false;
  for (const auto& e : p.events()) {
    if (e.action == "increase" && e.container == "bonds") {
      bonds_increase = true;
    }
    if (e.action == "decrease" && e.container == "helper") {
      helper_decrease = true;
    }
  }
  EXPECT_TRUE(bonds_increase);
  EXPECT_TRUE(helper_decrease);
  EXPECT_GT(p.container("bonds")->width(), 2u);
  EXPECT_LT(p.container("helper")->width(), 8u);
  EXPECT_TRUE(p.pool().conserved());

  // Latency converges below the unmanaged steady state: the last samples
  // are better than the worst observed.
  auto hist = p.hub().history_for("bonds", mon::MetricKind::kLatency);
  ASSERT_GE(hist.size(), 8u);
  double worst = 0;
  for (const auto& s : hist) worst = std::max(worst, s.value);
  const double final_lat = hist.back().value;
  EXPECT_LT(final_lat, worst * 0.8);
  EXPECT_LT(final_lat, spec.latency_sla_s * 1.2);
}

TEST(StagedPipeline, OverflowTriggersOfflineCascadeWithProvenance) {
  // The Fig. 9 situation: 1024-rank workload on 24 staging nodes — bonds
  // can never meet the SLA, spares run out, backlog crosses the threshold,
  // and bonds+csym go offline while helper switches to disk.
  PipelineSpec spec = PipelineSpec::lammps_smartpointer(1024, 24);
  spec.steps = 24;
  StagedPipeline p(std::move(spec));
  p.run();

  bool bonds_offline = false, csym_offline = false;
  for (const auto& e : p.events()) {
    if (e.action == "offline" && e.container == "bonds") bonds_offline = true;
    if (e.action == "offline" && e.container == "csym") csym_offline = true;
  }
  EXPECT_TRUE(bonds_offline);
  EXPECT_TRUE(csym_offline);
  EXPECT_FALSE(p.container("bonds")->online());
  EXPECT_FALSE(p.container("csym")->online());
  EXPECT_TRUE(p.container("helper")->online());
  EXPECT_TRUE(p.container("helper")->disk_mode());

  // Helper wrote the remaining steps to disk with provenance labels.
  ASSERT_FALSE(p.fs().objects().empty());
  const auto& obj = p.fs().objects().back();
  EXPECT_EQ(obj.attributes.at(sio::kAttrProvenance), "helper");
  EXPECT_EQ(obj.attributes.at(sio::kAttrPending), "bonds,csym,cna");
  EXPECT_TRUE(p.pool().conserved());
}

TEST(StagedPipeline, EndToEndLatencyDropsAfterPruning) {
  // Fig. 10: e2e latency climbs while the queue grows, then drops sharply
  // once the bottleneck is pruned from the data path.
  PipelineSpec spec = PipelineSpec::lammps_smartpointer(1024, 24);
  spec.steps = 24;
  StagedPipeline p(std::move(spec));
  p.run();
  auto e2e = p.hub().history_for("pipeline", mon::MetricKind::kEndToEnd);
  ASSERT_GE(e2e.size(), 6u);
  double peak = 0;
  for (const auto& s : e2e) peak = std::max(peak, s.value);
  EXPECT_LT(e2e.back().value, peak / 4);  // sharp decrease
}

// --- direct protocol exercises -------------------------------------------

struct ProtoFixture {
  PipelineSpec spec = PipelineSpec::lammps_smartpointer(256, 13);
  StagedPipeline p;
  ProtoFixture() : p([this] {
        spec.management_enabled = false;
        spec.steps = 4;
        return spec;
      }()) {}
};

des::Process drive(des::Task<ProtocolReport> t, ProtocolReport* out) {
  *out = co_await std::move(t);
}

TEST(Protocols, IncreaseReportsPhaseBreakdown) {
  ProtoFixture f;
  f.p.run();  // drain first so the protocol runs on an idle pipeline
  ProtocolReport rep;
  // csym is round-robin: increase spawns replicas without a pause.
  // (No spares: first free some from helper.)
  ProtocolReport dec;
  spawn(f.p.sim(), drive(f.p.gm().decrease("helper", 2), &dec));
  f.p.sim().run();
  ASSERT_TRUE(dec.ok);
  EXPECT_EQ(dec.delta, -2);
  EXPECT_GT(dec.pause_wait, -1);  // present (may be zero when idle)

  spawn(f.p.sim(), drive(f.p.gm().increase("csym", 2), &rep));
  f.p.sim().run();
  ASSERT_TRUE(rep.ok);
  EXPECT_EQ(rep.delta, 2);
  EXPECT_GT(rep.aprun, 3 * des::kSecond);
  EXPECT_GT(rep.metadata_exchange, 0);
  EXPECT_GT(rep.metadata_messages, 0u);
  EXPECT_EQ(rep.pause_wait, 0);  // round-robin grow needs no pause
  // aprun dominates but is factored out of the comparable total.
  EXPECT_LT(rep.total_without_aprun(), rep.aprun);
  // GM<->CM messaging is nearly negligible versus metadata exchange.
  EXPECT_LT(rep.gm_cm_messaging, rep.total_without_aprun());
  EXPECT_EQ(f.p.container("csym")->width(), 5u);
  EXPECT_TRUE(f.p.pool().conserved());
}

TEST(Protocols, IncreaseWithNoSparesFails) {
  ProtoFixture f;
  f.p.run();
  ProtocolReport rep;
  spawn(f.p.sim(), drive(f.p.gm().increase("csym", 1), &rep));
  f.p.sim().run();
  EXPECT_FALSE(rep.ok);  // 13 nodes, all allocated
  EXPECT_EQ(f.p.container("csym")->width(), 3u);
}

TEST(Protocols, DecreaseFreesNodesToSpare) {
  ProtoFixture f;
  f.p.run();
  ProtocolReport rep;
  spawn(f.p.sim(), drive(f.p.gm().decrease("csym", 2), &rep));
  f.p.sim().run();
  ASSERT_TRUE(rep.ok);
  EXPECT_EQ(f.p.container("csym")->width(), 1u);
  EXPECT_EQ(f.p.pool().spare_count(), 2u);
  EXPECT_TRUE(f.p.pool().conserved());
}

TEST(Protocols, ActivateBringsDormantContainerOnline) {
  ProtoFixture f;
  f.p.run();
  ProtocolReport dec, act;
  spawn(f.p.sim(), drive(f.p.gm().decrease("helper", 2), &dec));
  f.p.sim().run();
  spawn(f.p.sim(), drive(f.p.gm().activate("cna", 2), &act));
  f.p.sim().run();
  ASSERT_TRUE(act.ok);
  EXPECT_TRUE(f.p.container("cna")->online());
  EXPECT_EQ(f.p.container("cna")->width(), 2u);
}

// --- at-most-once control rounds ------------------------------------------

ev::Message round_request(ev::MessageId type, std::uint64_t token) {
  ev::Message m;
  m.type_id = type;
  m.token = token;
  return m;
}

ev::Message done_reply(std::uint64_t token) {
  ev::Message m;
  m.type_id = kMidDone;
  m.token = token;
  return m;
}

TEST(ReplyCache, KeepsTheNewestRepliesAndEvictsTheOldestFirst) {
  ReplyCache cache;
  const std::uint64_t last = 2 * ReplyCache::kCapacity + 3;
  for (std::uint64_t t = 1; t <= last; ++t) {
    cache.record(round_request(kMidIncrease, t), done_reply(t));
    EXPECT_LE(cache.size(), ReplyCache::kCapacity);
  }
  EXPECT_EQ(cache.size(), ReplyCache::kCapacity);
  for (std::uint64_t t = 1; t <= last; ++t) {
    const ev::Message* hit = cache.find(round_request(kMidIncrease, t));
    if (t <= last - ReplyCache::kCapacity) {
      EXPECT_EQ(hit, nullptr) << "token " << t << " should be evicted";
    } else {
      ASSERT_NE(hit, nullptr) << "token " << t << " should be kept";
      EXPECT_EQ(hit->token, t);
    }
  }
  // A resend of the newest round replays its reply.
  const ev::Message* newest = cache.find(round_request(kMidIncrease, last));
  ASSERT_NE(newest, nullptr);
  EXPECT_EQ(newest->type_id, kMidDone);
  EXPECT_EQ(newest->token, last);
}

TEST(ReplyCache, KeepsOnlyMutatingRoundsThatCarryAToken) {
  ReplyCache cache;
  cache.record(round_request(kMidQueryNeeds, 7), done_reply(7));
  cache.record(round_request(kMidSwitchToDisk, 8), done_reply(8));
  cache.record(round_request(kMidIncrease, 0), done_reply(0));
  EXPECT_EQ(cache.size(), 0u);
  for (ev::MessageId type :
       {kMidIncrease, kMidDecrease, kMidOffline, kMidActivate}) {
    cache.record(round_request(type, 100 + type), done_reply(100 + type));
    EXPECT_NE(cache.find(round_request(type, 100 + type)), nullptr);
  }
  EXPECT_EQ(cache.size(), 4u);
}

des::Process ask(ev::BusIf& bus, ev::EndpointId from, ev::EndpointId to,
                 ev::Message m, ev::Message* out) {
  auto t = bus.request(from, to, std::move(m));
  *out = co_await t;
}

TEST(Protocols, DuplicateIncreaseIsAppliedOnceAndRepliedTwiceAlike) {
  ProtoFixture f;
  f.p.run();
  ProtocolReport dec;
  spawn(f.p.sim(), drive(f.p.gm().decrease("helper", 2), &dec));
  f.p.sim().run();
  ASSERT_TRUE(dec.ok);
  Container* csym = f.p.container("csym");
  const std::size_t width = csym->width();

  // The same round delivered twice, as a resend after a lost DONE would be.
  ev::Message m;
  m.type_id = kMidIncrease;
  m.token = f.p.bus().fresh_token();
  m.payload = IncreasePayload{f.p.pool().grant("csym", 1)};
  const ev::EndpointId gm = f.p.bus().open(1, "test.gm").id();
  ev::Message first;
  ev::Message second;
  spawn(f.p.sim(), ask(f.p.bus(), gm, csym->manager_endpoint(), m, &first));
  f.p.sim().run();
  spawn(f.p.sim(), ask(f.p.bus(), gm, csym->manager_endpoint(), m, &second));
  f.p.sim().run();

  EXPECT_EQ(csym->width(), width + 1);
  EXPECT_EQ(first.type_id, kMidDone);
  EXPECT_EQ(second.type_id, first.type_id);
  EXPECT_EQ(second.token, first.token);
  const auto* a = first.as<DonePayload>();
  const auto* b = second.as<DonePayload>();
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_TRUE(a->report.ok);
  EXPECT_EQ(a->report.delta, 1);
  EXPECT_EQ(b->report.delta, a->report.delta);
  EXPECT_EQ(b->report.total, a->report.total);
  EXPECT_EQ(b->report.aprun, a->report.aprun);
  EXPECT_EQ(b->freed_nodes, a->freed_nodes);
  EXPECT_TRUE(f.p.pool().conserved());
  f.p.bus().close(gm);
}

// --- transactional trades -------------------------------------------------

struct TradeFixture {
  des::Simulator sim;
  net::Cluster cluster{sim, 8};
  net::Network net{cluster};
  ev::Bus bus{net};
  ResourcePool pool{{100, 101, 102, 103}};

  TradeFixture() {
    (void)pool.grant("viz", 2);
    (void)pool.grant("analytics", 2);
  }
};

des::Process run_trade(txn::TxnHarness& h, txn::TxnResult* out) {
  *out = co_await h.run();
}

TEST(TransactionalTrade, CommitMovesNodes) {
  TradeFixture f;
  auto viz_nodes = f.pool.nodes_of("viz");
  txn::TxnConfig cfg;
  cfg.writers = 2;
  cfg.readers = 2;
  txn::TxnHarness h(f.bus, cfg);
  DonorTradeOp donor(f.pool, "viz", viz_nodes);
  RecipientTradeOp recipient(f.pool, "analytics", viz_nodes);
  h.set_operation(0, &donor);
  h.set_operation(2, &recipient);
  txn::TxnResult r;
  spawn(f.sim, run_trade(h, &r));
  f.sim.run_until(30 * des::kSecond);
  EXPECT_EQ(r.outcome, txn::Outcome::kCommitted);
  EXPECT_EQ(f.pool.owned_by("viz"), 0u);
  EXPECT_EQ(f.pool.owned_by("analytics"), 4u);
  EXPECT_TRUE(f.pool.conserved());
}

class TradeFailures : public ::testing::TestWithParam<txn::FailureSpec> {};

TEST_P(TradeFailures, NodesNeverLostOrDuplicated) {
  TradeFixture f;
  auto viz_nodes = f.pool.nodes_of("viz");
  txn::TxnConfig cfg;
  cfg.writers = 2;
  cfg.readers = 2;
  cfg.gather_timeout = des::kSecond;
  cfg.failure = GetParam();
  txn::TxnHarness h(f.bus, cfg);
  DonorTradeOp donor(f.pool, "viz", viz_nodes);
  RecipientTradeOp recipient(f.pool, "analytics", viz_nodes);
  h.set_operation(0, &donor);
  h.set_operation(2, &recipient);
  txn::TxnResult r;
  spawn(f.sim, run_trade(h, &r));
  f.sim.run_until(60 * des::kSecond);
  // Atomic either way: both moved or both stayed.
  if (r.outcome == txn::Outcome::kCommitted) {
    EXPECT_EQ(f.pool.owned_by("analytics"), 4u);
    EXPECT_EQ(f.pool.owned_by("viz"), 0u);
  } else {
    EXPECT_EQ(f.pool.owned_by("analytics"), 2u);
    EXPECT_EQ(f.pool.owned_by("viz"), 2u);
  }
  EXPECT_EQ(f.pool.owned_by(DonorTradeOp::kEscrow), 0u);  // nothing stranded
  EXPECT_TRUE(f.pool.conserved());
}

INSTANTIATE_TEST_SUITE_P(
    Phases, TradeFailures,
    ::testing::Values(txn::FailureSpec{0, txn::Phase::kBegin},
                      txn::FailureSpec{0, txn::Phase::kVote},
                      txn::FailureSpec{0, txn::Phase::kDecide},
                      txn::FailureSpec{2, txn::Phase::kBegin},
                      txn::FailureSpec{2, txn::Phase::kVote},
                      txn::FailureSpec{2, txn::Phase::kDecide},
                      txn::FailureSpec{3, txn::Phase::kVote}));

}  // namespace
}  // namespace ioc::core
