// Chaos soak (ctest label: chaos): randomized-but-seeded fault schedules —
// control-plane message loss, duplication, delay, node crash/restart, a GM
// crash — driven through the transaction harness and the full staged
// pipeline. After every run the invariants that define correctness under
// chaos are asserted:
//   * every trade committed or aborted atomically (ledger totals conserved),
//   * staging nodes conserved, none double-owned, widths match the ledger,
//   * the pipeline drained (no deadlock),
//   * the same seed reproduces the identical run bit-for-bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "core/runtime.h"
#include "core/spec.h"
#include "fault/injector.h"
#include "lint/trace.h"
#include "net/cluster.h"
#include "net/network.h"
#include "txn/d2t.h"

namespace ioc {
namespace {

// --- Part 1: transactions under message faults + a member-node crash ------

struct Ledger {
  int a = 5;
  int b = 5;
  int total() const { return a + b; }
};

struct DebitOp : txn::Operation {
  Ledger* l;
  bool reserved = false;
  explicit DebitOp(Ledger* l) : l(l) {}
  bool prepare() override {
    if (l->a <= 0) return false;
    l->a -= 1;
    reserved = true;
    return true;
  }
  void commit() override { reserved = false; }
  void abort() override {
    if (reserved) l->a += 1;
    reserved = false;
  }
};

struct CreditOp : txn::Operation {
  Ledger* l;
  explicit CreditOp(Ledger* l) : l(l) {}
  bool prepare() override { return true; }
  void commit() override { l->b += 1; }
  void abort() override {}
};

struct TxnChaosRun {
  std::vector<int> outcomes;  ///< 1 = committed, 0 = aborted, per trade
  std::vector<int> totals;    ///< ledger total after each trade
  int a = 0;
  int b = 0;
  std::uint64_t events = 0;
  std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
             std::uint64_t, std::uint64_t>
      faults;  ///< dropped, duplicated, delayed, crash_drops, crashes, restarts
  bool operator==(const TxnChaosRun&) const = default;
};

des::Process txn_chaos_driver(txn::TxnHarness& h, des::Simulator& sim,
                              Ledger& ledger, TxnChaosRun* out) {
  for (int i = 0; i < 4; ++i) {
    txn::TxnResult r = co_await h.run();
    out->outcomes.push_back(r.outcome == txn::Outcome::kCommitted ? 1 : 0);
    out->totals.push_back(ledger.total());
    co_await des::delay(sim, 1500 * des::kMillisecond);
  }
}

TxnChaosRun txn_chaos(std::uint64_t seed) {
  des::Simulator sim;
  net::Cluster cluster(sim, 16);
  net::Network net(cluster);
  ev::Bus bus(net);
  fault::ClassFaults cf;
  cf.drop_rate = 0.08;  // the acceptance envelope: drop <= 10%
  cf.duplicate_rate = 0.10;
  cf.delay_rate = 0.20;
  cf.delay_min = 20 * des::kMillisecond;
  cf.delay_max = 200 * des::kMillisecond;
  fault::Injector inj(bus, fault::FaultConfig::uniform(seed, cf));
  // Crash a participant node mid-campaign; restart three seconds later.
  // Restart resurrects no endpoints, so trades touching that member must
  // abort via escalation from then on — atomically.
  inj.schedule_crash(5, 3 * des::kSecond, 6 * des::kSecond);

  txn::TxnConfig cfg;
  cfg.writers = 6;
  cfg.readers = 2;
  cfg.gather_timeout = des::kSecond;
  cfg.max_retries = 3;
  cfg.retry_backoff = 100 * des::kMillisecond;
  txn::TxnHarness h(bus, cfg);
  Ledger ledger;
  DebitOp debit(&ledger);
  CreditOp credit(&ledger);
  h.set_operation(1, &debit);   // writer side (node 3)
  h.set_operation(6, &credit);  // reader side (node 8)

  TxnChaosRun out;
  spawn(sim, txn_chaos_driver(h, sim, ledger, &out));
  sim.run_until(600 * des::kSecond);
  out.a = ledger.a;
  out.b = ledger.b;
  out.events = sim.events_processed();
  const auto& st = inj.stats();
  out.faults = {st.dropped,     st.duplicated, st.delayed,
                st.crash_drops, st.crashes,    st.restarts};
  return out;
}

class TxnChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TxnChaosSoak, TradesStayAtomicAndRunsReplayBitForBit) {
  const TxnChaosRun run = txn_chaos(GetParam());
  ASSERT_EQ(run.outcomes.size(), 4u);  // the campaign completed (no hang)
  // Atomicity after every single trade: nothing lost, nothing duplicated.
  for (int t : run.totals) EXPECT_EQ(t, 10);
  // The final ledger is exactly what the commit count predicts: each
  // committed trade moved one unit from a to b, each abort moved nothing.
  int commits = 0;
  for (int o : run.outcomes) commits += o;
  EXPECT_EQ(run.a, 5 - commits);
  EXPECT_EQ(run.b, 5 + commits);
  // The crash fired, the node restarted.
  EXPECT_EQ(std::get<4>(run.faults), 1u);
  EXPECT_EQ(std::get<5>(run.faults), 1u);
  // Same seed, same everything: outcomes, ledger, event count, fault stats.
  EXPECT_EQ(run, txn_chaos(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TxnChaosSoak,
                         ::testing::Values(1ull, 7ull, 42ull, 1234ull,
                                           987654321ull));

// --- Part 2: the full staged pipeline under faults + a GM crash -----------

struct PipelineChaosRun {
  std::uint64_t steps = 0;
  std::size_t failovers = 0;
  bool conserved = false;
  std::vector<std::string> widths;  ///< "name:width:owned" per container
  std::vector<std::string> actions;
  std::uint64_t events = 0;
  std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t>
      faults;  ///< dropped, duplicated, delayed, crash_drops
  bool drained = false;
  bool operator==(const PipelineChaosRun&) const = default;
};

PipelineChaosRun pipeline_chaos(std::uint64_t seed) {
  auto spec = core::PipelineSpec::lammps_smartpointer(8, 13);
  spec.steps = 12;
  core::StagedPipeline::Options opt;
  opt.seed = seed;
  // Timeouts sit above an honest round's worst case (aprun alone is 3-27 s,
  // plus pause/drain), so only real message loss trips the retry ladder.
  opt.gm.round.timeout = 60 * des::kSecond;
  opt.gm.round.retries = 3;
  opt.gm.round.backoff = 2 * des::kSecond;
  opt.faults_enabled = true;
  opt.faults.seed = seed;
  opt.faults.control.drop_rate = 0.05;
  opt.faults.control.duplicate_rate = 0.10;
  opt.faults.control.delay_rate = 0.25;
  opt.faults.control.delay_min = 10 * des::kMillisecond;
  opt.faults.control.delay_max = 100 * des::kMillisecond;
  opt.heartbeat_interval = 10 * des::kSecond;
  opt.auto_failover = true;
  core::StagedPipeline p(std::move(spec), opt);
  // Kill the global manager's node a third of the way in; heartbeats from
  // the containers detect the dead GM once the node rejoins and promote a
  // standby, which reconciles the resource ledger before managing.
  p.injector()->schedule_crash(1, 60 * des::kSecond, 80 * des::kSecond);

  const des::SimTime end = p.run();
  PipelineChaosRun out;
  out.steps = p.steps_emitted();
  out.failovers = p.auto_failovers();
  out.conserved = p.pool().conserved();
  for (const char* name : {"helper", "bonds", "csym", "cna"}) {
    core::Container* c = p.container(name);
    out.widths.push_back(std::string(name) + ":" +
                         std::to_string(c->width()) + ":" +
                         std::to_string(p.pool().owned_by(name)));
  }
  for (const auto& e : p.events()) {
    out.actions.push_back(std::to_string(e.at) + " " + e.action + " " +
                          e.container + " " + std::to_string(e.delta));
  }
  out.events = p.sim().events_processed();
  const auto& st = p.injector()->stats();
  out.faults = {st.dropped, st.duplicated, st.delayed, st.crash_drops};
  out.drained = end < 2 * 3600 * des::kSecond;
  return out;
}

class PipelineChaosSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PipelineChaosSoak, SurvivesFaultsAndGmCrashWithInvariantsIntact) {
  const PipelineChaosRun run = pipeline_chaos(GetParam());
  EXPECT_EQ(run.steps, 12u);          // the source emitted everything
  EXPECT_TRUE(run.drained);           // and the run finished, not hung
  EXPECT_GE(run.failovers, 1u);       // heartbeats detected the dead GM
  EXPECT_TRUE(run.conserved);         // no node lost or double-owned
  // Container bookkeeping agrees with the pool ledger for every container,
  // fenced or not (fenced: both sides read zero).
  for (const std::string& w : run.widths) {
    const auto first = w.find(':');
    const auto second = w.find(':', first + 1);
    EXPECT_EQ(w.substr(first + 1, second - first - 1), w.substr(second + 1))
        << "width/ledger mismatch: " << w;
  }
  // Bit-for-bit reproducibility of the whole run, faults and all.
  EXPECT_EQ(run, pipeline_chaos(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineChaosSoak,
                         ::testing::Values(1ull, 7ull, 42ull, 1234ull,
                                           987654321ull));

// --- Directed escalation: a partitioned CM ends in a clean fence ----------

// `name` by value: a reference parameter would dangle once the spawning
// full-expression ends and the coroutine is still suspended on the delay.
des::Process drive_increase(core::StagedPipeline& p, std::string name,
                            des::SimTime at, core::ProtocolReport* out) {
  co_await des::delay(p.sim(), at);
  *out = co_await p.gm().increase(name, 1);
}

TEST(Escalation, PartitionedManagerIsFencedAndNodesReclaimed) {
  // 14 staging nodes: the 13-node evaluation layout plus one spare, so the
  // increase below has a node to grant (13 would early-return "no spares"
  // without ever sending a round).
  auto spec = core::PipelineSpec::lammps_smartpointer(8, 14);
  spec.steps = 12;
  spec.management_enabled = false;  // the test drives the only round
  core::StagedPipeline::Options opt;
  opt.gm.round.timeout = 500 * des::kMillisecond;
  opt.gm.round.retries = 2;
  opt.gm.round.backoff = 100 * des::kMillisecond;
  opt.faults_enabled = true;  // no random faults; we only need partitions
  core::StagedPipeline p(std::move(spec), opt);

  core::Container* csym = p.container("csym");
  ASSERT_NE(csym, nullptr);
  const std::size_t owned_before = p.pool().owned_by("csym");
  ASSERT_GT(owned_before, 0u);
  const net::NodeId cm_node =
      p.bus().find(csym->manager_endpoint())->node();
  // Cut the GM (node 1) off from csym's manager for the rest of the run.
  p.injector()->partition({1}, {cm_node}, 20 * des::kSecond,
                          4 * 3600 * des::kSecond);
  core::ProtocolReport report;
  spawn(p.sim(), drive_increase(p, "csym", 25 * des::kSecond, &report));
  const des::SimTime end = p.run();

  // The round timed out, retried, and escalated: csym is fenced, its nodes
  // (and the in-flight grant) are all back in the spare pool.
  EXPECT_FALSE(report.ok);
  EXPECT_FALSE(csym->online());
  EXPECT_EQ(csym->width(), 0u);
  EXPECT_EQ(p.pool().owned_by("csym"), 0u);
  EXPECT_TRUE(p.pool().conserved());
  EXPECT_LT(end, 2 * 3600 * des::kSecond);  // survivors drained the run
  bool fenced = false;
  for (const auto& e : p.events()) fenced |= e.action == "fence";
  EXPECT_TRUE(fenced);
  // The ladder left its audit trail: TIMEOUT, RETRY, ESCALATE markers, and
  // the trace replays clean (no IOC105 — every timeout was answered).
  bool saw_timeout = false, saw_retry = false, saw_escalate = false;
  for (const auto& ev : p.gm().control_trace()) {
    saw_timeout |= ev.type == core::kMarkTimeout;
    saw_retry |= ev.type == core::kMarkRetry;
    saw_escalate |= ev.type == core::kMarkEscalate;
  }
  EXPECT_TRUE(saw_timeout);
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_escalate);
  const auto lint = lint::check_trace(p.spec(), p.gm().control_trace());
  EXPECT_TRUE(lint.ok()) << lint::to_text(lint);
}

// --- Ledger reconciliation (the failover-takeover repair) -----------------

TEST(Reconcile, FailoverLedgerRepairCoversBothSkews) {
  core::ResourcePool pool({1, 2, 3, 4, 5});
  pool.grant("a", 2);  // a: {1, 2}
  pool.grant("b", 1);  // b: {3}
  // Reality: "a" actually holds {2, 4} — the DONE recording {1 -> out,
  // 4 -> in} died with the old GM.
  const auto [reclaimed, claimed] = pool.reconcile("a", {2, 4});
  EXPECT_EQ(reclaimed, 1u);  // node 1: ledger said a, a never had it
  EXPECT_EQ(claimed, 1u);    // node 4: a holds it, ledger said spare
  EXPECT_EQ(pool.owned_by("a"), 2u);
  EXPECT_EQ(pool.owner_of(1), "");
  EXPECT_EQ(pool.owner_of(4), "a");
  EXPECT_EQ(pool.owner_of(3), "b");  // other owners untouched
  EXPECT_TRUE(pool.conserved());
}

}  // namespace
}  // namespace ioc
