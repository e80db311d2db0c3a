// Intern-fidelity suite for the message-type table (ev/intern.h). The
// control plane carries MessageId (a dense u16) instead of owning strings;
// everything here exists to prove the swap is invisible from the outside:
//
//  * every protocol constant round-trips through intern_type/type_name to
//    the exact original bytes, and lands on the id its kMid* twin holds;
//  * the canonical vocabulary gets the same dense ids in every binary
//    (the list below intentionally duplicates ev/intern.cpp's kCanonical —
//    reordering or editing one side without the other fails here, not in a
//    production replay);
//  * a recorded federation control trace whose type strings are
//    re-materialized from their interned ids lints (IOC105/IOC106)
//    byte-identically to the original;
//  * lookups (find_type) never grow the table, and a full table throws
//    rather than wrap new ids onto canonical ones.
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "core/protocol.h"
#include "ev/bus.h"
#include "ev/intern.h"
#include "fed/wire.h"
#include "lint/trace.h"
#include "txn/d2t_model.h"
#include "verify/fed_model.h"

namespace {

using ioc::ev::intern_type;
using ioc::ev::MessageId;
using ioc::ev::type_count;
using ioc::ev::type_name;

TEST(Intern, EveryProtocolConstantRoundTripsByteIdentical) {
  const struct {
    const char* text;
    MessageId mid;
  } kPairs[] = {
      {ioc::ev::kErrUnreachable, ioc::ev::kMidErrUnreachable},
      {ioc::ev::kErrClosed, ioc::ev::kMidErrClosed},
      {ioc::ev::kErrTimeout, ioc::ev::kMidErrTimeout},
      {ioc::core::kMsgIncrease, ioc::core::kMidIncrease},
      {ioc::core::kMsgDecrease, ioc::core::kMidDecrease},
      {ioc::core::kMsgOffline, ioc::core::kMidOffline},
      {ioc::core::kMsgQueryNeeds, ioc::core::kMidQueryNeeds},
      {ioc::core::kMsgSwitchToDisk, ioc::core::kMidSwitchToDisk},
      {ioc::core::kMsgActivate, ioc::core::kMidActivate},
      {ioc::core::kMsgDone, ioc::core::kMidDone},
      {ioc::core::kMsgNeeds, ioc::core::kMidNeeds},
      {ioc::core::kMsgReplicaHello, ioc::core::kMidReplicaHello},
      {ioc::core::kMsgReplicaConfig, ioc::core::kMidReplicaConfig},
      {ioc::core::kMsgEndpointUpdate, ioc::core::kMidEndpointUpdate},
      {ioc::core::kMsgMetric, ioc::core::kMidMetric},
      {ioc::core::kMsgEnableHashes, ioc::core::kMidEnableHashes},
      {ioc::core::kMsgHeartbeat, ioc::core::kMidHeartbeat},
      {ioc::core::kErrFenced, ioc::core::kMidErrFenced},
      {ioc::txn::kBeginMsg, ioc::txn::kMidBegin},
      {ioc::txn::kVoteMsg, ioc::txn::kMidVote},
      {ioc::txn::kCommitMsg, ioc::txn::kMidCommit},
      {ioc::txn::kAbortMsg, ioc::txn::kMidAbort},
      {ioc::txn::kBegunReply, ioc::txn::kMidBegun},
      {ioc::txn::kVoteYesReply, ioc::txn::kMidVoteYes},
      {ioc::txn::kVoteNoReply, ioc::txn::kMidVoteNo},
      {ioc::txn::kFinalReply, ioc::txn::kMidFinal},
      {ioc::txn::kTimeoutMsg, ioc::txn::kMidTimeout},
      {ioc::fed::kMsgTradeReq, ioc::fed::kMidTradeReq},
  };
  for (const auto& p : kPairs) {
    const MessageId id = intern_type(p.text);
    EXPECT_EQ(id, p.mid) << p.text;
    // Byte identity, not just equality under some normalization: the view
    // must compare equal to the original literal character for character.
    EXPECT_EQ(type_name(id), std::string_view(p.text));
    // And interning is idempotent — a second probe returns the same id.
    EXPECT_EQ(intern_type(p.text), id) << p.text;
  }
}

TEST(Intern, CanonicalVocabularyIdsAreDenseAndStable) {
  // Deliberate duplicate of kCanonical in ev/intern.cpp: ids are a public
  // stability contract (traces and tools may persist them), so an edit to
  // the canonical list must be a conscious, test-visible act.
  const std::string_view kCanonicalCopy[] = {
      "ERROR/unreachable", "ERROR/closed", "ERROR/timeout",
      "INCREASE_REQ", "DECREASE_REQ", "OFFLINE_REQ", "QUERY_NEEDS",
      "SWITCH_TO_DISK", "ACTIVATE_REQ", "DONE", "NEEDS", "REPLICA_HELLO",
      "REPLICA_CONFIG", "ENDPOINT_UPDATE", "METRIC", "ENABLE_HASHES",
      "HEARTBEAT", "ERROR/fenced",
      "TXN_BEGIN", "TXN_VOTE", "TXN_COMMIT", "TXN_ABORT", "TXN_BEGUN",
      "TXN_VOTE_YES", "TXN_VOTE_NO", "TXN_FINAL", "__txn_timeout__",
      "TRADE_REQ",
  };
  EXPECT_EQ(type_name(ioc::ev::kNoMessageId), std::string_view(""));
  MessageId expected = 1;  // id 0 <=> ""
  for (std::string_view s : kCanonicalCopy) {
    EXPECT_EQ(intern_type(s), expected) << s;
    ++expected;
  }
}

TEST(Intern, DynamicInternAppendsAndStaysStable) {
  const std::size_t before = type_count();
  const MessageId id = intern_type("INTERN_TEST/only-here");
  EXPECT_GE(static_cast<std::size_t>(id), before);
  EXPECT_EQ(type_count(), static_cast<std::size_t>(id) + 1);
  EXPECT_EQ(type_name(id), std::string_view("INTERN_TEST/only-here"));
  EXPECT_EQ(intern_type("INTERN_TEST/only-here"), id);
  EXPECT_EQ(type_count(), static_cast<std::size_t>(id) + 1);
  // Unknown ids answer "" instead of tripping anything.
  EXPECT_EQ(type_name(static_cast<MessageId>(65535)), std::string_view(""));
}

TEST(Intern, FindTypeNeverGrowsTheTable) {
  const std::size_t before = type_count();
  EXPECT_EQ(ioc::ev::find_type(ioc::core::kMsgIncrease),
            ioc::core::kMidIncrease);
  EXPECT_EQ(ioc::ev::find_type(""), ioc::ev::kNoMessageId);
  EXPECT_FALSE(ioc::ev::find_type("INTERN_TEST/never-interned").has_value());
  EXPECT_EQ(type_count(), before);
}

TEST(Intern, OverflowThrowsInsteadOfWrappingOntoCanonicalIds) {
  // Filling the table is permanent for the process, so it happens in a
  // forked child. The loop is bounded: a table that wraps instead of
  // throwing falls out of it and fails the exit-code check.
  EXPECT_EXIT(
      {
        try {
          for (int i = 0; i < 70000; ++i) {
            (void)intern_type("INTERN_TEST/overflow-" + std::to_string(i));
          }
        } catch (const std::length_error&) {
          const bool intact =
              type_count() == 65535 &&
              intern_type(ioc::core::kMsgIncrease) == ioc::core::kMidIncrease;
          std::_Exit(intact ? 0 : 1);
        }
        std::_Exit(2);
      },
      ::testing::ExitedWithCode(0), "");
}

/// Round-trip every type string of `trace` through the intern table and
/// return the re-materialized copy, asserting byte identity along the way.
std::vector<ioc::core::ControlTraceEvent> rematerialize(
    const std::vector<ioc::core::ControlTraceEvent>& trace) {
  std::vector<ioc::core::ControlTraceEvent> out = trace;
  for (auto& ev : out) {
    const MessageId id = intern_type(ev.type);
    EXPECT_EQ(type_name(id), std::string_view(ev.type)) << ev.type;
    ev.type = std::string(type_name(id));
  }
  return out;
}

TEST(Intern, FedTraceLintsByteIdenticallyAfterRoundTrip) {
  // The recorded trace: the fed model checker's escrow-leak counterexample,
  // the same artifact fed_test replays. Its verdict must not depend on
  // whether the type strings are the originals or intern-table copies.
  ioc::verify::FedScenario sc;
  sc.leak_escrow = true;
  const auto rep = ioc::verify::run_fed_check(ioc::verify::FedModel(sc));
  ASSERT_TRUE(rep.violation.has_value());
  ASSERT_FALSE(rep.trace.empty());

  ioc::core::PipelineSpec spec;
  spec.staging_nodes = static_cast<std::size_t>(sc.total_nodes());
  const auto original = ioc::lint::check_trace(spec, rep.trace);
  const auto replayed =
      ioc::lint::check_trace(spec, rematerialize(rep.trace));
  EXPECT_FALSE(original.diagnostics.empty());
  EXPECT_EQ(ioc::lint::to_text(original), ioc::lint::to_text(replayed));
  bool saw_106 = false;
  for (const auto& d : replayed.diagnostics) saw_106 |= d.code == "IOC106";
  EXPECT_TRUE(saw_106) << ioc::lint::to_text(replayed);
}

TEST(Intern, TimeoutMarkerTraceLintsByteIdenticallyAfterRoundTrip) {
  // IOC105 companion to the IOC106 replay above: a round that times out and
  // is never retried or escalated, written with the marker constants the
  // runtime uses, must produce the identical diagnostic from the
  // re-materialized copy.
  ioc::core::PipelineSpec spec;
  spec.staging_nodes = 8;
  auto& c = spec.containers.emplace_back();
  c.name = "bonds";
  c.initial_nodes = 2;
  std::vector<ioc::core::ControlTraceEvent> trace;
  trace.push_back({0, "bonds", ioc::core::kMsgIncrease, true, 0});
  trace.push_back({1, "bonds", ioc::core::kMarkTimeout, true, 0});

  const auto original = ioc::lint::check_trace(spec, trace);
  const auto replayed = ioc::lint::check_trace(spec, rematerialize(trace));
  EXPECT_EQ(ioc::lint::to_text(original), ioc::lint::to_text(replayed));
  bool saw_105 = false;
  for (const auto& d : replayed.diagnostics) saw_105 |= d.code == "IOC105";
  EXPECT_TRUE(saw_105) << ioc::lint::to_text(replayed);
}

}  // namespace
