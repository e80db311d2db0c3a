// Tamper tests: each per-op output check accepts a good output and fires on
// a deliberately corrupted one.
#include <gtest/gtest.h>

#include "checks.h"

namespace perfbench {
namespace {

TEST(CheckEpoch, AcceptsTheReferenceOutcome) {
  EpochOutcome ref;
  ref.breaking = true;
  ref.broken_bonds = 17;
  ref.cna = {40, 3, 5, 0};
  ref.fragments = 1;
  EXPECT_TRUE(check_epoch(ref, ref));
}

TEST(CheckEpoch, FiresOnAMovedBreakEpoch) {
  EpochOutcome ref;  // the reference did not break at this epoch
  EpochOutcome got = ref;
  got.breaking = true;
  EXPECT_FALSE(check_epoch(ref, got));
  ref.breaking = true;  // ... or it did, and the run missed it
  EXPECT_FALSE(check_epoch(ref, EpochOutcome{}));
}

TEST(CheckEpoch, FiresOnTamperedCnaLabels) {
  EpochOutcome ref;
  ref.cna = {40, 3, 5, 0};
  EpochOutcome got = ref;
  got.cna[1] += 1;  // one atom relabeled fcc
  EXPECT_FALSE(check_epoch(ref, got));
}

TEST(CheckEpoch, FiresOnTamperedBondsOrFragments) {
  EpochOutcome ref;
  ref.broken_bonds = 17;
  ref.fragments = 1;
  EpochOutcome got = ref;
  got.broken_bonds = 16;
  EXPECT_FALSE(check_epoch(ref, got));
  got = ref;
  got.fragments = 0;  // what a failed sio write reports
  EXPECT_FALSE(check_epoch(ref, got));
}

std::vector<Action> fig10() {
  return {{"increase", "bonds"}, {"offline", "bonds"}, {"offline", "csym"}};
}

TEST(CheckCampaign, AcceptsTheFig10Sequence) {
  EXPECT_TRUE(check_campaign(true, fig10()));
}

TEST(CheckCampaign, FiresWhenNotDrained) {
  EXPECT_FALSE(check_campaign(false, fig10()));
}

TEST(CheckCampaign, FiresOnATamperedSequence) {
  auto a = fig10();
  a[0].container = "csym";
  EXPECT_FALSE(check_campaign(true, a));
  a = fig10();
  std::swap(a[0], a[1]);  // offline before the increase
  EXPECT_FALSE(check_campaign(true, a));
  a = fig10();
  a.pop_back();  // csym never went offline
  EXPECT_FALSE(check_campaign(true, a));
  EXPECT_FALSE(check_campaign(true, {}));
}

TEST(CheckFleet, AcceptsSlicesAndAConservedQuiescedSnapshot) {
  EXPECT_TRUE(check_fleet(128, 128, 3, false));  // escrow open mid-soak
  EXPECT_TRUE(check_fleet(126, 128, 0, false));  // trade in transit
  EXPECT_TRUE(check_fleet(128, 128, 0, true));
}

TEST(CheckFleet, FiresOnADuplicatedNode) {
  EXPECT_FALSE(check_fleet(129, 128, 0, false));
  EXPECT_FALSE(check_fleet(129, 128, 0, true));
}

TEST(CheckFleet, FiresOnALostNodeAtSnapshot) {
  EXPECT_FALSE(check_fleet(127, 128, 0, true));
}

TEST(CheckFleet, FiresOnEscrowLeftOpenAtSnapshot) {
  EXPECT_FALSE(check_fleet(128, 128, 1, true));
}

TEST(CheckResponse, AcceptsGoodResizeAndScrape) {
  EXPECT_TRUE(check_response(
      200, R"({"action":"increase","container":"bonds","delta":1,"ok":true})",
      true));
  EXPECT_TRUE(check_response(200, "# pipeline 1 live-0\nioc_x 1\n", false));
}

TEST(CheckResponse, FiresOnNon2xx) {
  EXPECT_FALSE(check_response(400, R"({"ok":true})", true));
  EXPECT_FALSE(check_response(500, "text", false));
}

TEST(CheckResponse, FiresOnAResizeThatDidNotApply) {
  EXPECT_FALSE(check_response(
      200, R"({"action":"increase","container":"bonds","ok":false})", true));
  EXPECT_FALSE(check_response(200, "", false));
}

TEST(CheckRestored, AcceptsUnchangedState) {
  const std::vector<PoolState> s = {{{2, 3, 1}, 4}, {{2, 3, 1}, 4}};
  EXPECT_TRUE(check_restored(s, s));
}

TEST(CheckRestored, FiresOnAWidthOrSpareLeak) {
  const std::vector<PoolState> before = {{{2, 3, 1}, 4}};
  auto after = before;
  after[0].widths[0] = 3;
  EXPECT_FALSE(check_restored(before, after));
  after = before;
  after[0].spares = 3;
  EXPECT_FALSE(check_restored(before, after));
  EXPECT_FALSE(check_restored({}, {}));
}

}  // namespace
}  // namespace perfbench
