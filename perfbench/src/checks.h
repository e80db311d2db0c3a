// Per-op output checks. Each is a pure function of what an op produced (and,
// where the check is "same as the reference", of the set-up reference run),
// so tests/checks_test.cpp can tamper with an output and see the check fire.
// A failed check counts the op as failed.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// --- insitu_crack --------------------------------------------------------------

/// What one output epoch of the crack pipeline decided.
struct EpochOutcome {
  bool breaking = false;  ///< CSym confirmed the break at this epoch
  /// Pre-break only: bonds broken against the reference bond graph.
  std::size_t broken_bonds = 0;
  /// Post-break only: CNA label counts (other, fcc, hcp, bcc) over the crack
  /// region, and the fragment count.
  std::array<std::size_t, 4> cna{};
  std::size_t fragments = 0;
  bool operator==(const EpochOutcome&) const = default;
};

/// The epoch equals the reference run's epoch at the same position: the
/// break lands on the same epoch and the CNA labels match.
bool check_epoch(const EpochOutcome& reference, const EpochOutcome& got);

// --- staged_campaign -----------------------------------------------------------

struct Action {
  std::string action;
  std::string container;
};

/// The campaign drained (all_done) and management ran the Fig. 10 sequence:
/// increase bonds, then take bonds and csym offline.
bool check_campaign(bool all_done, const std::vector<Action>& actions);

// --- fleet_soak ----------------------------------------------------------------

/// `counted`: staging nodes in shard pools plus escrow; `initial`: nodes the
/// fleet was built with. Mid-soak a cross-shard trade may briefly count its
/// moving nodes nowhere (fed/fleet.h), so a slice only checks that no node
/// was duplicated. At the final snapshot (quiesced) conservation is exact
/// and no escrow may be left open.
bool check_fleet(std::size_t counted, std::size_t initial,
                 std::size_t open_escrow, bool quiesced);

// --- live_control --------------------------------------------------------------

/// A resize response: 2xx and a JSON body with "ok":true. A scrape response:
/// 2xx and a non-empty body.
bool check_response(int status, std::string_view body, bool is_resize);

/// Container widths and the spare pool, per pipeline, end where they began.
struct PoolState {
  std::vector<std::uint32_t> widths;
  std::size_t spares = 0;
  bool operator==(const PoolState&) const = default;
};
bool check_restored(const std::vector<PoolState>& before,
                    const std::vector<PoolState>& after);

}  // namespace perfbench
