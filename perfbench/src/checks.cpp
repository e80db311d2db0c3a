#include "checks.h"

namespace perfbench {

bool check_epoch(const EpochOutcome& reference, const EpochOutcome& got) {
  return reference == got;
}

bool check_campaign(bool all_done, const std::vector<Action>& actions) {
  if (!all_done || actions.size() < 3) return false;
  return actions[0].action == "increase" && actions[0].container == "bonds" &&
         actions[1].action == "offline" && actions[1].container == "bonds" &&
         actions[2].action == "offline" && actions[2].container == "csym";
}

bool check_fleet(std::size_t counted, std::size_t initial,
                 std::size_t open_escrow, bool quiesced) {
  if (!quiesced) return counted <= initial;
  return counted == initial && open_escrow == 0;
}

bool check_response(int status, std::string_view body, bool is_resize) {
  if (status < 200 || status > 299 || body.empty()) return false;
  return !is_resize || body.find("\"ok\":true") != std::string_view::npos;
}

bool check_restored(const std::vector<PoolState>& before,
                    const std::vector<PoolState>& after) {
  return !before.empty() && before == after;
}

}  // namespace perfbench
