// On-the-wire vocabulary of the federation layer. Shard <-> pipeline resize
// rounds reuse the Fig. 3 protocol of core/protocol.h verbatim; the shard
// <-> root plane adds heartbeats, trade requests, and the D2T trade rounds
// of txn/d2t_model.h carrying the payloads below.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ev/intern.h"
#include "net/cluster.h"
#include "util/intern.h"

namespace ioc::fed {

/// Shard -> root, monitoring class, fire-and-forget liveness + spare-pool
/// report. The type string is core::kMsgHeartbeat. One wire message per
/// shard per beat interval, so the monitoring-plane message count stays
/// O(shards), not O(pipelines), at fleet scale (16 shards x 2048 pipelines
/// = 16 heartbeats per round).
struct HeartbeatWire {
  util::NameId shard = util::kEmptyName;  ///< interned shard id (util/intern.h)
  std::uint32_t spares = 0;  ///< spare staging nodes in the shard's pool
};

/// Shard -> root, control class, fire-and-forget: "my pool ran dry, find me
/// a donor". The root serializes these into cross-shard D2T trades.
inline constexpr const char* kMsgTradeReq = "TRADE_REQ";
inline const ev::MessageId kMidTradeReq = ev::intern_type(kMsgTradeReq);
struct TradeRequestWire {
  std::string recipient;     ///< requesting shard id
  std::uint32_t count = 0;   ///< nodes wanted (the root may trade fewer)
};

/// Root <-> shard trade-round payload (txn::kBeginMsg / kVoteMsg /
/// kCommitMsg / kAbortMsg requests and their replies). The donor's VOTE_YES
/// reply carries the escrowed nodes; the COMMIT request echoes them so the
/// recipient knows what to attach.
struct TradeWire {
  std::uint64_t txn = 0;
  std::string donor;
  std::string recipient;
  std::uint32_t count = 0;
  std::vector<net::NodeId> nodes;
};

}  // namespace ioc::fed
