// Message-type interning: every distinct type string ("INCREASE_REQ",
// "TXN_VOTE", "ERROR/timeout", ...) maps to a dense 16-bit MessageId, and
// Message carries the id instead of an owning std::string. Dispatch sites
// compare two u16s; anything that needs the text (logs, lint replay,
// ioc_verify counterexamples) goes through type_name(), which returns the
// exact bytes that were interned — replay output is byte-identical to the
// pre-interning representation.
//
// Determinism: the table is append-only, and the canonical control-plane
// vocabulary is preregistered in a fixed order before any dynamic intern, so
// a given type string gets the same id in every binary regardless of TU
// initialization order. See DESIGN.md §16 for the invariants.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace ioc::ev {

/// Dense id of an interned message-type string. 0 <=> "" (an unset type).
using MessageId = std::uint16_t;

inline constexpr MessageId kNoMessageId = 0;

/// Intern `s`, returning its MessageId. Allocates only for strings never
/// seen before; the canonical vocabulary is preregistered so steady-state
/// calls are pure hash probes. Throws std::length_error once the 16-bit id
/// space is exhausted rather than wrap onto an existing type.
MessageId intern_type(std::string_view s);

/// The MessageId of an already-interned `s`, or nullopt. Never grows the
/// table: decoders of bytes from outside the process resolve types here.
std::optional<MessageId> find_type(std::string_view s);

/// The string behind `id` — stable for the process lifetime, "" for
/// unknown ids.
std::string_view type_name(MessageId id);

/// Number of distinct type strings interned so far ("" counts).
std::size_t type_count();

}  // namespace ioc::ev
