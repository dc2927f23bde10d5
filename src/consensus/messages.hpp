// Wire formats shared by the uniform-consensus algorithms.
//
// Every algorithm message starts with a tag word:
//   kTagW  — a FloodSet W set as its packed bit mask: [kTagW, lo32, hi32]
//   kTagD  — a forced decision (Figure 3's "(D, decision)"): [kTagD, v]
//   kTagV  — a bare value (A1's round-1/round-2 broadcasts): [kTagV, v]
//   kTagP1 — A1's decision report "(p1, w)": [kTagP1, v]
//
// The W encoding is the ValueSet word split into two int32 halves (payload
// words are int32).  It is injective on sets, like the length-prefixed list
// it replaced, so run-comparison and abstraction layers that key on payload
// bytes keep distinguishing exactly the same messages.
#pragma once

#include <optional>

#include "util/serde.hpp"
#include "util/types.hpp"
#include "util/value_set.hpp"

namespace ssvsp::wire {

inline constexpr std::int32_t kTagW = 1;
inline constexpr std::int32_t kTagD = 2;
inline constexpr std::int32_t kTagV = 3;
inline constexpr std::int32_t kTagP1 = 4;

inline Payload encodeW(ValueSet w) {
  const std::uint64_t mask = w.mask();
  PayloadWriter out;
  out.putInt(kTagW);
  out.putInt(static_cast<std::int32_t>(mask & 0xffffffffULL));
  out.putInt(static_cast<std::int32_t>(mask >> 32));
  return std::move(out).take();
}

inline Payload encodeTagged(std::int32_t tag, Value v) {
  PayloadWriter out;
  out.putInt(tag);
  out.putValue(v);
  return std::move(out).take();
}

/// Decodes a W-set message; empty optional if the tag does not match.
inline std::optional<ValueSet> decodeW(const Payload& p) {
  PayloadReader r(p);
  if (r.getInt() != kTagW) return std::nullopt;
  const auto lo = static_cast<std::uint32_t>(r.getInt());
  const auto hi = static_cast<std::uint32_t>(r.getInt());
  return ValueSet::fromMask(static_cast<std::uint64_t>(hi) << 32 | lo);
}

/// Decodes a [tag, v] message of the given tag.
inline std::optional<Value> decodeTagged(std::int32_t tag, const Payload& p) {
  PayloadReader r(p);
  if (r.getInt() != tag) return std::nullopt;
  return r.getValue();
}

}  // namespace ssvsp::wire
