// KiWiByteMap — KiWi over variable-length byte-string keys and values.
//
//   kiwi::api::KiWiByteMap map;
//   map.Put("user:alice", "{\"score\":17}");
//   map.Put("user:bob", "");                       // empty values are legal
//   auto v = map.Get("user:alice");                // optional<std::string>
//   map.Scan("user:", "user;\xff", [](std::string_view k,
//                                     std::string_view v) { ... });
//   map.ScanFrom("user:", yield);                  // no upper bound
//
// This is KiWiMapT instantiated with ByteLayout (core/layout.h): the same
// chunk list, PPA helping protocol, scan versioning and seven-stage
// rebalance as the fixed-width KiWiMap — every operation keeps its
// linearization point — with keys and values stored in a per-chunk
// append-only byte arena carved from the tail of each chunk's slab.  Cells
// stay fixed-width ({8-byte order-preserving prefix, offset, length}), so
// the batched-prefix binary search and intra-chunk list walk remain
// branch-light: comparisons resolve on the prefix and read the arena bytes
// only on a prefix tie (keys sharing their first 8 bytes).  On a tie
// between two keys of 16 bytes or more, bytes 8-15 compare as one
// big-endian word, and a memcmp runs only past byte 16 when that word ties
// too; shorter keys memcmp the bytes from offset 8.  A key that leads with
// an 8-byte id and then an 8-byte big-endian number (a series id and a
// timestamp, say) thus compares in registers.
//
// Key and value rules:
//   * Keys are arbitrary non-empty byte strings, ordered lexicographically
//     (memcmp order; embedded NULs are fine).  The empty string is reserved
//     as the internal sentinel minimum — Put/Get/Remove of "" assert.
//   * Values are arbitrary byte strings, empty included.  Remove writes an
//     explicit tombstone record (a reserved length sentinel in the cell, no
//     arena bytes), exactly the paper's put(⊥).
//   * One entry's key + value must fit core::kMaxEntryBytes (4096, clamped
//     to a quarter of the per-chunk arena).
//   * The map copies keys and values on Put; callers keep ownership of the
//     viewed buffers.  Views handed to scan callbacks point into chunk
//     storage pinned by the scan's guard — valid only inside the callback.
//
// Arena sizing: each chunk carries chunk_capacity *
// KiWiConfig::bytes.arena_bytes_per_cell bytes of storage.  A chunk whose
// arena fills before its cell array does simply rebalances early (the
// census's arena_hist column, docs/OBSERVABILITY.md, shows this
// directly); size arena_bytes_per_cell near your mean key + value size to
// avoid either array stranding the other.
//
// There is no maximum byte key, so a full scan is ScanFrom(MinUserKey());
// KiWiByteMap::MinUserKey() ("\0", the smallest non-empty key) is provided
// below for exactly that spelling.
#pragma once

#include <string_view>

#include "core/kiwi_map.h"
#include "core/layout.h"

namespace kiwi::api {

/// The byte-string map.  Full interface in core/kiwi_map.h (KiWiMapT) —
/// here KeyView/ValueView are std::string_view, OwnedKey/OwnedValue are
/// std::string, and Entry is pair<std::string, std::string>.
using KiWiByteMap = core::KiWiMapT<core::ByteLayout>;

/// The smallest valid user key ("\0"): ScanFrom(ByteMapMinKey()) scans the
/// whole map.
inline std::string_view ByteMapMinKey() {
  return core::ByteLayout::MinUserKey();
}

}  // namespace kiwi::api
