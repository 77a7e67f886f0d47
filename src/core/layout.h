// Key/value layout traits: the one place where the core templates learn how
// keys and values are represented inside a chunk.
//
// The core (ChunkT / KiWiMapT / ChunkIndexT) is templated on a Layout type
// with two concrete instances:
//
//   - Int64Layout: the original fixed-width map.  Cell keys and stored
//     values ARE the int64 key/value; every trait call is an identity or a
//     plain integer compare, so the instantiation compiles to the same hot
//     paths as the pre-template code (no arena, no indirection).
//   - ByteLayout: variable-length byte strings.  The cell array stays
//     fixed-width — a cell key is {8-byte normalized prefix, offset, length}
//     and a stored value is {offset, length}, both pointing into a per-chunk
//     append-only byte arena that lives at the tail of the chunk's slab.
//     Comparisons resolve on the prefix first and read the arena bytes
//     only on a prefix tie.
//
// The normalized prefix is the key's first 8 bytes, big-endian packed and
// zero padded, so unsigned 64-bit compare order == lexicographic byte order
// on the truncation.  Two facts the fast paths rely on:
//   * prefix(a) <  prefix(b)  =>  a < b            (decide without memcmp)
//   * prefix(a) == prefix(b)  =>  a and b agree on their first
//     min(|a|, |b|, 8) bytes  =>  if either is <= 8 bytes long, the shorter
//     key is a prefix of the other and length decides; otherwise the bytes
//     from offset 8 decide.  When both keys hold 16 bytes or more, bytes
//     8-15 compare as one big-endian word (the same packing as the prefix),
//     and only a tie there leaves a memcmp of the bytes from offset 16.
//
// Key domain (ByteLayout): the empty string is reserved as the sentinel
// chunk's min_key (it sorts before every user key, playing the role
// kMinKeySentinel plays for int64); user keys must be non-empty, making
// "\x00" the smallest user key.  There is no finite maximum key — the few
// places that need an upper bound (PSA ranges) work in the prefix domain,
// where UINT64_MAX is a safe +inf.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "common/config.h"

namespace kiwi::core {

/// Hard cap on key bytes + value bytes for a single byte-map entry, checked
/// at Put.  The map additionally clamps it to a quarter of the per-chunk
/// arena so one entry can never render a rebalance target unsatisfiable.
inline constexpr std::uint32_t kMaxEntryBytes = 4096;

/// Sizing knobs for the ByteLayout arena, carried by KiWiConfig.
struct ByteConfig {
  /// Arena capacity per chunk = chunk_capacity * this.  64 bytes per cell
  /// comfortably fits short keys plus small document values; raise it for
  /// blob-heavy workloads (a full arena just triggers rebalance earlier).
  std::uint32_t arena_bytes_per_cell = 64;
};

// ---- Int64Layout ---------------------------------------------------------

struct Int64Layout {
  static constexpr bool kHasArena = false;

  using KeyView = Key;      // how callers pass keys
  using OwnedKey = Key;     // how long-lived copies (index nodes) store them
  using ValueView = Value;  // how callers pass / scans yield values
  using OwnedValue = Value; // what Get() hands back
  using CellKey = Key;      // what a cell stores
  using StoredValue = Value;// what a `v` slot stores
  using PsaKey = Key;       // PSA range bound domain
  using Probe = Key;        // per-lookup precomputed compare state

  static constexpr CellKey SentinelCellKey() { return kMinKeySentinel; }
  static constexpr KeyView SentinelMinKey() { return kMinKeySentinel; }
  static constexpr KeyView MinUserKey() { return kMinUserKey; }
  static bool IsUserKey(KeyView key) { return key >= kMinUserKey; }

  static bool KeyLess(KeyView a, KeyView b) { return a < b; }
  static bool KeyLeq(KeyView a, KeyView b) { return a <= b; }
  static bool KeyEq(KeyView a, KeyView b) { return a == b; }

  static Probe MakeProbe(KeyView key) { return key; }
  /// <0 / 0 / >0 as the cell key orders before / equal / after the probe.
  static int CompareCell(const char* /*arena*/, const CellKey& cell,
                         const Probe& probe) {
    return cell < probe ? -1 : (probe < cell ? 1 : 0);
  }
  static KeyView CellKeyView(const char* /*arena*/, const CellKey& cell) {
    return cell;
  }

  static constexpr ValueView TombstoneValue() { return kTombstoneValue; }
  static bool IsTombstone(ValueView value) { return value == kTombstoneValue; }
  static ValueView LoadValue(const char* /*arena*/, const StoredValue& sv) {
    return sv;
  }
  static OwnedValue OwnValue(ValueView value) { return value; }
  static OwnedKey OwnKey(KeyView key) { return key; }
  static KeyView ViewKey(const OwnedKey& key) { return key; }

  /// Arena bytes an entry consumes (key + value; tombstones carry no value
  /// bytes).  Zero for fixed-width layouts.
  static std::size_t EntryArenaBytes(KeyView, ValueView) { return 0; }

  // PSA ranges are exact for int64.
  static PsaKey PsaLow(KeyView key) { return key; }
  static PsaKey PsaHigh(KeyView key) { return key; }
  static constexpr PsaKey PsaMin() { return kMinUserKey; }
  static constexpr PsaKey PsaMax() { return kMaxUserKey; }
  /// May the published scan range [entry_from, entry_to] intersect the
  /// section key range [from, to_exclusive)?  (to_exclusive applies only
  /// when `bounded`.)  Must never report false for a real intersection;
  /// int64 answers exactly.
  static bool PsaOverlaps(KeyView from, bool bounded, KeyView to_exclusive,
                          PsaKey entry_from, PsaKey entry_to) {
    return from <= entry_to && (!bounded || entry_from < to_exclusive);
  }

  static std::uint64_t TraceKey(KeyView key) {
    return static_cast<std::uint64_t>(key);
  }
  static std::uint64_t TraceValue(ValueView value) {
    return static_cast<std::uint64_t>(value);
  }
  static ValueView ViewValue(const OwnedValue& value) { return value; }
  static constexpr const char* Name() { return "int64"; }
};

// ---- ByteLayout ----------------------------------------------------------

struct ByteLayout {
  static constexpr bool kHasArena = true;

  using KeyView = std::string_view;
  using OwnedKey = std::string;
  using ValueView = std::string_view;
  using OwnedValue = std::string;
  using PsaKey = std::uint64_t;  // normalized prefixes

  struct CellKey {
    std::uint64_t prefix = 0;  // big-endian first-8-bytes, zero padded
    std::uint32_t off = 0;     // key bytes at arena[off, off + len)
    std::uint32_t len = 0;
  };
  struct StoredValue {
    std::uint32_t off = 0;  // value bytes at arena[off, off + len)
    std::uint32_t len = 0;  // kTombstoneLen marks a tombstone record
  };
  /// Length sentinel for tombstone records (no arena bytes consumed).
  static constexpr std::uint32_t kTombstoneLen = 0xFFFFFFFFu;

  struct Probe {
    std::uint64_t prefix;
    std::string_view key;
  };

  /// The 8 bytes at `bytes` as a big-endian word, so unsigned order of two
  /// words is the lexicographic order of their bytes.
  static std::uint64_t LoadWord(const char* bytes) {
    std::uint64_t raw;
    std::memcpy(&raw, bytes, 8);
    // The memcpy'd word only needs swapping on little-endian hosts.
    if constexpr (std::endian::native == std::endian::big) return raw;
    return __builtin_bswap64(raw);
  }

  static std::uint64_t MakePrefix(KeyView key) {
    if (key.size() >= 8) return LoadWord(key.data());
    std::uint64_t prefix = 0;
    for (std::size_t i = 0; i < key.size(); ++i) {
      prefix |= static_cast<std::uint64_t>(
                    static_cast<unsigned char>(key[i]))
                << (56 - 8 * i);
    }
    return prefix;
  }

  static constexpr CellKey SentinelCellKey() { return CellKey{}; }  // ""
  // "" with a non-null data pointer: the sentinel chunk copies its min key
  // into its arena, and memcpy from a null pointer is undefined even for
  // zero bytes.
  static constexpr KeyView SentinelMinKey() { return KeyView("", 0); }
  static constexpr KeyView MinUserKey() { return KeyView("\0", 1); }
  static bool IsUserKey(KeyView key) { return !key.empty(); }

  static bool KeyLess(KeyView a, KeyView b) { return a < b; }
  static bool KeyLeq(KeyView a, KeyView b) { return a <= b; }
  static bool KeyEq(KeyView a, KeyView b) { return a == b; }

  static Probe MakeProbe(KeyView key) { return Probe{MakePrefix(key), key}; }
  static int CompareCell(const char* arena, const CellKey& cell,
                         const Probe& probe) {
    if (cell.prefix != probe.prefix) {
      return cell.prefix < probe.prefix ? -1 : 1;
    }
    // Prefix tie: the first min(|cell|, |probe|, 8) bytes agree, so when
    // either side fits the prefix entirely, length decides.  Otherwise
    // bytes 8-15 compare as one word when both keys hold them, and a
    // memcmp covers whatever common bytes remain.
    const std::size_t probe_len = probe.key.size();
    const std::size_t common = cell.len < probe_len ? cell.len : probe_len;
    const char* cell_bytes = arena + cell.off;
    std::size_t done = 8;
    if (common >= 16) {
      const std::uint64_t x = LoadWord(cell_bytes + 8);
      const std::uint64_t y = LoadWord(probe.key.data() + 8);
      if (x != y) return x < y ? -1 : 1;
      done = 16;
    }
    if (common > done) {
      const int c = std::memcmp(cell_bytes + done, probe.key.data() + done,
                                common - done);
      if (c != 0) return c < 0 ? -1 : 1;
    }
    if (cell.len == probe_len) return 0;
    return cell.len < probe_len ? -1 : 1;
  }
  static KeyView CellKeyView(const char* arena, const CellKey& cell) {
    return KeyView(arena + cell.off, cell.len);
  }

  static ValueView TombstoneValue() { return ValueView(&kTombTag, 0); }
  /// Tombstones are tagged by identity (the view's data pointer), so an
  /// empty *user* value stays a legal, distinct value.
  static bool IsTombstone(ValueView value) { return value.data() == &kTombTag; }
  static ValueView LoadValue(const char* arena, const StoredValue& sv) {
    if (sv.len == kTombstoneLen) return TombstoneValue();
    return ValueView(arena + sv.off, sv.len);
  }
  static OwnedValue OwnValue(ValueView value) { return OwnedValue(value); }
  static OwnedKey OwnKey(KeyView key) { return OwnedKey(key); }
  static KeyView ViewKey(const OwnedKey& key) { return key; }

  static std::size_t EntryArenaBytes(KeyView key, ValueView value) {
    return key.size() + (IsTombstone(value) ? 0 : value.size());
  }

  // PSA ranges are published as prefixes — conservative, never lossy: a
  // range check in the prefix domain can claim a spurious overlap (forcing
  // an unnecessary help) but never miss a real one.
  static PsaKey PsaLow(KeyView key) { return MakePrefix(key); }
  static PsaKey PsaHigh(KeyView key) { return MakePrefix(key); }
  static constexpr PsaKey PsaMin() { return 0; }
  static constexpr PsaKey PsaMax() { return ~std::uint64_t{0}; }
  static bool PsaOverlaps(KeyView from, bool bounded, KeyView to_exclusive,
                          PsaKey entry_from, PsaKey entry_to) {
    // key <= k for all scanned k => prefix(key) <= entry_to is necessary
    // for overlap; distinct keys share prefixes, so ties stay "overlaps".
    return MakePrefix(from) <= entry_to &&
           (!bounded || entry_from <= MakePrefix(to_exclusive));
  }

  static std::uint64_t TraceKey(KeyView key) { return MakePrefix(key); }
  static std::uint64_t TraceValue(ValueView value) {
    return IsTombstone(value) ? ~std::uint64_t{0} : value.size();
  }
  static ValueView ViewValue(const OwnedValue& value) { return value; }
  static constexpr const char* Name() { return "bytes"; }

 private:
  inline static const char kTombTag = '\0';
};

}  // namespace kiwi::core
