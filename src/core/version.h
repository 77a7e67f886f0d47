// Global version (GV) and Pending Scan Array (PSA) — paper §3.1/§3.2.
//
// KiWi's version numbering is driven by *scans*: a put reads GV without
// incrementing it, a scan fetch-and-increments GV and uses the fetched value
// as its read point.  Because a scan cannot atomically {F&I GV, publish the
// result in its PSA entry}, the PSA entry goes through a "pending" state (the
// paper's `?`) that concurrent rebalances help resolve; a per-entry sequence
// number defeats the ABA where a stalled rebalance would install a stale
// version into a *later* read point published in the same entry
// ("monotonically increasing counters are used to prevent ABA races").
//
// The {version, sequence} pair is a single 16-byte atomic so the helping CAS
// covers both fields (cmpxchg16b on x86-64; GCC routes through libatomic).
#pragma once

#include <atomic>
#include <cstdint>

#include "common/config.h"
#include "common/padded.h"

namespace kiwi::core {

/// Version constants.  Real versions start at 1.
inline constexpr Version kNoVersion = 0;
inline constexpr Version kPendingVersion = ~Version{0};  // the paper's `?`
/// Largest version a read may pass as its bound: just below the PPA's
/// 48-bit FROZEN marker.  Gets read at this version ("findLatest(key, ∞)").
inline constexpr Version kMaxReadVersion = (Version{1} << 48) - 2;

/// The global version counter, alone on its cache line: every scan F&Is it
/// and every put reads it.
class GlobalVersion {
 public:
  /// Current version; used by puts (which do *not* increment).
  Version Load() const { return value_.value.load(std::memory_order_seq_cst); }

  /// Fetch-and-increment; used by scans and by rebalances helping scans.
  Version FetchIncrement() {
    return value_.value.fetch_add(1, std::memory_order_seq_cst);
  }

 private:
  PaddedAtomic<Version> value_{/*value=*/{1}};
};

/// One PSA slot.  Owned (published/cleared) by one holder at a time, a
/// thread or a Snapshot view; helped by any.  Its sequence counter keeps
/// rising across holders, so the ABA guard survives a change of owner.
/// Templated on the published range-bound domain: the int64 map publishes
/// exact keys, the byte map publishes normalized 8-byte key prefixes (see
/// core/layout.h — prefix bounds are conservative but never lossy).
template <typename PsaKey>
class PsaEntryT {
 public:
  struct VerSeq {
    Version ver;
    std::uint64_t seq;
    friend bool operator==(const VerSeq&, const VerSeq&) = default;
  };

  /// -- owner-side protocol --------------------------------------------

  /// Step 1 of a scan: announce intent with range [from, to] and a fresh
  /// sequence number.  Returns that sequence number.
  std::uint64_t PublishPending(PsaKey from, PsaKey to) {
    const std::uint64_t seq = next_seq_++;
    // Range is published before the pending word; helpers read the word
    // first (acquire) and the range after, so they never act on a stale
    // pending word with a fresh range.
    from_.store(from, std::memory_order_relaxed);
    to_.store(to, std::memory_order_relaxed);
    ver_seq_.store(VerSeq{kPendingVersion, seq}, std::memory_order_seq_cst);
    return seq;
  }

  /// Step 2: try to install the version this scan fetched from GV.  Failure
  /// means a rebalance already helped; either way the entry now holds the
  /// authoritative read point, returned here.
  Version InstallOwn(std::uint64_t seq, Version fetched) {
    VerSeq expected{kPendingVersion, seq};
    ver_seq_.compare_exchange_strong(expected, VerSeq{fetched, seq},
                                     std::memory_order_seq_cst);
    return ver_seq_.load(std::memory_order_seq_cst).ver;
  }

  /// Step 3, after the scan: deactivate the entry.
  void Clear(std::uint64_t seq) {
    ver_seq_.store(VerSeq{kNoVersion, seq}, std::memory_order_seq_cst);
  }

  /// -- helper-side (rebalance) protocol --------------------------------

  VerSeq Load() const { return ver_seq_.load(std::memory_order_seq_cst); }

  PsaKey From() const { return from_.load(std::memory_order_relaxed); }
  PsaKey To() const { return to_.load(std::memory_order_relaxed); }

  /// CAS {pending, seq} -> {ver, seq}.  Safe against the owner having moved
  /// on: a newer scan uses a larger seq, so the compare fails.
  bool HelpInstall(std::uint64_t seq, Version ver) {
    VerSeq expected{kPendingVersion, seq};
    return ver_seq_.compare_exchange_strong(expected, VerSeq{ver, seq},
                                            std::memory_order_seq_cst);
  }

 private:
  std::atomic<VerSeq> ver_seq_{VerSeq{kNoVersion, 0}};
  std::atomic<PsaKey> from_{0};
  std::atomic<PsaKey> to_{0};
  std::uint64_t next_seq_ = 1;  // holder-only; passed on with the slot
};

/// The fixed-width map's entry (and the VerSeq protocol tests').
using PsaEntry = PsaEntryT<Key>;

/// True when the 16-byte PSA pair CAS is a native instruction.
bool PsaPairIsLockFree();

/// A PSA: `N` padded entries, one per thread slot or per Snapshot slot.
template <typename PsaKey, std::size_t N = kMaxThreads>
class PsaT {
 public:
  using Entry = PsaEntryT<PsaKey>;

  Entry& Slot(std::size_t slot) { return entries_[slot].value; }
  const Entry& Slot(std::size_t slot) const { return entries_[slot].value; }

 private:
  Padded<Entry> entries_[N];
};

using Psa = PsaT<Key>;

}  // namespace kiwi::core
