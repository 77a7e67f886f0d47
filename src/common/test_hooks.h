// Test-only failure injection points and mutant switches.
//
// Concurrency races the paper reasons about (a put stalling between
// publishing in the PPA and acquiring a version; a rebalancer stalling
// between freeze and build; a helper stalling before the splice) have
// windows of a few instructions — too narrow for a scheduler to hit
// reliably.  Tests widen them by installing a hook (typically a yield or a
// short sleep) at the exact point.  Default is a single relaxed load per
// site: negligible next to the adjacent fenced atomics.
//
// The schedule fuzzer (src/fuzz/schedule.h) drives every site at once with
// seeded random perturbations; a hook is told which site fired, so the
// fuzzer and its minimizer install one function everywhere and need no
// per-site knowledge.
//
// Mutants re-break fixed bugs on demand (see docs/TESTING.md): each bit of
// `mutants` re-introduces one historical or paper-derived defect so the
// linearizability fuzzer can prove it still has teeth.  The check is one
// relaxed load on the affected path, zero when the mask is never set.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iterator>

// Every hook site, one row each: X(id, name).  The row index is the site's
// stable id in schedules, --site-mask / --force-site, minimized repros and
// the hook-site map in docs/TESTING.md; append new rows at the end.
#define KIWI_TEST_HOOK_SITES(X)                                             \
  /* Put published its cell in the PPA but has not yet CASed a version —    \
     the window scans/gets must help across (paper Figure 2). */            \
  X(kPutBeforeVersionCas, "put_before_version_cas")                         \
  /* Rebalance froze the engaged chunks but has not yet built replacements  \
     — puts landing here must restart, reads must still be served. */       \
  X(kRebalanceAfterFreeze, "rebalance_after_freeze")                        \
  /* Replacement section agreed but not yet spliced — the longest window    \
     in which old and new chunks coexist. */                                \
  X(kReplaceBeforeSplice, "replace_before_splice")                          \
  /* Scan published its pending PSA entry but has not yet                   \
     fetched/installed its version — the window rebalance must help across  \
     (paper lines 91-95); a stall here forces helpers to install the        \
     scan's read point. */                                                  \
  X(kScanBeforeVersionInstall, "scan_before_version_install")               \
  /* Get finished helping pending puts but has not yet read — a version     \
     installed (by us or a racing helper) must be visible to this read and  \
     to every later read (paper Figure 2's get/scan ordering). */           \
  X(kGetAfterHelp, "get_after_help")                                        \
  /* Rebalance spliced the replacement section but has not yet fixed the    \
     index — lazy-index lookups race the update (stage 6). */               \
  X(kRebalanceBeforeIndexUpdate, "rebalance_before_index_update")           \
  /* Inside the engage loop, between observing ro->next and attempting the  \
     engagement CAS — the window in which competing helpers observe         \
     different engaged-run lengths (what the last_engaged consensus,        \
     DESIGN.md deviation 9, exists to reconcile). */                        \
  X(kRebalanceDuringEngage, "rebalance_during_engage")                      \
  /* An object (chunk, rebalance object) is about to be handed to EBR —     \
     readers holding guards may still traverse it; widening this window     \
     stresses grace-period correctness and the slab-recycling pool. */      \
  X(kEbrBeforeRetire, "ebr_before_retire")

// Every mutant, one row each: X(id, name).  Row i is mask bit i (docs/
// TESTING.md lists each with its mask); append new rows at the end.
#define KIWI_TEST_MUTANTS(X)                                                \
  /* Revert the `ro->last_engaged` consensus (DESIGN.md deviation 9a):      \
     every rebalance helper acts on its own view of the engaged run (the    \
     seed tree's latent double-retire race). */                             \
  X(kLastEngagedRace, "last_engaged_race")                                  \
  /* Scan takes a read point without publishing a pending PSA entry, so     \
     rebalance cannot see (or help) it — compaction may drop versions the   \
     scan still needs (the Enhancing-KiWi scan-publication ordering bug     \
     class). */                                                             \
  X(kSkipScanPublish, "skip_scan_publish")                                  \
  /* Get skips helping pending puts before reading (paper Figure 2's        \
     required get-side helping). */                                         \
  X(kSkipGetHelp, "skip_get_help")                                          \
  /* Rebalance compaction drops a tombstone and everything older            \
     unconditionally — the paper's literal pseudocode, reverting DESIGN.md  \
     deviation 1 (can lose a value a pending scan still needs). */          \
  X(kEagerTombstonePurge, "eager_tombstone_purge")                          \
  /* Rebalance's ComputeMinVersion skips the Snapshot slots, so compaction  \
     may drop versions an open Snapshot view still reads. */                \
  X(kSkipSnapshotPins, "skip_snapshot_pins")

namespace kiwi {

struct TestHooks {
#define KIWI_TEST_ID(id, name) id,
#define KIWI_TEST_NAME(id, name) name,
  enum Site : std::uint32_t { KIWI_TEST_HOOK_SITES(KIWI_TEST_ID) };
  static constexpr const char* kSiteNames[] = {
      KIWI_TEST_HOOK_SITES(KIWI_TEST_NAME)};
  static constexpr std::size_t kSiteCount = std::size(kSiteNames);

  static const char* SiteName(Site site) { return kSiteNames[site]; }

  /// A hook is told which site fired.
  using Hook = void (*)(Site);

  /// One slot per site; null means the site does nothing.
  static inline std::atomic<Hook> hooks[kSiteCount];

  static void Run(Site site) {
    if (Hook hook = hooks[site].load(std::memory_order_relaxed)) hook(site);
  }

  // ---- mutants ---------------------------------------------------------

  /// Row i of KIWI_TEST_MUTANTS is mask bit 1 << i.
  struct MutantRow {
    enum : std::uint32_t { KIWI_TEST_MUTANTS(KIWI_TEST_ID) };
  };
#define KIWI_TEST_BIT(id, name) id = 1u << MutantRow::id,
  enum Mutant : std::uint32_t { KIWI_TEST_MUTANTS(KIWI_TEST_BIT) };
#undef KIWI_TEST_BIT
  static constexpr const char* kMutantNames[] = {
      KIWI_TEST_MUTANTS(KIWI_TEST_NAME)};
  static constexpr std::size_t kMutantCount = std::size(kMutantNames);
#undef KIWI_TEST_ID
#undef KIWI_TEST_NAME

  static inline std::atomic<std::uint32_t> mutants{0};

  static bool MutantEnabled(Mutant m) {
    return (mutants.load(std::memory_order_relaxed) & m) != 0;
  }

  /// RAII installer for one site.
  class Scoped {
   public:
    Scoped(Site site, Hook hook) : site_(site) {
      hooks[site_].store(hook, std::memory_order_relaxed);
    }
    ~Scoped() { hooks[site_].store(nullptr, std::memory_order_relaxed); }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

   private:
    Site site_;
  };

  /// RAII installer for a mutant mask (replaces the whole mask; nesting
  /// scopes would be a test bug, so the previous mask is asserted clear by
  /// restore-to-zero semantics).
  class ScopedMutants {
   public:
    explicit ScopedMutants(std::uint32_t mask) {
      mutants.store(mask, std::memory_order_relaxed);
    }
    ~ScopedMutants() { mutants.store(0, std::memory_order_relaxed); }
    ScopedMutants(const ScopedMutants&) = delete;
    ScopedMutants& operator=(const ScopedMutants&) = delete;
  };
};

}  // namespace kiwi
