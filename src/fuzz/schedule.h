// Seeded schedule perturbation for the linearizability fuzzer.
//
// A Schedule maps every TestHooks site to an action (off / yield / short
// sleep / spin) with a firing probability and intensity, all derived
// deterministically from one 64-bit seed.  PerturbationEngine installs one
// hook at every active site; when a thread passes the site, a
// thread-local PRNG (seeded from the schedule seed and a deterministic
// thread ordinal) decides whether and how hard to stall.
//
// Determinism: the same seed always produces the same schedule and the same
// per-thread decision streams.  The OS still schedules threads, so replay
// reproduces the *distribution* of interleavings, not one exact execution —
// in practice failing seeds re-fail within a few iterations (CI replays with
// the seed's full round budget).
//
// The minimizer (fuzz/fuzzer.h) shrinks a failing schedule by masking sites
// off, which is why actions are per-site rather than global.
#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "common/test_hooks.h"

namespace kiwi::fuzz {

enum class SiteAction : std::uint8_t { kOff, kYield, kSleep, kSpin };

/// "off" / "yield" / "sleep" / "spin" (repro lines, --force-site specs).
const char* ActionName(SiteAction a);

struct SiteConfig {
  SiteAction action = SiteAction::kOff;
  /// Probability (percent, 0-100) that a pass through the site stalls.
  std::uint8_t probability_pct = 0;
  /// Action strength: yield repetitions, sleep microseconds, or spin
  /// iterations (x64 pause-loop steps).
  std::uint32_t intensity = 0;
};

struct Schedule {
  std::uint64_t seed = 0;
  std::array<SiteConfig, TestHooks::kSiteCount> sites;

  /// Derive a full schedule from a seed.  Roughly half the sites end up
  /// active; actions and strengths are drawn per site.
  static Schedule FromSeed(std::uint64_t seed);

  /// Bitmask of active (non-kOff) sites, for minimization bookkeeping.
  std::uint64_t ActiveMask() const;

  /// Turn the masked-out sites off (minimizer support).
  Schedule WithActiveMask(std::uint64_t mask) const;

  /// One-line human rendering, e.g. "seed=0xdead sites: 0:yield(p40,i3) ...".
  std::string Describe() const;
};

/// Installs the schedule into TestHooks on construction, clears all sites on
/// destruction.  At most one engine may be live at a time (the installed
/// hook reaches it through a single global).  Not thread-safe to
/// construct/destruct while worker threads are inside the map.
class PerturbationEngine {
 public:
  explicit PerturbationEngine(const Schedule& schedule);
  ~PerturbationEngine();

  PerturbationEngine(const PerturbationEngine&) = delete;
  PerturbationEngine& operator=(const PerturbationEngine&) = delete;

  /// Called by the installed hook when a thread passes `site`.
  void Fire(TestHooks::Site site);

 private:
  Schedule schedule_;
};

}  // namespace kiwi::fuzz
