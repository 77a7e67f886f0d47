// kiwi_fuzz: linearizability fuzzer driver.
//
//   kiwi_fuzz                          # sweep seeds 1..N on the clean tree
//   kiwi_fuzz --seed=42                # replay one seed (also KIWI_FUZZ_SEED)
//   kiwi_fuzz --mutant=skip_scan_publish --expect-violation
//                                      # prove the harness catches a mutant
//
// Exit codes: 0 = clean sweep (or, with --expect-violation, the mutant WAS
// detected); 1 = violation/crash found (or mutant escaped detection);
// 2 = usage error.
//
// With --expect-violation each round runs in a forked child so that
// assertion aborts (some mutants die in KIWI_ASSERT rather than producing a
// checkable history) count as detections.  See docs/TESTING.md.

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/test_hooks.h"
#include "core/chunk.h"
#include "fuzz/fuzzer.h"
#include "fuzz/scenario.h"
#include "obs/trace.h"

namespace {

using kiwi::TestHooks;
using kiwi::fuzz::DumpFailureArtifacts;
using kiwi::fuzz::Minimize;
using kiwi::fuzz::MinimizeResult;
using kiwi::fuzz::ReproLine;
using kiwi::fuzz::RoundParams;
using kiwi::fuzz::RoundResult;
using kiwi::fuzz::RunRound;
using kiwi::fuzz::Schedule;
using kiwi::fuzz::SiteAction;

struct Options {
  RoundParams params;
  bool seed_fixed = false;   // --seed / KIWI_FUZZ_SEED given: run exactly it
  std::uint64_t seeds = 20;  // sweep width when no fixed seed
  std::uint64_t budget_s = 0;  // 0 = unlimited
  bool expect_violation = false;
  bool minimize = true;
  std::string artifact_dir;
  std::string scenario;  // directed scenario instead of seeded rounds
};

/// Seed the crash handler prints so an aborting round is still reproducible.
std::atomic<std::uint64_t> g_current_seed{0};

#if KIWI_TRACE_ENABLED
void CrashSeedReport(void*, int fd) {
  char buf[96];
  const int n = std::snprintf(
      buf, sizeof(buf), "\nkiwi_fuzz repro: KIWI_FUZZ_SEED=%llu\n",
      static_cast<unsigned long long>(
          g_current_seed.load(std::memory_order_relaxed)));
  if (n > 0) {
    const ssize_t ignored = write(fd, buf, static_cast<std::size_t>(n));
    (void)ignored;
  }
}
#endif  // KIWI_TRACE_ENABLED

void Usage(FILE* to) {
  std::fprintf(
      to,
      "usage: kiwi_fuzz [options]\n"
      "  --seed=N            run exactly this seed (env: KIWI_FUZZ_SEED)\n"
      "  --seeds=N           seeds to sweep when --seed absent (default 20)\n"
      "  --budget-s=N        wall-clock budget in seconds (default: none)\n"
      "  --threads=N         worker threads per round (default 4)\n"
      "  --ops=N             ops per thread (default 100)\n"
      "  --keys=N            keyspace size (default 16)\n"
      "  --chunk-capacity=N  chunk capacity (default 8)\n"
      "  --mix=P:R:G         op mix percent put:remove:get, rest scans\n"
      "                      (default 35:15:30)\n"
      "  --batch-pct=N       PutBatch share of the mix, carved out of the\n"
      "                      scan remainder (default 0: batches off)\n"
      "  --batch-max=N       max entries per fuzzed batch (default 6)\n"
      "  --scan-from-pct=N   ScanFrom (unbounded scan) share of the mix,\n"
      "                      carved out of the scan remainder (default 0)\n"
      "  --snapshot-pct=N    Snapshot share of the mix: open a view, read a\n"
      "                      range through it in two halves, close it before\n"
      "                      the thread's next write (default 0)\n"
      "  --bytes             fuzz KiWiByteMap: keys go through an\n"
      "                      order-preserving byte codec sharing one 8-byte\n"
      "                      prefix, so every comparison reads the arena\n"
      "                      bytes past it (checker unchanged)\n"
      "  --max-engaged=N     max chunks engaged per rebalance (default 8)\n"
      "  --site-mask=M       restrict perturbed hook sites (bitmask)\n"
      "  --force-site=I:A:P:N  pin site I to action A (yield|sleep|spin)\n"
      "                      with probability P%% and intensity N\n"
      "                      (repeatable; see --list-sites for indices)\n"
      "  --mutant=NAME       enable a mutant (repeatable; see "
      "--list-mutants)\n"
      "  --mutant-mask=M     enable mutants by raw bitmask\n"
      "  --scenario=NAME     run a directed deterministic scenario instead\n"
      "                      of seeded rounds (see --list-scenarios)\n"
      "  --expect-violation  exit 0 iff a violation/crash IS found "
      "(fork-per-round)\n"
      "  --artifact-dir=DIR  failure artifact dir (env: "
      "KIWI_FUZZ_ARTIFACT_DIR)\n"
      "  --no-minimize       skip schedule minimization on failure\n"
      "  --list-mutants      list mutant names and exit\n"
      "  --list-sites        list perturbation hook sites and exit\n");
}

bool ParseU64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 0);
  return end != s && *end == '\0';
}

/// A percentage: an integer in [0, 100].
bool ParsePct(const std::string& s, std::uint32_t& out) {
  std::uint64_t v = 0;
  if (!ParseU64(s.c_str(), v) || v > 100) return false;
  out = static_cast<std::uint32_t>(v);
  return true;
}

/// "a:b:c" -> {"a", "b", "c"}: the --mix and --force-site specs.
std::vector<std::string> SplitColons(const std::string& spec) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  for (std::size_t colon; (colon = spec.find(':', start)) != std::string::npos;
       start = colon + 1) {
    parts.push_back(spec.substr(start, colon - start));
  }
  parts.push_back(spec.substr(start));
  return parts;
}

/// "I:A:P:N" -> forced site config (see --force-site in Usage()).
bool ParseForceSite(const char* s, RoundParams::SiteOverride& out) {
  const std::vector<std::string> parts = SplitColons(s);
  std::uint64_t site = 0, intensity = 0;
  std::uint32_t prob = 0;
  if (parts.size() != 4 || !ParseU64(parts[0].c_str(), site) ||
      site >= TestHooks::kSiteCount || !ParsePct(parts[2], prob) ||
      !ParseU64(parts[3].c_str(), intensity)) {
    return false;
  }
  SiteAction action = SiteAction::kOff;  // not a valid pin
  for (const SiteAction a :
       {SiteAction::kYield, SiteAction::kSleep, SiteAction::kSpin}) {
    if (parts[1] == kiwi::fuzz::ActionName(a)) action = a;
  }
  if (action == SiteAction::kOff) return false;
  out.site = static_cast<std::uint32_t>(site);
  out.config.action = action;
  out.config.probability_pct = static_cast<std::uint8_t>(prob);
  out.config.intensity = static_cast<std::uint32_t>(intensity);
  return true;
}

int ParseArgs(int argc, char** argv, Options& opt) {
  if (const char* env = std::getenv("KIWI_FUZZ_SEED")) {
    if (ParseU64(env, opt.params.seed)) opt.seed_fixed = true;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    std::uint64_t v = 0;
    if (const char* s = value("--seed=")) {
      if (!ParseU64(s, opt.params.seed)) return 2;
      opt.seed_fixed = true;
    } else if (const char* s = value("--seeds=")) {
      if (!ParseU64(s, opt.seeds) || opt.seeds == 0) return 2;
    } else if (const char* s = value("--budget-s=")) {
      if (!ParseU64(s, opt.budget_s)) return 2;
    } else if (const char* s = value("--threads=")) {
      // The driver thread holds a thread-registry slot of its own.
      if (!ParseU64(s, v) || v == 0 || v > kiwi::kMaxThreads - 1) {
        std::fprintf(stderr, "--threads must be in [1, %zu]\n",
                     kiwi::kMaxThreads - 1);
        return 2;
      }
      opt.params.threads = static_cast<std::uint32_t>(v);
    } else if (const char* s = value("--ops=")) {
      if (!ParseU64(s, v) || v == 0) return 2;
      opt.params.ops_per_thread = static_cast<std::uint32_t>(v);
    } else if (const char* s = value("--keys=")) {
      if (!ParseU64(s, v) || v == 0) return 2;
      opt.params.keys = static_cast<std::uint32_t>(v);
    } else if (const char* s = value("--chunk-capacity=")) {
      // Cell indices must fit the PPA word's 16-bit cell field.
      using kiwi::core::PendingPuts;
      if (!ParseU64(s, v) || v < 2 || v >= PendingPuts::kNoCell) {
        std::fprintf(stderr, "--chunk-capacity must be in [2, %u]\n",
                     PendingPuts::kNoCell - 1);
        return 2;
      }
      opt.params.chunk_capacity = static_cast<std::uint32_t>(v);
    } else if (const char* s = value("--max-engaged=")) {
      if (!ParseU64(s, v) || v == 0) return 2;
      opt.params.max_engaged_chunks = static_cast<std::uint32_t>(v);
    } else if (const char* s = value("--mix=")) {
      const std::vector<std::string> parts = SplitColons(s);
      if (parts.size() != 3 || !ParsePct(parts[0], opt.params.put_pct) ||
          !ParsePct(parts[1], opt.params.remove_pct) ||
          !ParsePct(parts[2], opt.params.get_pct)) {
        std::fprintf(stderr, "bad --mix spec '%s' (want PUT:REMOVE:GET)\n", s);
        return 2;
      }
    } else if (const char* s = value("--batch-pct=")) {
      if (!ParsePct(s, opt.params.batch_pct)) return 2;
    } else if (const char* s = value("--scan-from-pct=")) {
      if (!ParsePct(s, opt.params.scan_from_pct)) return 2;
    } else if (const char* s = value("--snapshot-pct=")) {
      if (!ParsePct(s, opt.params.snapshot_pct)) return 2;
    } else if (const char* s = value("--batch-max=")) {
      if (!ParseU64(s, v) || v == 0) return 2;
      opt.params.max_batch = static_cast<std::uint32_t>(v);
    } else if (arg == "--bytes") {
      opt.params.byte_keys = true;
    } else if (const char* s = value("--site-mask=")) {
      if (!ParseU64(s, opt.params.site_mask)) return 2;
    } else if (const char* s = value("--force-site=")) {
      RoundParams::SiteOverride forced;
      if (!ParseForceSite(s, forced)) {
        std::fprintf(stderr, "bad --force-site spec '%s'\n", s);
        return 2;
      }
      opt.params.forced_sites.push_back(forced);
    } else if (const char* s = value("--mutant-mask=")) {
      if (!ParseU64(s, v) || v >> TestHooks::kMutantCount != 0) {
        std::fprintf(stderr, "bad --mutant-mask '%s' (see --list-mutants)\n",
                     s);
        return 2;
      }
      opt.params.mutants |= static_cast<std::uint32_t>(v);
    } else if (const char* s = value("--mutant=")) {
      bool known = false;
      for (std::size_t m = 0; m < TestHooks::kMutantCount; ++m) {
        if (std::strcmp(s, TestHooks::kMutantNames[m]) == 0) {
          opt.params.mutants |= 1u << m;
          known = true;
        }
      }
      if (!known) {
        std::fprintf(stderr, "unknown mutant '%s' (see --list-mutants)\n", s);
        return 2;
      }
    } else if (const char* s = value("--artifact-dir=")) {
      opt.artifact_dir = s;
    } else if (arg == "--expect-violation") {
      opt.expect_violation = true;
    } else if (arg == "--no-minimize") {
      opt.minimize = false;
    } else if (const char* s = value("--scenario=")) {
      bool known = false;
      for (const char* name : kiwi::fuzz::ScenarioNames()) {
        if (std::strcmp(s, name) == 0) known = true;
      }
      if (!known) {
        std::fprintf(stderr, "unknown scenario '%s' (see --list-scenarios)\n",
                     s);
        return 2;
      }
      opt.scenario = s;
    } else if (arg == "--list-scenarios") {
      for (const char* name : kiwi::fuzz::ScenarioNames()) {
        std::printf("%s\n", name);
      }
      return -1;
    } else if (arg == "--list-mutants") {
      for (std::size_t m = 0; m < TestHooks::kMutantCount; ++m) {
        std::printf("%-24s 0x%x\n", TestHooks::kMutantNames[m], 1u << m);
      }
      return -1;
    } else if (arg == "--list-sites") {
      for (std::size_t j = 0; j < TestHooks::kSiteCount; ++j) {
        std::printf("%zu  %s\n", j, TestHooks::kSiteNames[j]);
      }
      return -1;
    } else if (arg == "--help" || arg == "-h") {
      Usage(stdout);
      return -1;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      Usage(stderr);
      return 2;
    }
  }
  const RoundParams& p = opt.params;
  const std::uint64_t shares = std::uint64_t{p.put_pct} + p.remove_pct +
                               p.get_pct + p.batch_pct + p.scan_from_pct +
                               p.snapshot_pct;
  if (shares > 100) {
    std::fprintf(stderr,
                 "--mix, --batch-pct, --scan-from-pct and --snapshot-pct "
                 "total %llu%% (max 100)\n",
                 static_cast<unsigned long long>(shares));
    return 2;
  }
  return 0;
}

/// One failing round in the main process: minimize, dump, report.
int HandleFailure(const Options& opt, RoundParams params,
                  RoundResult result) {
  std::printf("VIOLATION seed=%llu: %s\n",
              static_cast<unsigned long long>(params.seed),
              result.message.c_str());
  if (opt.minimize) {
    std::printf("minimizing (this re-runs the failing schedule)...\n");
    const MinimizeResult min = Minimize(params, /*retries=*/8,
                                        /*max_rounds=*/200);
    if (min.reproduced) {
      params = min.params;
      std::printf("minimized: site_mask=0x%llx ops=%u (%u rounds spent)\n",
                  static_cast<unsigned long long>(min.site_mask),
                  params.ops_per_thread, min.rounds_spent);
      RoundResult again = RunRound(params);
      if (!again.ok) result = std::move(again);
    } else {
      std::printf("failure did not re-fire during minimization; "
                  "keeping the original round\n");
    }
  }
  if (auto path = DumpFailureArtifacts(params, result, opt.artifact_dir)) {
    std::printf("artifacts: %s\n", path->c_str());
  } else {
    std::printf("artifact dump failed (check --artifact-dir)\n");
  }
  std::printf("repro: %s\n", ReproLine(params).c_str());
  return 1;
}

/// Runs `body` (0 = consistent, non-zero = violation) in a forked child.
/// True when the child found a violation OR died (assert/crash) — either
/// way the harness detected the defect.
template <typename Body>
bool DetectsInChild(Body body) {
  const pid_t pid = fork();
  if (pid == 0) _exit(body());
  if (pid < 0) {
    std::perror("fork");
    std::exit(2);
  }
  int status = 0;
  waitpid(pid, &status, 0);
  if (WIFSIGNALED(status)) {
    std::printf("  child died with signal %d (detection)\n",
                WTERMSIG(status));
    return true;
  }
  return WIFEXITED(status) && WEXITSTATUS(status) != 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  const int parsed = ParseArgs(argc, argv, opt);
  if (parsed == -1) return 0;
  if (parsed != 0) return parsed;

#if KIWI_TRACE_ENABLED
  kiwi::obs::trace::InstallCrashHandler();
  kiwi::obs::trace::SetCrashReportCallback(&CrashSeedReport, nullptr);
#endif
  if (!opt.artifact_dir.empty()) {
    setenv("KIWI_FUZZ_ARTIFACT_DIR", opt.artifact_dir.c_str(), 1);
  }

  const auto start = std::chrono::steady_clock::now();
  auto budget_left = [&] {
    if (opt.budget_s == 0) return true;
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return elapsed < std::chrono::seconds(opt.budget_s);
  };

  const std::uint64_t first = opt.params.seed;
  const std::uint64_t count = opt.seed_fixed ? 1 : opt.seeds;

  if (!opt.scenario.empty()) {
    // Directed scenarios are deterministic: one run decides.  Mutants that
    // die in an assert instead of corrupting data still count as detected,
    // so expect-violation mode forks the scenario like a seeded round.
    TestHooks::ScopedMutants mutants(opt.params.mutants);
    auto run_scenario = [&]() -> int {  // 0 = consistent, 1 = violation
      const kiwi::fuzz::ScenarioResult r =
          kiwi::fuzz::RunScenario(opt.scenario);
      if (!r.message.empty()) {
        std::printf("scenario %s: %s\n", opt.scenario.c_str(),
                    r.message.c_str());
        std::fflush(stdout);
      }
      return r.ok ? 0 : 1;
    };
    if (!opt.expect_violation) {
      const int rc = run_scenario();
      if (rc == 0) std::printf("scenario %s: consistent\n",
                               opt.scenario.c_str());
      return rc;
    }
    const bool detected = DetectsInChild(run_scenario);
    std::printf("scenario %s: mutant-mask=0x%x %s\n", opt.scenario.c_str(),
                opt.params.mutants, detected ? "DETECTED" : "NOT detected");
    return detected ? 0 : 1;
  }

  if (opt.expect_violation) {
    std::printf("expect-violation mode: mutant-mask=0x%x, up to %llu seeds\n",
                opt.params.mutants, static_cast<unsigned long long>(count));
    for (std::uint64_t i = 0; i < count && budget_left(); ++i) {
      RoundParams params = opt.params;
      params.seed = first + i;
      g_current_seed.store(params.seed, std::memory_order_relaxed);
      const bool detected = DetectsInChild([&params] {
        const RoundResult r = RunRound(params);
        if (r.ok) return 0;
        std::printf("  child seed=%llu: %s\n",
                    static_cast<unsigned long long>(params.seed),
                    r.message.c_str());
        std::fflush(stdout);
        return 1;
      });
      if (detected) {
        std::printf("DETECTED at seed=%llu\n",
                    static_cast<unsigned long long>(params.seed));
        return 0;
      }
    }
    std::printf("mutant NOT detected within budget\n");
    return 1;
  }

  std::uint64_t ran = 0;
  for (std::uint64_t i = 0; i < count && budget_left(); ++i) {
    RoundParams params = opt.params;
    params.seed = first + i;
    g_current_seed.store(params.seed, std::memory_order_relaxed);
    RoundResult result = RunRound(params);
    ++ran;
    if (!result.ok) return HandleFailure(opt, params, std::move(result));
  }
  std::printf("clean: %llu round%s, no violations\n",
              static_cast<unsigned long long>(ran), ran == 1 ? "" : "s");
  return 0;
}
