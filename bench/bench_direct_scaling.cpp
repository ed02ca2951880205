// Direct-engine scaling: ns/txn for the single-pass RC/RA/PSI checkers
// (checker::check_direct, forced via CheckOptions::engine) against the graph
// engine on the same compiled histories, from 10^3 to 10^6 transactions.
//
// The workload is a clean session-sharded history shaped like a store run:
// monotone commit timestamps, every read observing the latest committed
// writer of its key, so the commit order itself is a valid execution at
// every level. Both engines get the store's authoritative version order
// (per-key writers in commit order) — the configuration `crooks-check`
// audits under, and the one where the graph engine is complete for the
// weak levels: it compiles install orders, detects Adya phenomena, builds
// the serialization graph, and extracts a verified topological witness.
// The direct engine answers the same question in one forward sweep with
// per-key frontiers; the measured gap is everything the sweep never
// materializes. SAT is the right shape for a scaling bench: both engines
// must do their full per-transaction work on every history instead of
// bailing at the first refuted read.
//
// Rows: {rc,ra,psi} x {direct,graph}. RC/RA run 10^3..10^6; PSI stops at
// 10^4 — its verification builds the quadratic-bit precedence closure
// (n^2/8 bytes), and the direct engine's own saturation gate
// (kDirectPsiMaxTxns) declines past 16384 transactions rather than pretend
// the pass is still linear. A ser_graph row (10^3..10^5) times the offline
// version-order path at Serializable, which the direct tier does not serve:
// ranked install orders, G1c/G2 over strongly connected components, and a
// verified topological witness. The sser_graph row adds StrictSerializable's
// real-time order, which the graph carries as a linear time chain, not as
// its Θ(n²) pairs; ser_graph_violated plants one stale read (a lost update)
// so the Serializable check refutes and renders the explanation cycle.
// ns_per_txn is computed from the best (minimum) per-iteration wall time,
// the stable signal on a shared host; CI gates direct RC/RA and the three
// graph rows' flatness (ns_per_txn at 10^5 within 2x of 10^3) on it.
//
// Verdict parity is asserted at startup: on each benched history size both
// engines must return SAT with a witness that passes the canonical commit
// tests, and on a small fuzzed battery (dangling reads, phantoms) the two
// engines must match the exhaustive oracle's verdict exactly. A bench
// binary must never time an engine that changes answers. Export:
//   --benchmark_format=json > BENCH_checker_direct.json
// When CROOKS_OBS_METRICS_JSON names a file the final registry scrape is
// written there; CI asserts crooks_direct_checks_total > 0 on it (the
// forced-direct rows really did run the direct engine, not a fallback).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "checker/checker.hpp"
#include "model/compiled.hpp"
#include "model/transaction.hpp"
#include "obs/metrics.hpp"
#include "workload/observations.hpp"

using namespace crooks;
using L = ct::IsolationLevel;

namespace {

constexpr std::size_t kKeys = 256;
constexpr std::size_t kSessions = 8;

/// Deterministic splitmix-style step, so the key pattern is stable across
/// runs without seeding anything from the clock.
std::uint64_t mix(std::uint64_t& s) {
  s += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// n transactions over kKeys keys in kSessions sessions: txn i writes one
/// key and reads one key from the latest committed writer (or the initial
/// state), with commit timestamps in id order. The commit-sorted execution
/// satisfies every level, so both engines return SAT and pay their full
/// per-transaction cost. With `stale`, the first transaction past the
/// middle whose write key already has a writer reads that key one version
/// behind instead: a lost update (G-Single, hence G2), so Serializable is
/// refuted and explained.
model::TransactionSet build_clean_history(std::size_t n, bool stale = false) {
  std::vector<model::Transaction> txns;
  txns.reserve(n);
  std::vector<TxnId> last_writer(kKeys, kInitTxn), prev_writer(kKeys, kInitTxn);
  std::uint64_t s = 0x5eed0000 + n;
  bool planted = !stale;
  for (std::uint64_t i = 1; i <= n; ++i) {
    const std::size_t wk = mix(s) % kKeys;
    std::size_t rk = mix(s) % kKeys;
    TxnId observed = last_writer[rk];
    if (!planted && i > n / 2 && last_writer[wk] != kInitTxn) {
      rk = wk;
      observed = prev_writer[wk];
      planted = true;
    }
    txns.push_back(model::TxnBuilder(i)
                       .read(Key{rk}, observed)
                       .write(Key{wk})
                       .session(SessionId{static_cast<std::uint32_t>(i % kSessions)})
                       .at(static_cast<Timestamp>(2 * i),
                           static_cast<Timestamp>(2 * i + 1))
                       .build());
    prev_writer[wk] = last_writer[wk];
    last_writer[wk] = TxnId{i};
  }
  return model::TransactionSet(std::move(txns));
}

struct Fixture {
  model::TransactionSet txns;
  model::CompiledHistory ch;
  // Authoritative install order, as a store audit would supply: per key,
  // writers in commit-timestamp order.
  std::unordered_map<Key, std::vector<TxnId>> version_order;
  explicit Fixture(std::size_t n, bool stale = false)
      : txns(build_clean_history(n, stale)), ch(txns) {
    for (std::size_t i = 0; i < txns.size(); ++i) {
      for (const model::Operation& op : txns.at(i).ops()) {
        if (op.is_write()) version_order[op.key].push_back(txns.at(i).id());
      }
    }
  }
};

/// Histories are built once per size and shared across all rows — at 10^6
/// transactions the build itself is seconds of work that must not recur.
const Fixture& fixture(std::size_t n, bool stale = false) {
  static std::map<std::pair<std::size_t, bool>, std::unique_ptr<Fixture>> cache;
  auto it = cache.find({n, stale});
  if (it == cache.end()) {
    it = cache.emplace(std::pair{n, stale}, std::make_unique<Fixture>(n, stale)).first;
  }
  return *it->second;
}

checker::CheckResult run_engine(
    L level, const model::CompiledHistory& ch, checker::EngineSelect engine,
    const std::unordered_map<Key, std::vector<TxnId>>* vo) {
  checker::CheckOptions opts;
  opts.engine = engine;
  opts.threads = 1;
  opts.version_order = vo;
  return checker::check(level, ch, opts);
}

[[noreturn]] void parity_failure(const char* what, L level, std::size_t n,
                                 const checker::CheckResult& r) {
  const std::string name(ct::name_of(level));
  std::fprintf(stderr, "engine parity failure (%s) at level %s, n=%zu: %s\n",
               what, name.c_str(), n, r.detail.c_str());
  std::abort();
}

/// Every benched (level, size) pair must be SAT under both engines with a
/// witness the canonical commit tests accept, and on a fuzzed battery of
/// small adversarial histories both engines must reproduce the exhaustive
/// oracle's verdict. Timing an engine that changes answers is worse than
/// no bench at all.
void assert_parity() {
  const std::vector<std::size_t> sizes{1000, 10000};
  for (L level : {L::kReadCommitted, L::kReadAtomic, L::kPSI}) {
    for (std::size_t n : sizes) {
      const Fixture& f = fixture(n);
      for (auto engine :
           {checker::EngineSelect::kDirect, checker::EngineSelect::kGraph}) {
        const auto r = run_engine(level, f.ch, engine, &f.version_order);
        if (!r.satisfiable()) parity_failure("expected SAT", level, n, r);
        if (!r.witness.has_value()) parity_failure("missing witness", level, n, r);
        const ct::ExecutionVerdict v =
            checker::verify_witness(level, f.ch, *r.witness);
        if (!v.ok) parity_failure(v.explanation.c_str(), level, n, r);
      }
    }
  }
  // The graph-only rows: StrictSerializable SAT with a verifying witness,
  // and the planted lost update refuted at Serializable with its G2 cycle.
  for (std::size_t n : sizes) {
    const Fixture& f = fixture(n);
    const auto r = run_engine(L::kStrictSerializable, f.ch,
                              checker::EngineSelect::kGraph, &f.version_order);
    if (!r.satisfiable() || !r.witness.has_value()) {
      parity_failure("expected SAT", L::kStrictSerializable, n, r);
    }
    const ct::ExecutionVerdict v =
        checker::verify_witness(L::kStrictSerializable, f.ch, *r.witness);
    if (!v.ok) parity_failure(v.explanation.c_str(), L::kStrictSerializable, n, r);
    const Fixture& bad = fixture(n, /*stale=*/true);
    const auto refuted = run_engine(L::kSerializable, bad.ch,
                                    checker::EngineSelect::kGraph, &bad.version_order);
    if (!refuted.unsatisfiable() || refuted.detail.find("G2") == std::string::npos) {
      parity_failure("expected a G2 refutation", L::kSerializable, n, refuted);
    }
  }
  // Adversarial small histories: dangling observations and phantoms, where
  // UNSAT verdicts and diagnoses must also line up with the oracle.
  wl::ObservationFuzzOptions fo;
  fo.transactions = 7;
  fo.keys = 4;
  fo.p_dangling = 0.1;
  fo.p_phantom = 0.05;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto f = wl::fuzz_observations(seed, fo);
    const model::CompiledHistory ch(f.txns);
    for (L level : {L::kReadCommitted, L::kReadAtomic, L::kPSI}) {
      // Both with and without the fuzzer's version order — the benched rows
      // use one, and the no-vo config exercises the heuristic graph path.
      for (const auto* vo : {&f.version_order,
                             static_cast<decltype(&f.version_order)>(nullptr)}) {
        const auto oracle =
            run_engine(level, ch, checker::EngineSelect::kExhaustive, vo);
        if (oracle.outcome == checker::Outcome::kUnknown) {
          parity_failure("oracle undecided", level, ch.size(), oracle);
        }
        for (auto engine :
             {checker::EngineSelect::kDirect, checker::EngineSelect::kGraph}) {
          const auto r = run_engine(level, ch, engine, vo);
          if (r.outcome == checker::Outcome::kUnknown) continue;  // honest pass
          if (r.outcome != oracle.outcome) {
            parity_failure("oracle disagreement", level, ch.size(), r);
          }
        }
      }
    }
  }
}

/// Per-transaction assignment rotating RC → RA → PSI by dense index: every
/// level the direct tier serves, in one history. Direct-eligible by
/// construction, so the mixed row measures the per-candidate level dispatch
/// against the uniform rows above it.
ct::LevelAssignment mixed_assignment(std::size_t n) {
  std::vector<L> column(n);
  for (std::size_t d = 0; d < n; ++d) {
    column[d] = std::array{L::kReadCommitted, L::kReadAtomic, L::kPSI}[d % 3];
  }
  return ct::LevelAssignment(L::kReadCommitted, std::move(column));
}

checker::CheckResult run_mixed(
    const ct::LevelAssignment& a, const model::CompiledHistory& ch,
    checker::EngineSelect engine,
    const std::unordered_map<Key, std::vector<TxnId>>* vo) {
  checker::CheckOptions opts;
  opts.engine = engine;
  opts.threads = 1;
  opts.version_order = vo;
  return checker::check(a, ch, opts);
}

/// Mixed-assignment parity: the direct and graph engines must reproduce the
/// exhaustive oracle's verdict under a genuinely mixed RC/RA/PSI assignment
/// on the fuzzed battery, and be SAT with a verifying witness on the benched
/// clean histories.
void assert_mixed_parity() {
  for (std::size_t n : {std::size_t{1000}, std::size_t{10000}}) {
    const Fixture& f = fixture(n);
    const ct::LevelAssignment a = mixed_assignment(n);
    for (auto engine :
         {checker::EngineSelect::kDirect, checker::EngineSelect::kGraph}) {
      const auto r = run_mixed(a, f.ch, engine, &f.version_order);
      if (!r.satisfiable()) parity_failure("mixed expected SAT", L::kPSI, n, r);
      if (!r.witness.has_value()) parity_failure("mixed missing witness", L::kPSI, n, r);
      const ct::ExecutionVerdict v = checker::verify_witness(a, f.ch, *r.witness);
      if (!v.ok) parity_failure(v.explanation.c_str(), L::kPSI, n, r);
    }
  }
  wl::ObservationFuzzOptions fo;
  fo.transactions = 7;
  fo.keys = 4;
  fo.p_dangling = 0.1;
  fo.p_phantom = 0.05;
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto f = wl::fuzz_observations(seed, fo);
    const model::CompiledHistory ch(f.txns);
    const ct::LevelAssignment a = mixed_assignment(ch.size());
    for (const auto* vo : {&f.version_order,
                           static_cast<decltype(&f.version_order)>(nullptr)}) {
      const auto oracle = run_mixed(a, ch, checker::EngineSelect::kExhaustive, vo);
      if (oracle.outcome == checker::Outcome::kUnknown) {
        parity_failure("mixed oracle undecided", L::kPSI, ch.size(), oracle);
      }
      for (auto engine :
           {checker::EngineSelect::kDirect, checker::EngineSelect::kGraph}) {
        const auto r = run_mixed(a, ch, engine, vo);
        if (r.outcome == checker::Outcome::kUnknown) continue;  // honest pass
        if (r.outcome != oracle.outcome) {
          parity_failure("mixed oracle disagreement", L::kPSI, ch.size(), r);
        }
      }
    }
  }
}

void BM_Engine(benchmark::State& state, L level, checker::EngineSelect engine) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Fixture& f = fixture(n);  // build outside the timed region
  double best = 1e100;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = run_engine(level, f.ch, engine, &f.version_order);
    benchmark::DoNotOptimize(r.outcome);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best = std::min(best, secs);
    if (!r.satisfiable()) parity_failure("verdict changed mid-bench", level, n, r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
  state.counters["txns"] = static_cast<double>(n);
  state.counters["ns_per_txn"] = best * 1e9 / static_cast<double>(n);
}

/// The refutation row: the planted lost update, checked at `level` by the
/// graph engine, must be UNSAT with a rendered cycle on every iteration.
void BM_Violated(benchmark::State& state, L level) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Fixture& f = fixture(n, /*stale=*/true);
  double best = 1e100;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = run_engine(level, f.ch, checker::EngineSelect::kGraph,
                              &f.version_order);
    benchmark::DoNotOptimize(r.outcome);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best = std::min(best, secs);
    if (!r.unsatisfiable()) parity_failure("refutation lost mid-bench", level, n, r);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
  state.counters["txns"] = static_cast<double>(n);
  state.counters["ns_per_txn"] = best * 1e9 / static_cast<double>(n);
}

#define DIRECT_ROW(tag, level)                                        \
  BENCHMARK_CAPTURE(BM_Engine, tag##_direct, level,                   \
                    checker::EngineSelect::kDirect)
#define GRAPH_ROW(tag, level)                                         \
  BENCHMARK_CAPTURE(BM_Engine, tag##_graph, level,                    \
                    checker::EngineSelect::kGraph)

// RC/RA: the direct pass is one sweep with per-key frontiers — benched to
// 10^6 to show the ns/txn curve stays near-flat.
DIRECT_ROW(rc, L::kReadCommitted)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000)->UseRealTime();
GRAPH_ROW(rc, L::kReadCommitted)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000)->UseRealTime();
DIRECT_ROW(ra, L::kReadAtomic)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000)->UseRealTime();
GRAPH_ROW(ra, L::kReadAtomic)->Arg(1000)->Arg(10000)->Arg(100000)->Arg(1000000)->UseRealTime();
// PSI: verification is quadratic-bit in either engine; the direct engine's
// saturation gate declines past 16384 txns, so the curve stops at 10^4.
DIRECT_ROW(psi, L::kPSI)->Arg(1000)->Arg(10000)->UseRealTime();
GRAPH_ROW(psi, L::kPSI)->Arg(1000)->Arg(10000)->UseRealTime();
// SER / SSER: graph engine only (the direct tier serves RC/RA/PSI).
GRAPH_ROW(ser, L::kSerializable)->Arg(1000)->Arg(10000)->Arg(100000)->UseRealTime();
GRAPH_ROW(sser, L::kStrictSerializable)->Arg(1000)->Arg(10000)->Arg(100000)->UseRealTime();
BENCHMARK_CAPTURE(BM_Violated, ser_graph_violated, L::kSerializable)
    ->Name("BM_Engine/ser_graph_violated")
    ->Arg(1000)->Arg(10000)->Arg(100000)->UseRealTime();

#undef DIRECT_ROW
#undef GRAPH_ROW

// Mixed per-transaction assignment (RC/RA/PSI rotating by dense index): the
// same single pass with per-candidate level dispatch. PSI is present, so the
// curve stops where the PSI rows do.
void BM_MixedDirect(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Fixture& f = fixture(n);
  const ct::LevelAssignment a = mixed_assignment(n);
  double best = 1e100;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = run_mixed(a, f.ch, checker::EngineSelect::kDirect,
                             &f.version_order);
    benchmark::DoNotOptimize(r.outcome);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    best = std::min(best, secs);
    if (!r.satisfiable()) {
      parity_failure("mixed verdict changed mid-bench", L::kPSI, n, r);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
  state.counters["txns"] = static_cast<double>(n);
  state.counters["ns_per_txn"] = best * 1e9 / static_cast<double>(n);
}
BENCHMARK(BM_MixedDirect)->Name("BM_Engine/mixed_rc_ra_psi_direct")
    ->Arg(1000)->Arg(10000)->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  assert_parity();
  assert_mixed_parity();
  benchmark::RunSpecifiedBenchmarks();
  // Final registry scrape for the CI direct-engine gate
  // (crooks_direct_checks_total must be nonzero after the forced rows).
  if (const char* path = std::getenv("CROOKS_OBS_METRICS_JSON")) {
    std::ofstream out(path);
    out << obs::Registry::global().json() << "\n";
  }
  return 0;
}
