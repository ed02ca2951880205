// Per-transaction isolation levels, end to end.
//
// The contract under test has two halves:
//
//  1. Uniform assignments are the OLD api. Every entry point taking a
//     LevelAssignment / LevelPolicy detects the uniform case and delegates
//     verbatim to the global-level code, so a uniform call must be verdict-,
//     witness-, diagnosis- and node-count-identical to check(level, ...) —
//     asserted here over the anomaly suite and 200+ fuzz seeds, on all three
//     engines (this is the oracle check checker.hpp's mixed section cites).
//
//  2. Genuinely mixed assignments answer ∃e ∀T CT_{A(T)}(T, e). The flip
//     matrix pins the semantics: one transaction's annotation change flips a
//     known anomaly's verdict, the exhaustive engine is the oracle, deciding
//     engines agree, witnesses verify under the assignment, and refutations
//     name the violated transaction's OWN level.
//
// Plus the infrastructure that carries the levels: the compiled level column
// through extend() (grown ≡ fresh), the streaming monitor's assigned mode,
// the batch/incremental policy plumbing, and the frozen hashed reference via
// the uniform-agreement shim.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "checker/checker.hpp"
#include "checker/online.hpp"
#include "checker/reference.hpp"
#include "engine_oracle.hpp"
#include "store/runner.hpp"
#include "workload/observations.hpp"
#include "workload/workload.hpp"

namespace crooks::checker {
namespace {

using L = ct::IsolationLevel;
using model::TransactionSet;
using model::TxnBuilder;

constexpr Key kX{0}, kY{1};

// ---------------------------------------------------------------------------
// 1. Uniform assignments delegate verbatim to the global-level API.
// ---------------------------------------------------------------------------

void expect_identical(const CheckResult& uniform, const CheckResult& global,
                      const std::string& what) {
  ASSERT_EQ(uniform.outcome, global.outcome)
      << what << "\n uniform: " << uniform.detail
      << "\n global:  " << global.detail;
  EXPECT_EQ(uniform.detail, global.detail) << what;
  EXPECT_EQ(uniform.engine, global.engine) << what;
  EXPECT_EQ(uniform.nodes_explored, global.nodes_explored) << what;
  EXPECT_EQ(uniform.edges_visited, global.edges_visited) << what;
  ASSERT_EQ(uniform.witness.has_value(), global.witness.has_value()) << what;
  if (uniform.witness.has_value()) {
    EXPECT_EQ(uniform.witness->order(), global.witness->order()) << what;
  }
  ASSERT_EQ(uniform.diagnosis.has_value(), global.diagnosis.has_value()) << what;
  if (uniform.diagnosis.has_value()) {
    EXPECT_EQ(uniform.diagnosis->txn, global.diagnosis->txn) << what;
    EXPECT_EQ(uniform.diagnosis->clause, global.diagnosis->clause) << what;
    EXPECT_EQ(uniform.diagnosis->candidate_execution,
              global.diagnosis->candidate_execution)
        << what;
    EXPECT_EQ(uniform.diagnosis->candidate_states,
              global.diagnosis->candidate_states)
        << what;
  }
}

TEST(MixedUniformParity, AnomalySuiteAllEnginesAllLevels) {
  const std::vector<EngineSelect> engines{EngineSelect::kAuto, EngineSelect::kDirect,
                                          EngineSelect::kGraph,
                                          EngineSelect::kExhaustive};
  for (const oracle::Scenario& s : oracle::anomaly_scenarios()) {
    const model::CompiledHistory ch(s.txns);
    for (L level : ct::kAllLevels) {
      for (EngineSelect e : engines) {
        CheckOptions opts;
        opts.threads = 1;
        opts.engine = e;
        const ct::LevelAssignment uniform(level);
        ASSERT_TRUE(uniform.is_uniform());
        expect_identical(check(uniform, ch, opts), check(level, ch, opts),
                         s.name + " @ " + std::string(ct::name_of(level)));
      }
    }
  }
}

TEST(MixedUniformParity, MaterializedAllFallbackColumnCanonicalizes) {
  // A column where every entry equals the fallback IS the uniform case: the
  // constructor must detect it, not just the empty-column form.
  for (const oracle::Scenario& s : oracle::anomaly_scenarios()) {
    const model::CompiledHistory ch(s.txns);
    for (L level : {L::kReadCommitted, L::kPSI, L::kSerializable}) {
      ct::LevelAssignment a(level, std::vector<L>(ch.size(), level));
      EXPECT_TRUE(a.is_uniform()) << s.name;
      EXPECT_EQ(a.describe(), ct::name_of(level)) << s.name;
      CheckOptions opts;
      opts.threads = 1;
      expect_identical(check(a, ch, opts), check(level, ch, opts), s.name);
    }
  }
}

TEST(MixedUniformParity, FuzzSeedsAllEngines) {
  // 200+ random observation sets; the level rotates so every level is hit
  // 20+ times, and every seed additionally runs the direct-eligible RC and
  // the strongest SER to keep both dispatch families hot on each input.
  const std::vector<EngineSelect> engines{EngineSelect::kDirect, EngineSelect::kGraph,
                                          EngineSelect::kExhaustive};
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    wl::ObservationFuzzOptions fopts;
    fopts.p_untimestamped = (seed % 3 == 0) ? 0.3 : 0.0;
    const wl::FuzzedObservations f = wl::fuzz_observations(seed, fopts);
    const model::CompiledHistory ch(f.txns);
    const L rotating = ct::kAllLevels[seed % ct::kAllLevels.size()];
    for (L level : {rotating, L::kReadCommitted, L::kSerializable}) {
      for (EngineSelect e : engines) {
        CheckOptions opts;
        opts.threads = 1;
        opts.engine = e;
        if (seed % 2 == 0) opts.version_order = &f.version_order;
        expect_identical(check(ct::LevelAssignment(level), ch, opts),
                         check(level, ch, opts),
                         "seed " + std::to_string(seed) + " @ " +
                             std::string(ct::name_of(level)));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 2. The mixed flip matrix: one annotation change flips the verdict.
// ---------------------------------------------------------------------------

// Assignment over dense (declaration) indices: every transaction at
// `fallback` except the listed (index, level) overrides.
ct::LevelAssignment mix(std::size_t n, L fallback,
                        std::initializer_list<std::pair<std::size_t, L>> over) {
  std::vector<L> column(n, fallback);
  for (const auto& [d, l] : over) column[d] = l;
  return ct::LevelAssignment(fallback, std::move(column));
}

// Three-way differential under an assignment: exhaustive is the oracle and
// must produce `expect_sat`; direct must decide when the assignment is
// direct-eligible; any deciding engine agrees; witnesses verify under the
// assignment; refutation diagnoses are canonical (identical across engines).
// Returns the oracle result for caller-specific checks.
CheckResult mixed_three_way(const ct::LevelAssignment& a,
                            const model::CompiledHistory& ch, bool expect_sat) {
  CheckOptions opts;
  opts.threads = 1;
  opts.engine = EngineSelect::kExhaustive;
  const CheckResult ex = check(a, ch, opts);
  EXPECT_NE(ex.outcome, Outcome::kUnknown) << a.describe() << ": oracle undecided";
  EXPECT_EQ(ex.satisfiable(), expect_sat)
      << a.describe() << ": oracle says " << ex.detail;

  const auto against = [&](const char* name, const CheckResult& r) {
    if (r.outcome == Outcome::kUnknown) return;  // honest "no opinion"
    EXPECT_EQ(r.outcome, ex.outcome)
        << a.describe() << ": " << name << " says " << r.detail
        << "\n but the oracle says " << ex.detail;
    if (r.satisfiable()) {
      ASSERT_TRUE(r.witness.has_value()) << name;
      const ct::ExecutionVerdict v = verify_witness(a, ch, *r.witness);
      EXPECT_TRUE(v.ok) << a.describe() << ": " << name
                        << " witness fails its commit tests: " << v.explanation;
    }
    if (r.unsatisfiable() && ex.unsatisfiable()) {
      ASSERT_EQ(r.diagnosis.has_value(), ex.diagnosis.has_value()) << name;
      if (r.diagnosis.has_value()) {
        EXPECT_EQ(r.diagnosis->txn, ex.diagnosis->txn) << name;
        EXPECT_EQ(r.diagnosis->level, ex.diagnosis->level) << name;
        EXPECT_EQ(r.diagnosis->clause, ex.diagnosis->clause) << name;
        EXPECT_EQ(r.diagnosis->candidate_execution, ex.diagnosis->candidate_execution)
            << name;
      }
    }
  };

  opts.engine = EngineSelect::kDirect;
  const CheckResult di = check(a, ch, opts);
  if (direct_eligible(a)) {
    EXPECT_NE(di.outcome, Outcome::kUnknown)
        << a.describe() << ": direct engine gave up: " << di.detail;
  }
  against("direct", di);

  opts.engine = EngineSelect::kGraph;
  against("graph", check(a, ch, opts));

  opts.engine = EngineSelect::kAuto;
  const CheckResult au = check(a, ch, opts);
  EXPECT_NE(au.outcome, Outcome::kUnknown) << a.describe();
  against("auto", au);

  // The exhaustive witness itself must verify, too.
  if (ex.satisfiable()) {
    EXPECT_TRUE(ex.witness.has_value()) << a.describe();
    if (ex.witness.has_value()) {
      EXPECT_TRUE(verify_witness(a, ch, *ex.witness).ok) << a.describe();
    }
  }
  return ex;
}

TEST(MixedFlipMatrix, FracturedReadFlipsOnReadersAnnotation) {
  const oracle::Scenario s = oracle::anomaly_scenarios()[5];
  ASSERT_EQ(s.name, "fractured_read");
  const model::CompiledHistory ch(s.txns);

  // Everyone at RC: the fracture is allowed.
  mixed_three_way(mix(2, L::kReadCommitted, {}), ch, /*expect_sat=*/true);
  // Promote the READER (T2, dense 1) to ReadAtomic: its own commit test now
  // rejects the fracture — the single-annotation verdict flip.
  const CheckResult r =
      mixed_three_way(mix(2, L::kReadCommitted, {{1, L::kReadAtomic}}), ch,
                      /*expect_sat=*/false);
  ASSERT_TRUE(r.diagnosis.has_value());
  EXPECT_EQ(r.diagnosis->txn, TxnId{2});
  // The diagnosis reports the failing transaction's OWN level.
  EXPECT_EQ(r.diagnosis->level, L::kReadAtomic);
  // Promoting the WRITER instead changes nothing: T1 has no reads, and a
  // commit test only mentions its transaction's own reads.
  mixed_three_way(mix(2, L::kReadCommitted, {{0, L::kReadAtomic}}), ch,
                  /*expect_sat=*/true);
}

TEST(MixedFlipMatrix, WriteSkewNeedsBothSidesSerializable) {
  const oracle::Scenario s = oracle::anomaly_scenarios()[1];
  ASSERT_EQ(s.name, "write_skew");
  const model::CompiledHistory ch(s.txns);

  // One-sided SER is satisfiable: place the SER transaction first and the
  // RC one can still read both stale balances afterwards.
  mixed_three_way(mix(2, L::kReadCommitted, {{0, L::kSerializable}}), ch, true);
  mixed_three_way(mix(2, L::kReadCommitted, {{1, L::kSerializable}}), ch, true);
  // Both sides SER: the classic refutation returns.
  mixed_three_way(mix(2, L::kSerializable, {}), ch, false);
}

TEST(MixedFlipMatrix, LongForkIsThePsiAllowedAnomaly) {
  const oracle::Scenario s = oracle::anomaly_scenarios()[3];
  ASSERT_EQ(s.name, "long_fork");
  const model::CompiledHistory ch(s.txns);

  // Both readers at PSI (writers RC): satisfiable — the long fork is exactly
  // what PSI permits and the SI family forbids.
  mixed_three_way(mix(4, L::kReadCommitted, {{2, L::kPSI}, {3, L::kPSI}}), ch, true);
  // ONE reader at AdyaSI is still satisfiable: a single SI transaction only
  // needs its own complete prefix, and one exists for either fork arm alone.
  mixed_three_way(mix(4, L::kReadCommitted, {{2, L::kPSI}, {3, L::kAdyaSI}}), ch,
                  true);
  // BOTH readers at AdyaSI: their prefixes would have to be un-nested —
  // impossible in one execution, so the mix is refuted.
  mixed_three_way(mix(4, L::kReadCommitted, {{2, L::kAdyaSI}, {3, L::kAdyaSI}}), ch,
                  false);
}

TEST(MixedFlipMatrix, CrossSessionStalenessFlipsOnStrongSiReader) {
  const oracle::Scenario s = oracle::anomaly_scenarios()[9];
  ASSERT_EQ(s.name, "cross_session_staleness");
  const model::CompiledHistory ch(s.txns);

  const CheckResult r =
      mixed_three_way(mix(2, L::kReadCommitted, {{1, L::kStrongSI}}), ch, false);
  ASSERT_TRUE(r.diagnosis.has_value());
  EXPECT_EQ(r.diagnosis->level, L::kStrongSI);
  // Annotating the WRITER StrongSI leaves the stale read at RC: satisfiable.
  mixed_three_way(mix(2, L::kReadCommitted, {{0, L::kStrongSI}}), ch, true);
}

TEST(MixedFlipMatrix, SessionInversionFlipsOnSessionSiNotAnsiSi) {
  const oracle::Scenario s = oracle::anomaly_scenarios()[8];
  ASSERT_EQ(s.name, "session_inversion");
  const model::CompiledHistory ch(s.txns);

  // AnsiSI has no session clause: the same-session stale read survives.
  mixed_three_way(mix(2, L::kReadCommitted, {{1, L::kAnsiSI}}), ch, true);
  // SessionSI's recency clause refutes it.
  mixed_three_way(mix(2, L::kReadCommitted, {{1, L::kSessionSI}}), ch, false);
}

// ---------------------------------------------------------------------------
// 3. The compiled level column survives extend(): grown ≡ fresh.
// ---------------------------------------------------------------------------

std::vector<model::Transaction> annotated_transactions() {
  return {
      TxnBuilder(1).write(kX).at(0, 1).level(L::kSerializable).build(),
      TxnBuilder(2).read(kX, TxnId{1}).write(kY).at(2, 3).build(),  // unannotated
      TxnBuilder(3).read(kY, TxnId{2}).at(4, 5).level(L::kReadAtomic).build(),
      // Forward observation: T4 reads a writer arriving only in a later
      // block, so extend()'s late-writer re-resolution runs alongside the
      // level column.
      TxnBuilder(4).read(kX, TxnId{5}).at(6, 7).level(L::kPSI).build(),
      TxnBuilder(5).write(kX).at(8, 9).level(L::kStrongSI).build(),
  };
}

void expect_level_columns_equal(const model::CompiledHistory& grown,
                                const model::CompiledHistory& fresh,
                                const std::string& what) {
  ASSERT_EQ(grown.size(), fresh.size()) << what;
  EXPECT_EQ(grown.annotated_level_count(), fresh.annotated_level_count()) << what;
  EXPECT_EQ(grown.level_tags(), fresh.level_tags()) << what;
  const auto ga = ct::LevelAssignment::from_annotations(grown, L::kReadCommitted);
  const auto fa = ct::LevelAssignment::from_annotations(fresh, L::kReadCommitted);
  EXPECT_EQ(ga.present_mask(), fa.present_mask()) << what;
  for (model::TxnIdx d = 0; d < grown.size(); ++d) {
    EXPECT_EQ(grown.level_tag(d), fresh.level_tag(d)) << what << " d=" << d;
    EXPECT_EQ(ga.of(d), fa.of(d)) << what << " d=" << d;
  }
}

TEST(MixedLevelColumn, ExtendPreservesAnnotationsOnAnyInterleaving) {
  const std::vector<model::Transaction> txns = annotated_transactions();
  const TransactionSet set{{txns.begin(), txns.end()}};
  const model::CompiledHistory fresh(set);
  ASSERT_EQ(fresh.annotated_level_count(), 4u);
  EXPECT_EQ(fresh.level_tag(1), model::CompiledHistory::kNoLevelTag);
  EXPECT_EQ(fresh.annotated_level(0), L::kSerializable);
  EXPECT_EQ(fresh.annotated_level(1), std::nullopt);

  // One by one.
  {
    model::CompiledHistory grown;
    for (const model::Transaction& t : txns) grown.extend(t);
    expect_level_columns_equal(grown, fresh, "one-by-one");
  }
  // Every two-block split.
  for (std::size_t cut = 1; cut < txns.size(); ++cut) {
    model::CompiledHistory grown;
    grown.extend(std::span<const model::Transaction>(txns.data(), cut));
    grown.extend(
        std::span<const model::Transaction>(txns.data() + cut, txns.size() - cut));
    expect_level_columns_equal(grown, fresh,
                               "two blocks, cut=" + std::to_string(cut));
  }
  // Block + singles interleaving.
  {
    model::CompiledHistory grown;
    grown.extend(std::span<const model::Transaction>(txns.data(), 2));
    grown.extend(txns[2]);
    grown.extend(std::span<const model::Transaction>(txns.data() + 3, 2));
    expect_level_columns_equal(grown, fresh, "block+single+block");
  }
}

// ---------------------------------------------------------------------------
// 4. Uniform-agreement shim against the frozen hashed reference.
// ---------------------------------------------------------------------------

TEST(MixedReferenceShim, UniformAssignmentMatchesHashedExhaustive) {
  // reference:: keeps the global-level signature on purpose (it is frozen);
  // the agreement obligation is on the NEW api: a uniform assignment routed
  // through the assignment entry point must reproduce the frozen hashed
  // engine's verdict, node count and witness order.
  CheckOptions sequential;
  sequential.threads = 1;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const wl::FuzzedObservations f = wl::fuzz_observations(seed);
    const model::CompiledHistory ch(f.txns);
    const L level = ct::kAllLevels[seed % ct::kAllLevels.size()];
    const CheckResult hashed =
        reference::check_exhaustive_hashed(level, f.txns, sequential);
    const CheckResult mixed_api =
        check_exhaustive(ct::LevelAssignment(level), ch, sequential);
    ASSERT_EQ(mixed_api.outcome, hashed.outcome)
        << "seed " << seed << " @ " << ct::name_of(level)
        << "\n assignment: " << mixed_api.detail << "\n hashed: " << hashed.detail;
    EXPECT_EQ(mixed_api.nodes_explored, hashed.nodes_explored) << "seed " << seed;
    ASSERT_EQ(mixed_api.witness.has_value(), hashed.witness.has_value());
    if (mixed_api.witness.has_value()) {
      EXPECT_EQ(mixed_api.witness->order(), hashed.witness->order());
    }
  }
}

// ---------------------------------------------------------------------------
// 5. Streaming monitor: OnlineChecker's assigned mode.
// ---------------------------------------------------------------------------

TEST(MixedOnline, AssignedModeMatchesUniformTrackingWithoutAnnotations) {
  // With no annotations every transaction resolves to the fallback, so the
  // assigned-mode status must agree with a uniform checker tracking exactly
  // that level — same verdict, same first violator.
  for (const oracle::Scenario& s : oracle::anomaly_scenarios()) {
    for (L level : ct::kAllLevels) {
      OnlineChecker uniform{std::vector<L>{level}};
      uniform.append_all(s.txns);
      OnlineChecker assigned(OnlineChecker::kTrackAssigned, level);
      assigned.append_all(s.txns);
      EXPECT_TRUE(assigned.assigned_mode());
      EXPECT_EQ(assigned.assigned_status().ok, uniform.status(level).ok)
          << s.name << " @ " << ct::name_of(level);
      EXPECT_EQ(assigned.assigned_status().first_violation,
                uniform.status(level).first_violation)
          << s.name << " @ " << ct::name_of(level);
      EXPECT_EQ(assigned.stats().hashed_fallback_appends, 0u);
    }
  }
}

TEST(MixedOnline, AnnotationFlipsTheStream) {
  // Fractured read applied in declaration order. Reader annotated RA over an
  // RC fallback: the stream violates at T2, named with its own level.
  const std::vector<model::Transaction> flagged{
      TxnBuilder(1).write(kX).write(kY).at(0, 10).build(),
      TxnBuilder(2).read(kX, TxnId{1}).read(kY, kInitTxn).at(1, 11)
          .level(L::kReadAtomic).build(),
  };
  OnlineChecker c(OnlineChecker::kTrackAssigned, L::kReadCommitted);
  c.append_all(std::span<const model::Transaction>(flagged.data(), flagged.size()));
  EXPECT_FALSE(c.all_ok());
  EXPECT_FALSE(c.assigned_status().ok);
  EXPECT_EQ(c.assigned_status().first_violation, TxnId{2});
  EXPECT_NE(c.assigned_status().explanation.find("T2 [ReadAtomic]"),
            std::string::npos)
      << c.assigned_status().explanation;

  // Annotating the writer instead leaves the reader at RC: the stream passes.
  const std::vector<model::Transaction> writer_only{
      TxnBuilder(1).write(kX).write(kY).at(0, 10).level(L::kReadAtomic).build(),
      TxnBuilder(2).read(kX, TxnId{1}).read(kY, kInitTxn).at(1, 11).build(),
  };
  OnlineChecker ok(OnlineChecker::kTrackAssigned, L::kReadCommitted);
  ok.append_all(
      std::span<const model::Transaction>(writer_only.data(), writer_only.size()));
  EXPECT_TRUE(ok.all_ok());
  EXPECT_TRUE(ok.assigned_status().ok);
}

TEST(MixedOnline, ClosurePassesThroughPrereadFailingTransaction) {
  // T2 runs at RU, so its read of an unknown writer fails PREREAD without
  // killing the status. T2 still ▷-follows T1 (it read x from T1), and T3
  // read y from T2, so T1 ∈ PREC(T3): T3's read of x from ⊥ misses T1's
  // write and CAUS-VIS fails at T3 — as ct::test_execution decides for the
  // apply order T1, T2, T3.
  constexpr Key kZ{2};
  const std::vector<model::Transaction> txns{
      TxnBuilder(1).write(kX).level(L::kPSI).build(),
      TxnBuilder(2).read(kX, TxnId{1}).read(kZ, TxnId{99}).write(kY)
          .level(L::kReadUncommitted).build(),
      TxnBuilder(3).read(kY, TxnId{2}).read(kX, kInitTxn).level(L::kPSI).build(),
  };
  const TransactionSet set(txns);
  const model::CompiledHistory ch(set);
  const auto verdict = ct::test_execution(
      ct::LevelAssignment::from_annotations(ch, L::kPSI), set,
      model::Execution(set, {TxnId{1}, TxnId{2}, TxnId{3}}));
  ASSERT_FALSE(verdict.ok);
  EXPECT_EQ(verdict.violating_txn, TxnId{3});

  for (std::size_t block : {1u, 3u}) {  // one block per txn, or one block
    OnlineChecker c(OnlineChecker::kTrackAssigned, L::kPSI);
    for (std::size_t at = 0; at < txns.size(); at += block) {
      c.append_all(std::span<const model::Transaction>(txns.data() + at, block));
    }
    EXPECT_FALSE(c.assigned_status().ok) << "block " << block;
    EXPECT_EQ(c.assigned_status().first_violation, verdict.violating_txn);
    EXPECT_NE(c.assigned_status().explanation.find("T3 [PSI]: CAUS-VIS fails"),
              std::string::npos)
        << c.assigned_status().explanation;
  }
}

// ---------------------------------------------------------------------------
// 6. Batch / incremental policies.
// ---------------------------------------------------------------------------

TEST(MixedBatch, TriviallyUniformPolicyEqualsLevelForm) {
  std::vector<TransactionSet> histories;
  for (std::uint64_t seed = 100; seed < 108; ++seed) {
    histories.push_back(wl::fuzz_observations(seed).txns);
  }
  CheckOptions opts;
  opts.threads = 1;
  for (L level : {L::kReadCommitted, L::kPSI, L::kSerializable}) {
    const auto via_policy =
        check_batch(ct::LevelPolicy::uniform(level),
                    std::span<const TransactionSet>(histories), opts);
    const auto via_level =
        check_batch(level, std::span<const TransactionSet>(histories), opts);
    ASSERT_EQ(via_policy.size(), via_level.size());
    for (std::size_t i = 0; i < via_policy.size(); ++i) {
      expect_identical(via_policy[i], via_level[i],
                       "item " + std::to_string(i) + " @ " +
                           std::string(ct::name_of(level)));
    }
  }
}

TEST(MixedBatch, OverrideFlipsABatchItem) {
  // Two fractured-read histories; the policy override promotes each item's
  // reader to RA, flipping both verdicts relative to the RC fallback.
  std::vector<TransactionSet> histories;
  for (int i = 0; i < 2; ++i) {
    histories.push_back(TransactionSet{{
        TxnBuilder(1).write(kX).write(kY).at(0, 10).build(),
        TxnBuilder(2).read(kX, TxnId{1}).read(kY, kInitTxn).at(1, 11).build(),
    }});
  }
  CheckOptions opts;
  opts.threads = 1;

  ct::LevelPolicy plain{L::kReadCommitted, {}, true};
  for (const CheckResult& r :
       check_batch(plain, std::span<const TransactionSet>(histories), opts)) {
    EXPECT_TRUE(r.satisfiable()) << r.detail;
  }

  ct::LevelPolicy promoted{L::kReadCommitted, {{TxnId{2}, L::kReadAtomic}}, true};
  for (const CheckResult& r :
       check_batch(promoted, std::span<const TransactionSet>(histories), opts)) {
    ASSERT_TRUE(r.unsatisfiable()) << r.detail;
    ASSERT_TRUE(r.diagnosis.has_value());
    EXPECT_EQ(r.diagnosis->txn, TxnId{2});
    EXPECT_EQ(r.diagnosis->level, L::kReadAtomic);
  }
}

TEST(MixedBatch, IncrementalResolvePrefixToleratesFutureOverrides) {
  // The override names T2, which only arrives in block 2: the block-1 check
  // must not throw (resolve_prefix ignores not-yet-seen ids) and the block-2
  // verdict must honor it.
  const std::vector<TransactionSet> blocks{
      TransactionSet{{TxnBuilder(1).write(kX).write(kY).at(0, 10).build()}},
      TransactionSet{
          {TxnBuilder(2).read(kX, TxnId{1}).read(kY, kInitTxn).at(1, 11).build()}},
  };
  CheckOptions opts;
  opts.threads = 1;
  ct::LevelPolicy policy{L::kReadCommitted, {{TxnId{2}, L::kReadAtomic}}, true};
  const std::vector<CheckResult> results =
      check_incremental(policy, std::span<const TransactionSet>(blocks), opts);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].satisfiable()) << results[0].detail;
  ASSERT_TRUE(results[1].unsatisfiable()) << results[1].detail;
  EXPECT_EQ(results[1].diagnosis->txn, TxnId{2});
  EXPECT_EQ(results[1].diagnosis->level, L::kReadAtomic);
}

TEST(MixedBatch, RunVerifiedBatchPolicyOverload) {
  std::vector<std::vector<store::TxnIntent>> workloads;
  for (std::size_t i = 0; i < 3; ++i) {
    workloads.push_back(wl::generate_mix({.transactions = 8,
                                          .keys = 5,
                                          .reads_per_txn = 2,
                                          .writes_per_txn = 1,
                                          .seed = 70 + i}));
  }
  store::RunOptions base{.mode = store::CCMode::kSnapshotIsolation,
                         .seed = 7,
                         .concurrency = 3};
  CheckOptions copts;
  copts.threads = 1;

  // A trivially uniform policy reproduces the level overload exactly.
  const auto via_level =
      store::run_verified_batch(workloads, base, L::kReadAtomic, copts);
  const auto via_policy = store::run_verified_batch(
      workloads, base, ct::LevelPolicy::uniform(L::kReadAtomic), copts);
  ASSERT_EQ(via_level.size(), via_policy.size());
  for (std::size_t i = 0; i < via_level.size(); ++i) {
    EXPECT_EQ(via_policy[i].run.committed, via_level[i].run.committed);
    expect_identical(via_policy[i].verdict, via_level[i].verdict,
                     "workload " + std::to_string(i));
  }
}

TEST(MixedBatch, MixedProfileWorkloadAuditsAtDeclaredLevels) {
  // The deployment shape: SER banking pairs over an RC read-mostly
  // background. The store threads each intent's declared level through to
  // the observations, and the policy audits every transaction at its own.
  wl::MixedProfileOptions mopts;
  mopts.pairs = 1;
  mopts.background = {.transactions = 4,
                      .keys = 4,
                      .reads_per_txn = 2,
                      .writes_per_txn = 0,
                      .seed = 11};
  const std::vector<store::TxnIntent> intents = wl::generate_mixed_profile(mopts);
  ASSERT_EQ(intents.size(), 6u);
  EXPECT_EQ(intents[0].level, L::kSerializable);
  EXPECT_EQ(intents[2].level, L::kReadCommitted);

  store::RunOptions ropts{.mode = store::CCMode::kSerial, .seed = 3};
  CheckOptions copts;
  copts.threads = 1;
  const auto verified = store::run_verified_batch(
      {intents}, ropts, ct::LevelPolicy{L::kReadCommitted, {}, true}, copts);
  ASSERT_EQ(verified.size(), 1u);
  // The observations carry the declared levels...
  const model::CompiledHistory ch(verified[0].run.observations);
  EXPECT_GT(ch.annotated_level_count(), 0u);
  // ...and a serial store passes even the SER transactions' own tests.
  EXPECT_TRUE(verified[0].verdict.satisfiable()) << verified[0].verdict.detail;
}

}  // namespace
}  // namespace crooks::checker
