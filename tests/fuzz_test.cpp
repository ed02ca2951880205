// Property suite over randomized, adversarial observation sets.
//
// The generator produces arbitrary observations — reads of later writers, of
// unknown writers, phantom values — and the properties assert that the
// checker's engines stay internally consistent on ALL of them:
//   * every witness verifies against the canonical commit tests,
//   * verdicts are monotone over the hierarchy,
//   * the graph engine never contradicts the exhaustive oracle,
//   * a version-order restriction can only shrink the satisfiable set,
//   * the online monitor agrees with the batch evaluator on any order,
//   * serialization round-trips preserve verdicts,
//   * budget- and thread-randomized runs never contradict the unbounded
//     sequential oracle (kUnknown is the only allowed divergence),
//   * the compiled Adya phenomena, explanations and SSER witness order
//     match the test-only pairwise oracle.
#include <gtest/gtest.h>

#include "checker/checker.hpp"
#include "checker/online.hpp"
#include "checker/reference.hpp"
#include "common/rng.hpp"
#include "model/analysis.hpp"
#include "report/serialize.hpp"
#include "workload/observations.hpp"
#include "pairwise_oracle.hpp"

namespace crooks {
namespace {

using checker::CheckOptions;
using checker::CheckResult;
using checker::Outcome;
using ct::IsolationLevel;

class Fuzz : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  wl::FuzzedObservations make(bool timestamps = true) const {
    wl::ObservationFuzzOptions opts;
    opts.transactions = 7;
    opts.keys = 4;
    opts.with_timestamps = timestamps;
    return wl::fuzz_observations(GetParam(), opts);
  }
};

TEST_P(Fuzz, WitnessesVerify) {
  const wl::FuzzedObservations f = make();
  for (IsolationLevel level : ct::kAllLevels) {
    const CheckResult r = checker::check_exhaustive(level, f.txns);
    ASSERT_NE(r.outcome, Outcome::kUnknown);
    if (r.satisfiable()) {
      ASSERT_TRUE(r.witness.has_value());
      const ct::ExecutionVerdict v = checker::verify_witness(level, f.txns, *r.witness);
      EXPECT_TRUE(v.ok) << ct::name_of(level) << ": " << v.explanation;
    }
  }
}

TEST_P(Fuzz, HierarchyMonotone) {
  const wl::FuzzedObservations f = make();
  std::vector<std::pair<IsolationLevel, bool>> verdicts;
  for (IsolationLevel level : ct::kAllLevels) {
    verdicts.emplace_back(level, checker::check_exhaustive(level, f.txns).satisfiable());
  }
  for (auto [a, asat] : verdicts) {
    for (auto [b, bsat] : verdicts) {
      if (asat && ct::at_least_as_strong(a, b)) {
        EXPECT_TRUE(bsat) << ct::name_of(a) << " sat but " << ct::name_of(b) << " unsat";
      }
    }
  }
}

TEST_P(Fuzz, GraphNeverContradictsOracle) {
  const wl::FuzzedObservations f = make();
  CheckOptions opts;
  opts.version_order = &f.version_order;
  for (IsolationLevel level : ct::kAllLevels) {
    const CheckResult oracle = checker::check_exhaustive(level, f.txns, opts);
    const CheckResult graph = checker::check_graph(level, f.txns, opts);
    ASSERT_NE(oracle.outcome, Outcome::kUnknown);
    if (graph.outcome == Outcome::kUnknown) continue;
    EXPECT_EQ(graph.outcome, oracle.outcome)
        << ct::name_of(level) << "\n graph:  " << graph.detail
        << "\n oracle: " << oracle.detail;
  }
}

TEST_P(Fuzz, AdyaMatchesPairwiseOracle) {
  // With and without timestamps: every Phenomena field equals the pairwise
  // oracle's on the lifted history, every explanation names the oracle's
  // phenomenon with a cycle the oracle's graph holds, and a strictly
  // serializable history gets the witness order the pairwise real-time
  // graph yields.
  for (bool timestamps : {true, false}) {
    const wl::FuzzedObservations f = make(timestamps);
    const adya::pairwise::Lifted l(f.txns, f.version_order);
    const adya::History h = adya::pairwise::from_observations(f.txns, f.version_order);
    const adya::Phenomena p = l.detect();
    const adya::Phenomena want = adya::pairwise::detect(h);
    ASSERT_EQ(p.to_string(), want.to_string());
    ASSERT_EQ(p.g_si_a, want.g_si_a);
    ASSERT_EQ(p.g_si_b, want.g_si_b);
    ASSERT_EQ(p.rt_cycle, want.rt_cycle);
    for (IsolationLevel level : ct::kAllLevels) {
      const std::string got = l.explain(level);
      const std::string ref = adya::pairwise::explain_violation(h, level);
      ASSERT_EQ(got.empty(), ref.empty()) << ct::name_of(level);
      if (got.empty()) continue;
      const std::string phenomenon = adya::pairwise::phenomenon_of(got);
      ASSERT_EQ(phenomenon, adya::pairwise::phenomenon_of(ref)) << got << " | " << ref;
      if (adya::pairwise::cycle_of(ref).empty()) continue;
      EXPECT_TRUE(adya::pairwise::cycle_holds(h, phenomenon, adya::pairwise::cycle_of(got)))
          << got;
    }
    if (adya::satisfies(want, IsolationLevel::kStrictSerializable) !=
        adya::Verdict::kSatisfied) {
      continue;
    }
    CheckOptions opts;
    opts.version_order = &f.version_order;
    const CheckResult r = checker::check_graph(IsolationLevel::kStrictSerializable, l.ch, opts);
    ASSERT_TRUE(r.satisfiable()) << r.detail;
    std::unordered_map<TxnId, Timestamp> commit;
    for (const model::Transaction& t : f.txns) commit[t.id()] = t.commit_ts();
    EXPECT_EQ(r.witness->order(),
              adya::pairwise::topo_order(*adya::pairwise::with_time_pairs(h, adya::kRT),
                                         adya::kAllDsg | adya::kRT, commit));
  }
}

TEST_P(Fuzz, VersionOrderOnlyShrinks) {
  const wl::FuzzedObservations f = make();
  CheckOptions restricted;
  restricted.version_order = &f.version_order;
  for (IsolationLevel level : ct::kAllLevels) {
    const bool with_vo = checker::check_exhaustive(level, f.txns, restricted).satisfiable();
    const bool without = checker::check_exhaustive(level, f.txns).satisfiable();
    if (with_vo) {
      EXPECT_TRUE(without) << ct::name_of(level)
                           << ": restricted satisfiable but unrestricted not";
    }
  }
}

TEST_P(Fuzz, DispatchAgreesWithOracle) {
  const wl::FuzzedObservations f = make();
  for (IsolationLevel level : ct::kAllLevels) {
    const CheckResult d = checker::check(level, f.txns);
    const CheckResult oracle = checker::check_exhaustive(level, f.txns);
    ASSERT_NE(oracle.outcome, Outcome::kUnknown);
    if (d.outcome == Outcome::kUnknown) continue;
    EXPECT_EQ(d.outcome, oracle.outcome) << ct::name_of(level) << ": " << d.detail;
  }
}

TEST_P(Fuzz, UntimedObservationsKillTimedLevelsOnly) {
  const wl::FuzzedObservations f = make(/*timestamps=*/false);
  for (IsolationLevel level : ct::kAllLevels) {
    if (!ct::requires_timestamps(level)) continue;
    EXPECT_TRUE(checker::check(level, f.txns).unsatisfiable()) << ct::name_of(level);
  }
  EXPECT_TRUE(checker::check(IsolationLevel::kReadUncommitted, f.txns).satisfiable());
}

TEST_P(Fuzz, OnlineAgreesWithBatchOnWitnessOrder) {
  const wl::FuzzedObservations f = make();
  // Use the RC witness if one exists (a PREREAD-consistent order); fall back
  // to id order otherwise.
  const CheckResult rc = checker::check_exhaustive(IsolationLevel::kReadCommitted, f.txns);
  model::Execution e = rc.satisfiable() ? *rc.witness : model::Execution::identity(f.txns);

  checker::OnlineChecker oc;
  for (TxnId id : e.order()) oc.append(f.txns.by_id(id));

  const model::ReadStateAnalysis analysis(f.txns, e);
  const ct::CommitTester batch(analysis);
  for (IsolationLevel level : ct::kAllLevels) {
    EXPECT_EQ(oc.status(level).ok, batch.test_all(level).ok)
        << ct::name_of(level) << ": " << oc.status(level).explanation;
  }
}

TEST_P(Fuzz, SerializationPreservesVerdicts) {
  const wl::FuzzedObservations f = make();
  report::Observations obs{f.txns, f.version_order, std::nullopt};
  const report::Observations back = report::parse_observations(report::to_text(obs));
  CheckOptions o1, o2;
  o1.version_order = &f.version_order;
  o2.version_order = &back.version_order;
  for (IsolationLevel level : ct::kAllLevels) {
    EXPECT_EQ(checker::check_exhaustive(level, f.txns, o1).outcome,
              checker::check_exhaustive(level, back.txns, o2).outcome)
        << ct::name_of(level);
  }
}

TEST_P(Fuzz, RandomizedBudgetsAndThreadsNeverContradict) {
  // Randomize the engine-selection threshold, the node budget (small enough
  // to hit the kUnknown paths regularly) and the worker count, under both
  // the exhaustive engine and the full dispatcher. A truncated or parallel
  // run may give up (kUnknown) but must never contradict the unbounded
  // sequential oracle, must reproduce its own verdict, and every witness
  // must verify.
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 0x9e3779b9ULL + 17);
  const wl::FuzzedObservations f = make();

  CheckOptions fuzzed;
  fuzzed.exhaustive_threshold = rng.below(12);  // sometimes below |𝒯|
  fuzzed.max_nodes = 1 + rng.below(2000);       // often exhausted at |𝒯| = 7
  fuzzed.threads = 1 + rng.below(8);
  const std::string config = "seed=" + std::to_string(seed) +
                             " threshold=" + std::to_string(fuzzed.exhaustive_threshold) +
                             " max_nodes=" + std::to_string(fuzzed.max_nodes) +
                             " threads=" + std::to_string(fuzzed.threads);

  CheckOptions unbounded;
  unbounded.threads = 1;
  for (IsolationLevel level : ct::kAllLevels) {
    const CheckResult oracle = checker::check_exhaustive(level, f.txns, unbounded);
    ASSERT_NE(oracle.outcome, Outcome::kUnknown) << config;
    // The frozen hash-based engine is a second, independent oracle: the
    // compiled representation must not change any unbounded verdict.
    const CheckResult hashed =
        checker::reference::check_exhaustive_hashed(level, f.txns, unbounded);
    ASSERT_EQ(hashed.outcome, oracle.outcome)
        << ct::name_of(level) << " hashed reference disagrees: " << config;
    const CheckResult budgeted = checker::check_exhaustive(level, f.txns, fuzzed);
    const CheckResult again = checker::check_exhaustive(level, f.txns, fuzzed);
    EXPECT_EQ(budgeted.outcome, again.outcome)
        << ct::name_of(level) << " verdict not reproducible: " << config;
    if (budgeted.outcome != Outcome::kUnknown) {
      EXPECT_EQ(budgeted.outcome, oracle.outcome) << ct::name_of(level) << " " << config;
    }
    if (budgeted.satisfiable()) {
      ASSERT_TRUE(budgeted.witness.has_value()) << config;
      EXPECT_TRUE(checker::verify_witness(level, f.txns, *budgeted.witness).ok)
          << ct::name_of(level) << " " << config;
    }

    const CheckResult dispatched = checker::check(level, f.txns, fuzzed);
    if (dispatched.outcome != Outcome::kUnknown) {
      EXPECT_EQ(dispatched.outcome, oracle.outcome)
          << ct::name_of(level) << " dispatcher " << config << ": " << dispatched.detail;
    }
  }
}

TEST_P(Fuzz, MixedTimestampsBudgetsAndThreads) {
  // Strict-weak-order regression under the same randomized budget/thread
  // sweep: sets mixing timestamped and untimestamped transactions used to
  // hit undefined behaviour in the candidate sort. They must now behave
  // like any other input — definite sequential verdicts, agreement with the
  // hashed reference, and budgeted/parallel runs that never contradict.
  const std::uint64_t seed = GetParam();
  Rng rng(seed * 0x51ed2701ULL + 5);
  wl::ObservationFuzzOptions o;
  o.transactions = 7;
  o.keys = 4;
  o.p_untimestamped = 0.35;
  const wl::FuzzedObservations f = wl::fuzz_observations(seed, o);

  CheckOptions fuzzed;
  fuzzed.max_nodes = 1 + rng.below(2000);
  fuzzed.threads = 1 + rng.below(8);
  CheckOptions unbounded;
  unbounded.threads = 1;
  for (IsolationLevel level : ct::kAllLevels) {
    const CheckResult oracle = checker::check_exhaustive(level, f.txns, unbounded);
    ASSERT_NE(oracle.outcome, Outcome::kUnknown) << ct::name_of(level);
    EXPECT_EQ(
        checker::reference::check_exhaustive_hashed(level, f.txns, unbounded).outcome,
        oracle.outcome)
        << ct::name_of(level) << " seed=" << seed;
    const CheckResult budgeted = checker::check_exhaustive(level, f.txns, fuzzed);
    if (budgeted.outcome != Outcome::kUnknown) {
      EXPECT_EQ(budgeted.outcome, oracle.outcome) << ct::name_of(level);
    }
    if (budgeted.satisfiable()) {
      EXPECT_TRUE(checker::verify_witness(level, f.txns, *budgeted.witness).ok)
          << ct::name_of(level);
    }
  }
}

TEST_P(Fuzz, DirectEngineAgreesWithBothOracles) {
  // The direct tier against two independent oracles — the compiled exhaustive
  // engine and the frozen hashed reference — with and without an
  // authoritative version order. At |𝒯| = 7 the PSI fallback budget always
  // suffices, so kUnknown is a failure, not an allowed divergence.
  const wl::FuzzedObservations f = make();
  CheckOptions unbounded;
  unbounded.threads = 1;
  CheckOptions with_vo = unbounded;
  with_vo.version_order = &f.version_order;
  for (IsolationLevel level :
       {IsolationLevel::kReadCommitted, IsolationLevel::kReadAtomic,
        IsolationLevel::kPSI}) {
    for (const CheckOptions* o : {&unbounded, &with_vo}) {
      const std::string config = std::string(ct::name_of(level)) +
                                 (o == &with_vo ? " with vo" : " without vo");
      const CheckResult oracle = checker::check_exhaustive(level, f.txns, *o);
      ASSERT_NE(oracle.outcome, Outcome::kUnknown) << config;
      ASSERT_EQ(
          checker::reference::check_exhaustive_hashed(level, f.txns, *o).outcome,
          oracle.outcome)
          << config;
      const CheckResult direct = checker::check_direct(level, f.txns, *o);
      ASSERT_NE(direct.outcome, Outcome::kUnknown)
          << config << ": " << direct.detail;
      EXPECT_EQ(direct.outcome, oracle.outcome)
          << config << "\n direct: " << direct.detail
          << "\n oracle: " << oracle.detail;
      if (direct.satisfiable()) {
        ASSERT_TRUE(direct.witness.has_value()) << config;
        const ct::ExecutionVerdict v =
            checker::verify_witness(level, f.txns, *direct.witness);
        EXPECT_TRUE(v.ok) << config << ": " << v.explanation;
      }
    }
  }
}

TEST_P(Fuzz, DirectEngineMixedAndMissingTimestamps) {
  // Timestamp gaps must not perturb the direct tier: it never consults the
  // time oracle beyond the shared candidate order, so mixed and absent
  // timestamps behave like any other input.
  const std::uint64_t seed = GetParam();
  wl::ObservationFuzzOptions o;
  o.transactions = 7;
  o.keys = 4;
  o.p_untimestamped = 0.35;
  const wl::FuzzedObservations mixed = wl::fuzz_observations(seed, o);
  const wl::FuzzedObservations untimed = make(/*timestamps=*/false);
  for (IsolationLevel level :
       {IsolationLevel::kReadCommitted, IsolationLevel::kReadAtomic,
        IsolationLevel::kPSI}) {
    for (const wl::FuzzedObservations* f : {&mixed, &untimed}) {
      const CheckResult oracle = checker::check_exhaustive(level, f->txns);
      ASSERT_NE(oracle.outcome, Outcome::kUnknown) << ct::name_of(level);
      const CheckResult direct = checker::check_direct(level, f->txns);
      ASSERT_NE(direct.outcome, Outcome::kUnknown) << ct::name_of(level);
      EXPECT_EQ(direct.outcome, oracle.outcome)
          << ct::name_of(level) << " seed=" << seed << ": " << direct.detail;
      if (direct.satisfiable()) {
        EXPECT_TRUE(checker::verify_witness(level, f->txns, *direct.witness).ok)
            << ct::name_of(level);
      }
    }
  }
}

TEST_P(Fuzz, RandomLevelMapAgreesAcrossEngines) {
  // The mixed-level sweep: each transaction independently draws a random
  // `level=` annotation, the assignment resolves annotations over a rotating
  // fallback, and the engines must stay mutually consistent on the mixed
  // question exactly as they do on the global one — exhaustive decides,
  // deciding engines agree, witnesses verify under the assignment, and a
  // serialization round-trip preserves the annotations and the verdict.
  const std::uint64_t seed = GetParam();
  wl::ObservationFuzzOptions o;
  o.transactions = 7;
  o.keys = 4;
  o.p_level_annotation = 0.4;
  if (seed % 4 == 0) o.p_untimestamped = 0.3;
  const wl::FuzzedObservations f = wl::fuzz_observations(seed, o);
  const model::CompiledHistory ch(f.txns);
  const ct::IsolationLevel fallback = ct::kAllLevels[seed % ct::kAllLevels.size()];
  const ct::LevelAssignment assignment =
      ct::LevelAssignment::from_annotations(ch, fallback);

  CheckOptions opts;
  opts.threads = 1;
  if (seed % 2 == 0) opts.version_order = &f.version_order;
  const CheckResult oracle = checker::check_exhaustive(assignment, ch, opts);
  ASSERT_NE(oracle.outcome, Outcome::kUnknown) << assignment.describe();
  if (oracle.satisfiable()) {
    ASSERT_TRUE(oracle.witness.has_value());
    const ct::ExecutionVerdict v =
        checker::verify_witness(assignment, ch, *oracle.witness);
    EXPECT_TRUE(v.ok) << assignment.describe() << ": " << v.explanation;
  }

  const CheckResult direct = checker::check_direct(assignment, ch, opts);
  if (checker::direct_eligible(assignment)) {
    ASSERT_NE(direct.outcome, Outcome::kUnknown)
        << assignment.describe() << ": " << direct.detail;
  }
  for (const CheckResult* r : {&direct, &std::as_const(oracle)}) {
    if (r->outcome == Outcome::kUnknown) continue;
    EXPECT_EQ(r->outcome, oracle.outcome) << assignment.describe();
  }
  const CheckResult graph = checker::check_graph(assignment, ch, opts);
  if (graph.outcome != Outcome::kUnknown) {
    EXPECT_EQ(graph.outcome, oracle.outcome)
        << assignment.describe() << "\n graph:  " << graph.detail
        << "\n oracle: " << oracle.detail;
  }
  if (direct.satisfiable()) {
    ASSERT_TRUE(direct.witness.has_value());
    EXPECT_TRUE(checker::verify_witness(assignment, ch, *direct.witness).ok);
  }

  // Round-trip: the text format carries the annotations, so the re-parsed
  // observations resolve to the same assignment and the same verdict.
  report::Observations obs{f.txns, f.version_order, std::nullopt};
  const report::Observations back = report::parse_observations(report::to_text(obs));
  const model::CompiledHistory bch(back.txns);
  ASSERT_EQ(bch.annotated_level_count(), ch.annotated_level_count());
  const ct::LevelAssignment bassign =
      ct::LevelAssignment::from_annotations(bch, fallback);
  EXPECT_EQ(bassign.present_mask(), assignment.present_mask());
  CheckOptions bopts;
  bopts.threads = 1;
  if (seed % 2 == 0) bopts.version_order = &back.version_order;
  EXPECT_EQ(checker::check_exhaustive(bassign, bch, bopts).outcome, oracle.outcome)
      << assignment.describe();
}

TEST_P(Fuzz, DeterministicVerdicts) {
  const wl::FuzzedObservations a = make();
  const wl::FuzzedObservations b = make();
  for (IsolationLevel level : ct::kAllLevels) {
    EXPECT_EQ(checker::check(level, a.txns).outcome,
              checker::check(level, b.txns).outcome);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fuzz, ::testing::Range<std::uint64_t>(1, 151));

}  // namespace
}  // namespace crooks
