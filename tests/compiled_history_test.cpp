// Compiled-vs-hashed differential suite.
//
// CompiledHistory is a pure re-indexing of a TransactionSet: interning keys,
// resolving writers, and pre-classifying operations must change *nothing*
// observable. This suite pins that down against the frozen hash-based
// reference engine (checker::reference):
//   * the exhaustive verdict is identical on every isolation level, on
//     fuzzed, store-generated, and hand-built adversarial histories, with
//     and without a version-order restriction — and because both engines
//     use the same candidate order, the witness and node count are
//     identical too, not just the verdict;
//   * the read-state intervals of every operation under any execution match
//     the hashed ReadStateAnalysis interval-for-interval;
//   * mixed timestamped/untimestamped sets — the shape whose candidate
//     ordering was undefined behaviour in the pre-fix comparator — get a
//     deterministic, reference-matching verdict (regression for the
//     strict-weak-order fix).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "checker/checker.hpp"
#include "checker/reference.hpp"
#include "model/analysis.hpp"
#include "model/compiled.hpp"
#include "store/runner.hpp"
#include "workload/observations.hpp"
#include "workload/workload.hpp"

namespace crooks {
namespace {

using checker::CheckOptions;
using checker::CheckResult;
using checker::Outcome;
using ct::IsolationLevel;
using model::TransactionSet;
using model::TxnBuilder;

/// Assert verdict/witness/node equivalence of the compiled sequential
/// exhaustive engine against the hashed reference on one input.
void expect_engines_agree(const TransactionSet& txns, const CheckOptions& opts,
                          const std::string& what) {
  CheckOptions sequential = opts;
  sequential.threads = 1;
  const model::CompiledHistory ch(txns);
  for (IsolationLevel level : ct::kAllLevels) {
    const CheckResult hashed =
        checker::reference::check_exhaustive_hashed(level, txns, sequential);
    const CheckResult compiled = checker::check_exhaustive(level, ch, sequential);
    ASSERT_EQ(compiled.outcome, hashed.outcome)
        << what << " " << ct::name_of(level) << "\n compiled: " << compiled.detail
        << "\n hashed:   " << hashed.detail;
    EXPECT_EQ(compiled.nodes_explored, hashed.nodes_explored)
        << what << " " << ct::name_of(level);
    ASSERT_EQ(compiled.witness.has_value(), hashed.witness.has_value())
        << what << " " << ct::name_of(level);
    if (compiled.witness.has_value()) {
      EXPECT_EQ(compiled.witness->order(), hashed.witness->order())
          << what << " " << ct::name_of(level);
      EXPECT_TRUE(checker::verify_witness(level, ch, *compiled.witness).ok)
          << what << " " << ct::name_of(level);
    }

    // The full dispatcher may route through the graph engine, but whenever it
    // is definite it must agree with the reference oracle.
    if (hashed.outcome != Outcome::kUnknown) {
      const CheckResult dispatched = checker::check(level, ch, sequential);
      if (dispatched.outcome != Outcome::kUnknown) {
        EXPECT_EQ(dispatched.outcome, hashed.outcome)
            << what << " " << ct::name_of(level) << " dispatcher: " << dispatched.detail;
      }
    }
  }
}

/// Assert that the compiled ReadStateAnalysis reproduces the hashed
/// read-state intervals for every operation under `e`.
void expect_intervals_match(const TransactionSet& txns, const model::Execution& e,
                            const std::string& what) {
  const model::ReadStateAnalysis compiled(txns, e);
  const std::vector<std::vector<StateInterval>> hashed =
      checker::reference::read_state_intervals_hashed(txns, e);
  ASSERT_EQ(compiled.size(), hashed.size());
  for (std::size_t d = 0; d < hashed.size(); ++d) {
    const model::TxnAnalysis& ta = compiled.txn(d);
    ASSERT_EQ(ta.ops.size(), hashed[d].size()) << what;
    for (std::size_t i = 0; i < hashed[d].size(); ++i) {
      EXPECT_EQ(ta.ops[i].rs, hashed[d][i])
          << what << " txn " << to_string(txns.at(d).id()) << " op " << i;
    }
  }
}

void expect_all_agree(const TransactionSet& txns,
                      const std::unordered_map<Key, std::vector<TxnId>>* vo,
                      const std::string& what) {
  expect_engines_agree(txns, {}, what + " (unrestricted)");
  if (vo != nullptr) {
    CheckOptions restricted;
    restricted.version_order = vo;
    expect_engines_agree(txns, restricted, what + " (version order)");
  }
  if (!txns.empty()) {
    expect_intervals_match(txns, model::Execution::identity(txns), what + " identity");
    const CheckResult rc =
        checker::check_exhaustive(IsolationLevel::kReadCommitted, txns);
    if (rc.satisfiable()) {
      expect_intervals_match(txns, *rc.witness, what + " RC witness");
    }
  }
}

class CompiledDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompiledDifferential, FuzzedObservations) {
  wl::ObservationFuzzOptions opts;
  opts.transactions = 7;
  opts.keys = 4;
  const wl::FuzzedObservations f = wl::fuzz_observations(GetParam(), opts);
  expect_all_agree(f.txns, &f.version_order, "fuzzed");
}

TEST_P(CompiledDifferential, FuzzedUntimestamped) {
  wl::ObservationFuzzOptions opts;
  opts.transactions = 7;
  opts.keys = 4;
  opts.with_timestamps = false;
  const wl::FuzzedObservations f = wl::fuzz_observations(GetParam(), opts);
  expect_all_agree(f.txns, &f.version_order, "untimestamped");
}

// Regression for the strict-weak-order comparator fix: with a substantial
// fraction of transactions losing their timestamps, the candidate sort runs
// on exactly the mixed sets where the pre-fix comparator was not a strict
// weak order (UB in std::sort). Both engines now share the fixed total
// order, so the agreement must be exact here too.
TEST_P(CompiledDifferential, FuzzedMixedTimestamps) {
  wl::ObservationFuzzOptions opts;
  opts.transactions = 8;
  opts.keys = 4;
  opts.p_untimestamped = 0.4;
  const wl::FuzzedObservations f = wl::fuzz_observations(GetParam(), opts);
  bool any_timed = false, any_untimed = false;
  for (const model::Transaction& t : f.txns) {
    (t.has_timestamps() ? any_timed : any_untimed) = true;
  }
  expect_all_agree(f.txns, &f.version_order, "mixed timestamps");
  if (any_timed && any_untimed) {
    // Genuinely mixed: the untimed levels must still produce a definite,
    // reproducible verdict (pre-fix this was undefined behaviour).
    const CheckResult a = checker::check_exhaustive(IsolationLevel::kReadAtomic, f.txns);
    const CheckResult b = checker::check_exhaustive(IsolationLevel::kReadAtomic, f.txns);
    EXPECT_EQ(a.outcome, b.outcome);
    EXPECT_NE(a.outcome, Outcome::kUnknown);
  }
}

TEST_P(CompiledDifferential, StoreHistories) {
  const store::CCMode modes[] = {
      store::CCMode::kSerial, store::CCMode::kSnapshotIsolation,
      store::CCMode::kReadCommitted, store::CCMode::kReadUncommitted};
  for (store::CCMode mode : modes) {
    wl::MixOptions wopts;
    wopts.transactions = 7;
    wopts.keys = 5;
    wopts.reads_per_txn = 2;
    wopts.writes_per_txn = 2;
    wopts.sessions = 2;
    wopts.seed = GetParam();
    store::RunOptions ropts;
    ropts.mode = mode;
    ropts.seed = GetParam();
    const store::RunResult run = store::run(wl::generate_mix(wopts), ropts);
    expect_all_agree(run.observations, &run.version_order,
                     std::string(store::name_of(mode)));
  }
}

TEST(CompiledDifferentialHandBuilt, AdversarialShapes) {
  // G1a (dangling writer), G1b (phantom), internal reads — including one of
  // another transaction's write (stays external for edge purposes), ⊥ reads
  // of written keys, a writer that never wrote the read key, and sessions.
  const TransactionSet txns{{
      TxnBuilder(1).write(0).write(1).session(SessionId{1}).at(0, 10).build(),
      TxnBuilder(2).read(Key{0}, TxnId{1}).write(0).read(Key{0}, TxnId{2}).at(11, 20).build(),
      TxnBuilder(3).read(Key{0}, TxnId{99}).write(2).session(SessionId{1}).at(12, 21).build(),
      TxnBuilder(4).read_intermediate(Key{1}, TxnId{1}).read(1, 0).at(22, 30).build(),
      TxnBuilder(5).write(1).read(Key{2}, TxnId{1}).at(23, 31).build(),
      TxnBuilder(6).read(2, 3).read(0, 2).session(SessionId{1}).at(32, 40).build(),
  }};
  std::unordered_map<Key, std::vector<TxnId>> vo{
      {Key{0}, {TxnId{1}, TxnId{2}}},
      {Key{1}, {TxnId{1}, TxnId{5}}},
      {Key{2}, {TxnId{3}}},
  };
  expect_all_agree(txns, &vo, "hand-built");
}

TEST(CompiledDifferentialHandBuilt, MixedTimestampRegression) {
  // Deterministic mixed set: the sort that seeds the candidate order sees
  // timestamped and untimestamped transactions side by side.
  const TransactionSet txns{{
      TxnBuilder(1).write(0).at(0, 10).build(),
      TxnBuilder(2).read(0, 1).write(1).build(),  // no timestamps
      TxnBuilder(3).read(1, 2).at(11, 20).build(),
      TxnBuilder(4).write(2).build(),  // no timestamps
      TxnBuilder(5).read(2, 4).read(0, 1).at(21, 30).build(),
  }};
  expect_all_agree(txns, nullptr, "mixed hand-built");
  for (IsolationLevel level : ct::kAllLevels) {
    if (!ct::requires_timestamps(level)) continue;
    EXPECT_TRUE(checker::check_exhaustive(level, txns).unsatisfiable())
        << ct::name_of(level);
  }
  EXPECT_TRUE(checker::check_exhaustive(IsolationLevel::kReadAtomic, txns).satisfiable());
}

TEST(CompiledDifferentialHandBuilt, EmptySet) {
  expect_all_agree(TransactionSet(), nullptr, "empty");
}

// --- SoA layout invariants ---------------------------------------------------

TEST(SoaLayout, OpClassDerivationMatchesSpecifiedBranchOrder) {
  // op_class_of is a 128-entry table; re-derive every entry from the
  // documented branch order (write, then phantom, positional, self, init,
  // unknown / misses-key, else external) so a table regression cannot hide.
  for (unsigned m = 0; m < 128; ++m) {
    const auto flags = static_cast<std::uint8_t>(m);
    model::OpClass want;
    if (flags & model::kOpWrite) {
      want = model::OpClass::kWrite;
    } else if (flags & model::kOpPhantom) {
      want = model::OpClass::kReadNever;
    } else if (flags & model::kOpPositionalInternal) {
      want = (flags & model::kOpSelfWriter) != 0 ? model::OpClass::kReadInternal
                                                 : model::OpClass::kReadNever;
    } else if (flags & model::kOpSelfWriter) {
      want = model::OpClass::kReadNever;
    } else if (flags & model::kOpInitWriter) {
      want = model::OpClass::kReadInitial;
    } else if (flags & (model::kOpUnknownWriter | model::kOpWriterMissesKey)) {
      want = model::OpClass::kReadNever;
    } else {
      want = model::OpClass::kReadExternal;
    }
    EXPECT_EQ(model::op_class_of(flags), want) << "flags " << m;
  }
}

TEST(SoaLayout, ViewAlignsWithSourceOperations) {
  // The OpsView of every transaction must be index-aligned with the raw
  // Operation list, its field accessors must agree with the gathering
  // operator[], and the write bit must mirror Operation::is_write.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const wl::FuzzedObservations f = wl::fuzz_observations(seed);
    const model::CompiledHistory ch(f.txns);
    for (model::TxnIdx d = 0; d < ch.size(); ++d) {
      const auto& t = ch.txns().at(d);
      const model::OpsView v = ch.ops(d);
      ASSERT_EQ(v.size(), t.ops().size());
      ASSERT_EQ(v.size(), ch.op_count(d));
      for (std::size_t i = 0; i < v.size(); ++i) {
        EXPECT_EQ(v.is_write(i), t.ops()[i].is_write()) << d << ":" << i;
        EXPECT_EQ(v.is_read(i), !v.is_write(i)) << d << ":" << i;
        EXPECT_EQ(v.key(i), ch.keys().find(t.ops()[i].key)) << d << ":" << i;
        const model::CompiledOp gathered = v[i];
        EXPECT_EQ(gathered.key, v.key(i)) << d << ":" << i;
        EXPECT_EQ(gathered.writer, v.writer(i)) << d << ":" << i;
        EXPECT_EQ(gathered.cls, v.cls(i)) << d << ":" << i;
        EXPECT_EQ(gathered.flags, v.flags(i)) << d << ":" << i;
        EXPECT_EQ(gathered.cls, model::op_class_of(v.flags(i))) << d << ":" << i;
        EXPECT_EQ(gathered.internal(), v.internal(i)) << d << ":" << i;
      }
    }
  }
}

TEST(SoaLayout, WritesKeyIsExactOnEveryCompileShape) {
  // writes_key(d, k) is a binary search of d's sorted write footprint; it
  // must equal Transaction::writes on the source observations for every
  // (d, k) — in a borrowed compile, in a history grown block by block (keys
  // interned after d's block included), and after retire() has reclaimed
  // the prefix's payloads. Expectations read the source vector, because a
  // retired transaction's payload is a stub.
  wl::ObservationFuzzOptions fo;
  fo.transactions = 80;
  fo.keys = 40;
  fo.max_writes = 3;
  std::size_t late_keys_checked = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const wl::FuzzedObservations f = wl::fuzz_observations(seed, fo);
    const std::vector<model::Transaction> src(f.txns.begin(), f.txns.end());
    auto expect_exact = [&](const model::CompiledHistory& ch, const char* what) {
      for (model::TxnIdx d = 0; d < ch.size(); ++d) {
        for (model::KeyIdx k = 0; k < ch.key_count(); ++k) {
          ASSERT_EQ(ch.writes_key(d, k), src[d].writes(ch.keys().key_of(k)))
              << what << " seed " << seed << " txn " << d << " key " << k;
          const std::uint32_t slot = ch.write_slot(d, k);
          if (slot != model::CompiledHistory::kNoSlot) {
            ASSERT_LT(slot, ch.write_slot_count());
          }
        }
      }
    };
    expect_exact(model::CompiledHistory(f.txns), "borrowed");

    model::CompiledHistory grown;
    std::vector<std::size_t> keys_at_compile;  // key_count when d was compiled
    for (std::size_t at = 0, step = 1; at < src.size(); at += step, step = step % 7 + 1) {
      const std::size_t len = std::min(step, src.size() - at);
      grown.extend(std::span<const model::Transaction>(src.data() + at, len));
      keys_at_compile.resize(grown.size(), grown.key_count());
      expect_exact(grown, "grown");
      if (grown.size() >= 40 && grown.retired() == 0) {
        grown.retire(30);
        expect_exact(grown, "retired");
      }
    }
    ASSERT_EQ(grown.retired(), 30u);
    for (model::TxnIdx d = 0; d < grown.size(); ++d) {
      late_keys_checked += grown.key_count() - keys_at_compile[d];
    }
  }
  EXPECT_GT(late_keys_checked, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledDifferential,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace crooks
