// The paper's theorems, executable.
//
// For every CC mode and many seeds, a store run yields (a) a low-level Adya
// history with its authoritative version order and (b) pure client
// observations. The equivalence theorems (1, 3, 4, 6, 10 for the untimed
// levels; 2, 7, 8, 9 through the commit-order-pinned construction for the
// timed SI family) assert that phenomena verdicts on the history coincide
// with state-based checker verdicts on the observations. These tests run
// that assertion wholesale, plus: every mode satisfies its contract, the
// exhaustive oracle agrees on small runs, and verdicts are monotone over
// the hierarchy.
#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "adya/graph.hpp"
#include "adya/phenomena.hpp"
#include "checker/checker.hpp"
#include "model/compiled.hpp"
#include "store/runner.hpp"
#include "workload/workload.hpp"
#include "pairwise_oracle.hpp"

namespace crooks {
namespace {

using checker::CheckOptions;
using checker::CheckResult;
using checker::Outcome;
using ct::IsolationLevel;
using store::CCMode;
using store::RunOptions;
using store::RunResult;
using adya::pairwise::Lifted;

const CCMode kModes[] = {CCMode::kSerial,           CCMode::kTwoPhaseLocking,
                         CCMode::kWoundWait,        CCMode::kSnapshotIsolation,
                         CCMode::kReadAtomic,       CCMode::kReadCommitted,
                         CCMode::kReadUncommitted};

RunResult small_run(CCMode mode, std::uint64_t seed, std::size_t txns = 18,
                    std::size_t keys = 6) {
  const auto intents = wl::generate_mix({.transactions = txns,
                                         .keys = keys,
                                         .reads_per_txn = 2,
                                         .writes_per_txn = 2,
                                         .seed = seed});
  return store::run(intents, {.mode = mode,
                              .seed = seed * 7919 + 1,
                              .concurrency = 5,
                              .injected_abort_prob = 0.05,
                              .retries = 2});
}

struct ModeSeed {
  CCMode mode;
  std::uint64_t seed;
};

std::vector<ModeSeed> grid() {
  std::vector<ModeSeed> out;
  for (CCMode m : kModes) {
    for (std::uint64_t s = 1; s <= 8; ++s) out.push_back({m, s});
  }
  return out;
}

class StoreEquivalence : public ::testing::TestWithParam<ModeSeed> {};

/// Every mode satisfies its contracted isolation level, judged purely from
/// client observations (restricted to the store's install order).
TEST_P(StoreEquivalence, ModeSatisfiesItsContract) {
  const auto [mode, seed] = GetParam();
  const RunResult r = small_run(mode, seed);
  CheckOptions opts;
  opts.version_order = &r.version_order;
  const IsolationLevel contract = store::contract_of(mode);
  const CheckResult res = checker::check(contract, r.observations, opts);
  ASSERT_NE(res.outcome, Outcome::kUnknown) << res.detail;
  EXPECT_TRUE(res.satisfiable())
      << store::name_of(mode) << " run violates its contract "
      << ct::name_of(contract) << ": " << res.detail;
}

/// Theorems 1, 3, 4, 6, 10 (untimed levels) and 2/7/8/9 (timed family):
/// history-based verdict ≡ state-based verdict on the observations.
TEST_P(StoreEquivalence, PhenomenaMatchCommitTests) {
  const auto [mode, seed] = GetParam();
  const RunResult r = small_run(mode, seed);
  const adya::Phenomena p = Lifted(r.history).detect();
  CheckOptions opts;
  opts.version_order = &r.version_order;

  for (IsolationLevel level : ct::kAllLevels) {
    const adya::Verdict av = adya::satisfies(p, level);
    if (av == adya::Verdict::kInapplicable) continue;
    const CheckResult cr = checker::check(level, r.observations, opts);
    if (cr.outcome == Outcome::kUnknown) continue;  // engine gave up: no claim
    EXPECT_EQ(av == adya::Verdict::kSatisfied, cr.satisfiable())
        << store::name_of(mode) << " seed " << seed << " @ " << ct::name_of(level)
        << "\n  phenomena: " << p.to_string() << "\n  checker: " << cr.detail;
  }
}

/// The compiled Adya path against the pairwise oracle on the store's own
/// history: every Phenomena field, every explanation (same phenomenon, a
/// cycle the pairwise graph holds), and — when the run is strictly
/// serializable — the graph engine's SSER witness, which must be the order
/// the pairwise real-time graph yields.
TEST_P(StoreEquivalence, CompiledAdyaMatchesPairwiseOracle) {
  const auto [mode, seed] = GetParam();
  const RunResult r = small_run(mode, seed);
  const Lifted l(r.history);
  const adya::Phenomena p = l.detect();
  const adya::Phenomena want = adya::pairwise::detect(r.history);
  ASSERT_EQ(p.to_string(), want.to_string());
  ASSERT_EQ(p.g_si_a, want.g_si_a);
  ASSERT_EQ(p.g_si_b, want.g_si_b);
  ASSERT_EQ(p.rt_cycle, want.rt_cycle);
  for (IsolationLevel level : ct::kAllLevels) {
    const std::string got = l.explain(level);
    const std::string ref = adya::pairwise::explain_violation(r.history, level);
    ASSERT_EQ(got.empty(), ref.empty()) << ct::name_of(level);
    if (got.empty()) continue;
    const std::string phenomenon = adya::pairwise::phenomenon_of(got);
    ASSERT_EQ(phenomenon, adya::pairwise::phenomenon_of(ref)) << got << " | " << ref;
    if (adya::pairwise::cycle_of(ref).empty()) continue;
    EXPECT_TRUE(adya::pairwise::cycle_holds(r.history, phenomenon,
                                            adya::pairwise::cycle_of(got)))
        << got;
  }

  if (adya::satisfies(want, IsolationLevel::kStrictSerializable) !=
      adya::Verdict::kSatisfied) {
    return;
  }
  CheckOptions opts;
  opts.version_order = &r.version_order;
  const CheckResult cr = checker::check_graph(IsolationLevel::kStrictSerializable, l.ch, opts);
  ASSERT_TRUE(cr.satisfiable()) << cr.detail;
  std::unordered_map<TxnId, Timestamp> commit;
  for (const adya::HistTxn& t : r.history.txns()) commit[t.id] = t.commit_ts;
  const std::vector<TxnId> pairwise_order = adya::pairwise::topo_order(
      *adya::pairwise::with_time_pairs(r.history, adya::kRT), adya::kAllDsg | adya::kRT,
      commit);
  ASSERT_FALSE(pairwise_order.empty());
  EXPECT_EQ(cr.witness->order(), pairwise_order);
}

/// The exhaustive oracle agrees with the fast engines on small runs.
TEST_P(StoreEquivalence, ExhaustiveOracleAgreesOnTinyRuns) {
  const auto [mode, seed] = GetParam();
  const RunResult r = small_run(mode, seed, /*txns=*/7, /*keys=*/4);
  CheckOptions opts;
  opts.version_order = &r.version_order;
  for (IsolationLevel level : ct::kAllLevels) {
    const CheckResult fast = checker::check(level, r.observations, opts);
    const CheckResult oracle = checker::check_exhaustive(level, r.observations, opts);
    ASSERT_NE(oracle.outcome, Outcome::kUnknown);
    if (fast.outcome == Outcome::kUnknown) continue;
    EXPECT_EQ(fast.outcome, oracle.outcome)
        << store::name_of(mode) << " seed " << seed << " @ " << ct::name_of(level)
        << "\n  fast: " << fast.detail << "\n  oracle: " << oracle.detail;
  }
}

/// Hierarchy (Figure 4 + classic relations): if a run satisfies a stronger
/// level it satisfies every weaker one.
TEST_P(StoreEquivalence, VerdictsMonotoneOverHierarchy) {
  const auto [mode, seed] = GetParam();
  const RunResult r = small_run(mode, seed);
  CheckOptions opts;
  opts.version_order = &r.version_order;

  std::vector<std::pair<IsolationLevel, bool>> verdicts;
  for (IsolationLevel level : ct::kAllLevels) {
    const CheckResult cr = checker::check(level, r.observations, opts);
    if (cr.outcome != Outcome::kUnknown) verdicts.emplace_back(level, cr.satisfiable());
  }
  for (auto [strong, ssat] : verdicts) {
    if (!ssat) continue;
    for (auto [weak, wsat] : verdicts) {
      if (ct::at_least_as_strong(strong, weak)) {
        EXPECT_TRUE(wsat) << store::name_of(mode) << " seed " << seed << ": "
                          << ct::name_of(strong) << " sat but " << ct::name_of(weak)
                          << " unsat";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModes, StoreEquivalence, ::testing::ValuesIn(grid()),
                         [](const ::testing::TestParamInfo<ModeSeed>& info) {
                           return std::string(store::name_of(info.param.mode)) + "_s" +
                                  std::to_string(info.param.seed);
                         });

/// Weaker modes must actually *exhibit* the anomalies that separate them
/// from stronger levels (otherwise the differentiation tests above are
/// vacuous). We search a few seeds for each separation.
template <typename Pred>
bool some_seed(CCMode mode, Pred&& pred, std::size_t txns = 40, std::size_t keys = 4,
               double abort_prob = 0.0) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const auto intents = wl::generate_mix({.transactions = txns,
                                           .keys = keys,
                                           .reads_per_txn = 2,
                                           .writes_per_txn = 2,
                                           .seed = seed});
    const RunResult r = store::run(intents, {.mode = mode,
                                             .seed = seed + 100,
                                             .concurrency = 8,
                                             .injected_abort_prob = abort_prob});
    if (pred(r)) return true;
  }
  return false;
}

TEST(StoreSeparation, ReadCommittedExhibitsLostUpdates) {
  EXPECT_TRUE(some_seed(CCMode::kReadCommitted, [](const RunResult& r) {
    return Lifted(r.history).detect().g_single;
  }));
}

TEST(StoreSeparation, SnapshotIsolationExhibitsWriteSkew) {
  EXPECT_TRUE(some_seed(CCMode::kSnapshotIsolation, [](const RunResult& r) {
    const adya::Phenomena p = Lifted(r.history).detect();
    return p.g2 && !p.g_single && !p.g1();
  }));
}

TEST(StoreSeparation, ReadUncommittedExhibitsDirtyReads) {
  EXPECT_TRUE(some_seed(
      CCMode::kReadUncommitted,
      [](const RunResult& r) { return Lifted(r.history).detect().g1a; },
      /*txns=*/40, /*keys=*/4, /*abort_prob=*/0.25));
}

TEST(StoreSeparation, ReadCommittedExhibitsFracturedReads) {
  EXPECT_TRUE(some_seed(CCMode::kReadCommitted, [](const RunResult& r) {
    return Lifted(r.history).detect().fractured;
  }));
}

TEST(StoreSeparation, ReadAtomicNeverFractures) {
  EXPECT_FALSE(some_seed(CCMode::kReadAtomic, [](const RunResult& r) {
    return Lifted(r.history).detect().fractured;
  }));
}

TEST(StoreSeparation, TwoPhaseLockingNeverExhibitsG2) {
  EXPECT_FALSE(some_seed(CCMode::kTwoPhaseLocking, [](const RunResult& r) {
    const adya::Phenomena p = Lifted(r.history).detect();
    return p.g1() || p.g2;
  }));
}

TEST(StoreSeparation, WoundWaitNeverExhibitsG2) {
  EXPECT_FALSE(some_seed(CCMode::kWoundWait, [](const RunResult& r) {
    const adya::Phenomena p = Lifted(r.history).detect();
    return p.g1() || p.g2;
  }));
}

// --- Hot keys: compiled install orders vs the History path --------------------

using VersionOrder = std::unordered_map<Key, std::vector<TxnId>>;

/// A serial history over `keys` hot keys, thousands of writers each: every
/// transaction reads one or two keys at their latest writer and writes one
/// or two keys. `plant` may then rewrite one or two transactions (a stale
/// read, a future read, a fractured read, a write skew). The version order
/// lists each key's writers in apply order.
struct HotKeys {
  model::TransactionSet txns;
  VersionOrder vo;
};

enum class Plant { kNone, kStaleRead, kFutureRead, kFracturedRead, kWriteSkew };

HotKeys hot_key_history(std::size_t n, std::size_t keys, Plant plant) {
  std::mt19937_64 rng(n * 31 + keys);
  std::vector<std::vector<TxnId>> writers(keys);
  std::vector<model::Transaction> out;
  const std::uint64_t victim = n / 2;
  for (std::uint64_t i = 1; i <= n; ++i) {
    model::TxnBuilder b(i);
    const std::uint64_t k1 = rng() % keys;
    const std::uint64_t k2 = (k1 + 1 + rng() % (keys - 1)) % keys;
    auto latest = [&](std::uint64_t k) {
      return writers[k].empty() ? kInitTxn : writers[k].back();
    };
    auto back = [&](std::uint64_t k, std::size_t by) {
      return writers[k].size() <= by ? kInitTxn : writers[k][writers[k].size() - 1 - by];
    };
    std::vector<std::uint64_t> w{k1};
    if (i == victim && plant == Plant::kStaleRead) {
      b.read(Key{k1}, back(k1, 3));  // lost update: G-Single
    } else if (i == victim && plant == Plant::kFutureRead) {
      b.read(Key{k2}, TxnId{i + 40});  // read from the future: G1c
    } else if (i == victim && plant == Plant::kFracturedRead) {
      // T_p wrote both keys; read k1 at T_p and k2 one version before it.
      b.read(Key{0}, writers[0].back()).read(Key{1}, back(1, 1));
      w = {2};
    } else if (i == victim && plant == Plant::kWriteSkew) {
      b.read(Key{0}, latest(0)).read(Key{1}, latest(1));
      w = {0};
    } else if (i == victim + 1 && plant == Plant::kWriteSkew) {
      b.read(Key{0}, out.back().ops()[0].value.writer).read(Key{1}, latest(1));
      w = {1};
    } else {
      b.read(Key{k1}, latest(k1));
      if (rng() % 2 == 0) b.read(Key{k2}, latest(k2));
      if (rng() % 2 == 0) w.push_back(k2);
    }
    // The fractured-read setup: the transaction before the victim writes
    // keys 0 and 1, and the one before that writes key 1.
    if (plant == Plant::kFracturedRead && (i == victim - 1 || i == victim - 2)) {
      w = i == victim - 1 ? std::vector<std::uint64_t>{0, 1}
                          : std::vector<std::uint64_t>{1};
    }
    for (std::uint64_t k : w) {
      b.write(Key{k});
      writers[k].push_back(TxnId{i});
    }
    out.push_back(b.build());
  }
  HotKeys h{model::TransactionSet(std::move(out)), {}};
  for (std::uint64_t k = 0; k < keys; ++k) h.vo[Key{k}] = writers[k];
  return h;
}

std::string error_of(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "(accepted)";
}

TEST(HotKeyInstallOrders, MatchTheHistoryPath) {
  // Ranked install orders must reproduce the pairwise History oracle: every
  // phenomenon, every untimed level's verdict, and the graph engine's
  // explanation (the compiled explanation, naming the oracle's phenomenon
  // with a cycle the oracle's graph holds).
  const IsolationLevel levels[] = {IsolationLevel::kReadUncommitted,
                                   IsolationLevel::kReadCommitted,
                                   IsolationLevel::kReadAtomic, IsolationLevel::kPSI,
                                   IsolationLevel::kSerializable};
  const std::pair<Plant, const char*> plants[] = {
      {Plant::kNone, "none"},
      {Plant::kStaleRead, "G2,G-Single"},
      {Plant::kFutureRead, "G1c,G2,G-Single"},
      {Plant::kFracturedRead, "G2,G-Single,fractured"},
      {Plant::kWriteSkew, "G2"}};
  for (const auto& [plant, phenomena] : plants) {
    const HotKeys hk = hot_key_history(3000, 3, plant);
    const model::CompiledHistory ch(hk.txns);
    ASSERT_GT(ch.writers_of(0).size(), 1000u);
    const adya::InstallOrders io = adya::compile_install_orders(ch, &hk.vo);
    const adya::History h = adya::pairwise::from_observations(hk.txns, hk.vo);
    const adya::Phenomena compiled = adya::detect(ch, io);
    const adya::Phenomena history = adya::pairwise::detect(h);
    ASSERT_EQ(history.to_string(), phenomena);
    ASSERT_EQ(compiled.to_string(), phenomena);
    CheckOptions opts;
    opts.version_order = &hk.vo;
    for (IsolationLevel l : levels) {
      const adya::Verdict v = adya::satisfies(history, l);
      ASSERT_EQ(adya::satisfies(compiled, l), v) << ct::name_of(l);
      ASSERT_EQ(adya::satisfies(adya::detect(ch, io, l), l), v) << ct::name_of(l);
      const CheckResult r = checker::check_graph(l, ch, opts);
      if (v == adya::Verdict::kViolated) {
        EXPECT_TRUE(r.unsatisfiable()) << ct::name_of(l);
        const std::string explained = adya::explain_violation(ch, io, l);
        EXPECT_EQ(r.detail, "under the system's install order: " + explained)
            << ct::name_of(l);
        const std::string ref = adya::pairwise::explain_violation(h, l);
        const std::string phenomenon = adya::pairwise::phenomenon_of(explained);
        EXPECT_EQ(phenomenon, adya::pairwise::phenomenon_of(ref)) << ct::name_of(l);
        if (!adya::pairwise::cycle_of(ref).empty()) {
          EXPECT_TRUE(adya::pairwise::cycle_holds(h, phenomenon,
                                                  adya::pairwise::cycle_of(explained)))
              << explained;
        }
      } else {
        EXPECT_TRUE(r.satisfiable()) << ct::name_of(l) << ": " << r.detail;
      }
    }
  }
}

TEST(HotKeyInstallOrders, ErrorsMatchTheHistoryPath) {
  const HotKeys hk = hot_key_history(3000, 3, Plant::kNone);
  const model::CompiledHistory ch(hk.txns);
  const TxnId not_a_writer_of_0 = hk.vo.at(Key{1}).front() == hk.vo.at(Key{0}).front()
                                      ? hk.vo.at(Key{2}).front()
                                      : hk.vo.at(Key{1}).front();
  auto expect_same = [&](VersionOrder vo, const std::string& want) {
    const std::string compiled =
        error_of([&] { adya::compile_install_orders(ch, &vo); });
    const std::string history =
        error_of([&] { adya::pairwise::from_observations(hk.txns, vo); });
    EXPECT_EQ(compiled, want);
    EXPECT_EQ(history, want);
  };
  {
    VersionOrder vo = hk.vo;
    vo[Key{0}].erase(vo[Key{0}].begin() + 700);
    expect_same(vo, "version order misses a committed writer of k0");
  }
  {
    VersionOrder vo = hk.vo;
    vo[Key{0}].insert(vo[Key{0}].begin() + 700, TxnId{999999});
    expect_same(vo, "version order names unknown transaction");
  }
  {
    VersionOrder vo = hk.vo;
    ASSERT_FALSE(hk.txns.by_id(not_a_writer_of_0).writes(Key{0}));
    vo[Key{0}].insert(vo[Key{0}].begin() + 700, not_a_writer_of_0);
    expect_same(vo,
                "version order must contain exactly the committed writers of the key");
  }
  {
    VersionOrder vo = hk.vo;
    vo[Key{0}].push_back(vo[Key{0}][700]);
    expect_same(vo, adya::repeated_installer_message(Key{0}, hk.vo.at(Key{0})[700]));
  }
}

}  // namespace
}  // namespace crooks
