// Incremental compilation and the streaming checker, differentially.
//
// Three oracles pin the incremental paths down:
//  * a grown CompiledHistory must be structurally identical to compiling the
//    final set fresh — every field an engine can observe, including the
//    commit-sorted order the real-time frontiers read;
//  * OnlineChecker under any interleaving of append()/append_all() must agree
//    per level (ok, first violation, explanation text) with the frozen hashed
//    monitor checker::reference::OnlineCheckerHashed fed one txn at a time,
//    and with a fresh OnlineChecker fed everything at once — while its
//    hashed-fallback tripwire stays at zero;
//  * check_incremental / check_batch prefix chains must reproduce the
//    verdicts of independent check() calls on each prefix — at the timed
//    levels too, where a later block may bring real-time predecessors of
//    transactions already appended.
// Inputs are store-generated apply orders (real system behaviour) and fuzzed
// adversarial observations (dangling writers, phantoms, mixed timestamps).
// The final test tails a growing file through report::stream_audit with a
// concurrent writer — the `crooks-check --follow` loop, exercised under TSan.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "checker/checker.hpp"
#include "checker/online.hpp"
#include "checker/reference.hpp"
#include "model/compiled.hpp"
#include "obs/metrics.hpp"
#include "report/serialize.hpp"
#include "report/stream_audit.hpp"
#include "store/runner.hpp"
#include "workload/observations.hpp"
#include "workload/workload.hpp"

namespace crooks::checker {
namespace {

using model::CompiledHistory;
using model::Transaction;
using model::TransactionSet;
using model::TxnBuilder;
using model::TxnIdx;

std::vector<Transaction> to_vector(const TransactionSet& txns) {
  std::vector<Transaction> all;
  all.reserve(txns.size());
  for (const Transaction& t : txns) all.push_back(t);
  return all;
}

/// The adversarial input mix: store runs and fuzz shapes that hit every
/// classification branch (dangling writers, phantoms, untimestamped tails).
std::vector<std::vector<Transaction>> interesting_streams() {
  std::vector<std::vector<Transaction>> streams;
  for (std::uint64_t seed : {1u, 7u, 23u}) {
    streams.push_back(to_vector(wl::fuzz_observations(seed, {.transactions = 28,
                                                             .keys = 5,
                                                             .p_dangling = 0.15,
                                                             .p_phantom = 0.15})
                                    .txns));
  }
  streams.push_back(to_vector(
      wl::fuzz_observations(5, {.transactions = 24, .keys = 4, .p_untimestamped = 0.4})
          .txns));
  streams.push_back(to_vector(
      wl::fuzz_observations(9, {.transactions = 20, .keys = 4, .with_timestamps = false})
          .txns));
  for (std::uint64_t seed : {3u, 11u}) {
    const auto intents = wl::generate_mix({.transactions = 60,
                                           .keys = 8,
                                           .reads_per_txn = 2,
                                           .writes_per_txn = 2,
                                           .seed = seed});
    streams.push_back(to_vector(
        store::run(intents, {.mode = store::CCMode::kSnapshotIsolation,
                             .seed = seed + 1, .concurrency = 4, .retries = 3})
            .observations));
  }
  return streams;
}

/// A read-latest stream over a few keys, sessions round-robin, monotone
/// timestamps. After `clean` transactions, each read sees, with probability
/// `p_stale`, a version about 100 transactions old: behind a small window's
/// dropped versions, and typically a late RA or PSI violation.
std::vector<Transaction> stale_read_stream(std::uint64_t seed, std::size_t n,
                                           std::size_t clean, double p_stale) {
  constexpr std::size_t kKeys = 6;
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution stale(p_stale);
  std::vector<std::vector<std::uint64_t>> writers(kKeys);  // per key, in order
  std::vector<Transaction> all;
  for (std::uint64_t id = 1; id <= n; ++id) {
    TxnBuilder b(id);
    const std::size_t r1 = rng() % kKeys, r2 = (r1 + 1 + rng() % (kKeys - 1)) % kKeys;
    for (std::size_t k : {r1, r2}) {
      const std::vector<std::uint64_t>& w = writers[k];
      std::uint64_t seen = w.empty() ? 0 : w.back();
      if (id > clean && w.size() > 20 && stale(rng)) seen = w[w.size() - 18];
      b.read(Key{k}, TxnId{seen});
    }
    // One or two writes, so a later read pair can fracture across them.
    const std::size_t w1 = rng() % kKeys, w2 = (w1 + 1) % kKeys;
    for (std::size_t k : {w1, w2}) {
      if (k == w2 && rng() % 2 == 0) break;
      b.write(Key{k});
      writers[k].push_back(id);
    }
    b.session(SessionId{static_cast<std::uint32_t>(id % 4)})
        .at(static_cast<Timestamp>(2 * id), static_cast<Timestamp>(2 * id + 1));
    all.push_back(b.build());
  }
  return all;
}

/// Split [0, n) into random-sized consecutive blocks (sizes 1..max_block).
std::vector<std::size_t> random_cuts(std::size_t n, std::size_t max_block,
                                     std::mt19937_64& rng) {
  std::vector<std::size_t> cuts;
  std::uniform_int_distribution<std::size_t> d(1, max_block);
  for (std::size_t at = 0; at < n;) {
    at = std::min(n, at + d(rng));
    cuts.push_back(at);
  }
  return cuts;
}

void expect_structurally_equal(const CompiledHistory& a, const CompiledHistory& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.key_count(), b.key_count());
  EXPECT_EQ(a.all_timestamped(), b.all_timestamped());
  for (model::KeyIdx k = 0; k < a.key_count(); ++k) {
    EXPECT_EQ(a.keys().key_of(k), b.keys().key_of(k)) << "key " << k;
    const auto wa = a.writers_of(k), wb = b.writers_of(k);
    ASSERT_TRUE(std::equal(wa.begin(), wa.end(), wb.begin(), wb.end()))
        << "writers_of " << k;
  }
  for (TxnIdx d = 0; d < a.size(); ++d) {
    EXPECT_EQ(a.id_of(d), b.id_of(d));
    EXPECT_EQ(a.start_ts(d), b.start_ts(d));
    EXPECT_EQ(a.commit_ts(d), b.commit_ts(d));
    EXPECT_EQ(a.session(d), b.session(d));
    const auto oa = a.ops(d), ob = b.ops(d);
    ASSERT_EQ(oa.size(), ob.size()) << "ops of " << d;
    for (std::size_t i = 0; i < oa.size(); ++i) {
      // Compare through the SoA field accessors (each reads one parallel
      // array) so a desynchronized array is caught even if the gathering
      // operator[] happened to mask it.
      EXPECT_EQ(oa.key(i), ob.key(i)) << d << ":" << i;
      EXPECT_EQ(oa.writer(i), ob.writer(i)) << d << ":" << i;
      EXPECT_EQ(oa.cls(i), ob.cls(i)) << d << ":" << i;
      EXPECT_EQ(oa.flags(i), ob.flags(i)) << d << ":" << i;
      // The gathered record must agree with the field accessors.
      EXPECT_EQ(oa[i].key, oa.key(i)) << d << ":" << i;
      EXPECT_EQ(oa[i].writer, oa.writer(i)) << d << ":" << i;
      EXPECT_EQ(oa[i].cls, oa.cls(i)) << d << ":" << i;
      EXPECT_EQ(oa[i].is_write(), oa.is_write(i)) << d << ":" << i;
      EXPECT_EQ(oa[i].internal(), oa.internal(i)) << d << ":" << i;
    }
    const auto wka = a.write_keys(d), wkb = b.write_keys(d);
    EXPECT_TRUE(std::equal(wka.begin(), wka.end(), wkb.begin(), wkb.end()));
    const auto rka = a.read_keys(d), rkb = b.read_keys(d);
    EXPECT_TRUE(std::equal(rka.begin(), rka.end(), rkb.begin(), rkb.end()));
    // Masks may be sized to different key universes (block-time vs final);
    // the observable predicate must agree over every final key.
    for (model::KeyIdx k = 0; k < a.key_count(); ++k) {
      EXPECT_EQ(a.writes_key(d, k), b.writes_key(d, k)) << d << "/" << k;
    }
  }
  EXPECT_EQ(a.ts_order(), b.ts_order());
}

TEST(CompiledDelta, GrownHistoryMatchesFreshCompile) {
  std::mt19937_64 rng(1234);
  for (const std::vector<Transaction>& all : interesting_streams()) {
    const TransactionSet whole{std::vector<Transaction>(all)};
    const CompiledHistory fresh(whole);
    for (int rep = 0; rep < 4; ++rep) {
      CompiledHistory grown;
      ASSERT_TRUE(grown.owns_transactions());
      std::size_t prev = 0;
      for (std::size_t cut : random_cuts(all.size(), 6, rng)) {
        const auto& delta = grown.extend(
            std::span<const Transaction>(all.data() + prev, cut - prev));
        EXPECT_EQ(delta.first, prev);
        EXPECT_EQ(delta.count, cut - prev);
        prev = cut;
      }
      expect_structurally_equal(fresh, grown);
    }
  }
}

TEST(CompiledDelta, RejectsStartAfterCommit) {
  // A transaction that commits before it starts would real-time-precede
  // itself. Both construction modes reject it in the parser's words, and a
  // rejected block leaves a growable history untouched.
  const Transaction bad = TxnBuilder(7).write(Key{0}).at(9, 4).build();
  const std::string want = "T7: " + model::inverted_timestamps_message(9, 4);
  const TransactionSet set{{TxnBuilder(1).write(Key{1}).at(0, 1).build(), bad}};
  try {
    const CompiledHistory ch(set);
    FAIL() << "inverted timestamps accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), want);
  }
  CompiledHistory grown;
  grown.extend(TxnBuilder(1).write(Key{1}).at(0, 1).build());
  const std::vector<Transaction> block{TxnBuilder(2).write(Key{2}).at(2, 3).build(), bad};
  try {
    grown.extend(std::span<const Transaction>(block));
    FAIL() << "inverted timestamps accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), want);
  }
  EXPECT_EQ(grown.size(), 1u);
  EXPECT_EQ(grown.ts_order().size(), 1u);
  // start == commit is a point interval, not an inversion.
  EXPECT_NO_THROW(grown.extend(TxnBuilder(3).write(Key{3}).at(5, 5).build()));
}

TEST(CompiledDelta, LateWriterResolvedAcrossBlocks) {
  // T2 reads T9 before T9 exists: unknown writer at block 1, resolved (and
  // reclassified kReadExternal) when T9's block arrives. T3 reads T8 which
  // arrives but never writes the awaited key: resolved to writer-misses-key.
  CompiledHistory ch;
  ch.extend(TxnBuilder(2).read(Key{0}, TxnId{9}).at(0, 1).build());
  ch.extend(TxnBuilder(3).read(Key{1}, TxnId{8}).at(2, 3).build());
  EXPECT_EQ(ch.ops(0)[0].cls, model::OpClass::kReadNever);
  EXPECT_EQ(ch.ops(0)[0].writer, model::kNoTxnIdx);

  const auto& delta = ch.extend(TxnBuilder(9).write(Key{0}).at(4, 5).build());
  ASSERT_EQ(delta.resolved.size(), 1u);
  EXPECT_EQ(delta.resolved[0], (std::pair<TxnIdx, std::uint32_t>{0, 0}));
  EXPECT_EQ(ch.ops(0)[0].cls, model::OpClass::kReadExternal);
  EXPECT_EQ(ch.ops(0)[0].writer, 2u);

  ch.extend(TxnBuilder(8).write(Key{7}).at(6, 7).build());
  EXPECT_EQ(ch.ops(1)[0].cls, model::OpClass::kReadNever);
  EXPECT_NE(ch.ops(1)[0].flags & model::kOpWriterMissesKey, 0);
  EXPECT_EQ(ch.ops(1)[0].writer, 3u);

  // The grown result is what a fresh compile of the final set produces.
  const TransactionSet whole{to_vector(ch.txns())};
  expect_structurally_equal(CompiledHistory(whole), ch);
}

TEST(CompiledDelta, ExtendValidatesWithoutMutating) {
  CompiledHistory ch;
  ch.extend(TxnBuilder(1).write(Key{0}).build());
  EXPECT_THROW(ch.extend(TxnBuilder(1).write(Key{1}).build()), std::invalid_argument);
  const std::vector<Transaction> bad = {TxnBuilder(2).write(Key{0}).build(),
                                        TxnBuilder(2).write(Key{1}).build()};
  EXPECT_THROW(ch.extend(std::span<const Transaction>(bad)), std::invalid_argument);
  EXPECT_EQ(ch.size(), 1u);
  const TransactionSet borrowed{{TxnBuilder(5).write(Key{0}).build()}};
  CompiledHistory immutable(borrowed);
  EXPECT_THROW(immutable.extend(TxnBuilder(6).write(Key{1}).build()), std::logic_error);
}

/// Drive `chk` with a random interleaving of append() and append_all() and
/// the hashed oracle with the same transactions one at a time; both must
/// agree on every level after every step.
void drive_differentially(const std::vector<Transaction>& all, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  OnlineChecker chk;
  reference::OnlineCheckerHashed oracle;
  std::uint64_t blocks = 0;
  std::size_t at = 0;
  std::uniform_int_distribution<std::size_t> d(1, 5);
  while (at < all.size()) {
    const std::size_t take = std::min(all.size() - at, d(rng));
    if (take == 1 && rng() % 2 == 0) {
      EXPECT_TRUE(chk.append(all[at]));
    } else {
      EXPECT_EQ(chk.append_all(std::span<const Transaction>(all.data() + at, take)),
                take);
    }
    ++blocks;
    for (std::size_t i = 0; i < take; ++i) oracle.append(all[at + i]);
    at += take;
    for (ct::IsolationLevel level : ct::kAllLevels) {
      const auto& got = chk.status(level);
      const auto& want = oracle.status(level);
      ASSERT_EQ(got.ok, want.ok)
          << ct::name_of(level) << " after " << at << " txns (seed " << seed << ")";
      ASSERT_EQ(got.first_violation, want.first_violation) << ct::name_of(level);
      ASSERT_EQ(got.explanation, want.explanation) << ct::name_of(level);
    }
  }
  // Every transaction went through a compiled delta; the tripwire stayed cold.
  EXPECT_EQ(chk.stats().blocks, blocks);
  EXPECT_EQ(chk.stats().compiled_appends, all.size());
  EXPECT_EQ(chk.stats().hashed_fallback_appends, 0u);
  EXPECT_EQ(chk.stats().duplicates_ignored, 0u);

  // And the whole interleaving matches one fresh whole-stream append_all.
  OnlineChecker fresh;
  EXPECT_EQ(fresh.append_all(std::span<const Transaction>(all)), all.size());
  for (ct::IsolationLevel level : ct::kAllLevels) {
    EXPECT_EQ(fresh.status(level).ok, chk.status(level).ok) << ct::name_of(level);
    EXPECT_EQ(fresh.status(level).first_violation, chk.status(level).first_violation);
    EXPECT_EQ(fresh.status(level).explanation, chk.status(level).explanation);
  }
  EXPECT_EQ(fresh.stats().hashed_fallback_appends, 0u);
  EXPECT_EQ(fresh.surviving_levels(), chk.surviving_levels());
}

TEST(OnlineIncremental, AgreesWithHashedOracleOnAnyInterleaving) {
  std::uint64_t seed = 42;
  for (const std::vector<Transaction>& all : interesting_streams()) {
    for (int rep = 0; rep < 3; ++rep) drive_differentially(all, seed++);
  }
}

TEST(OnlineIncremental, WeakOnlyDirectPathMatchesGeneralAndHashedOracle) {
  // A checker tracking only the untimed-weak levels skips the read-state
  // interval ends (no per-read timeline search). Differentially: under
  // random block interleavings — including duplicate re-appends of an
  // already-streamed block — it must agree per level, byte for byte, with
  // both the general-path checker and the frozen hashed monitor.
  const std::vector<ct::IsolationLevel> weak{
      ct::IsolationLevel::kReadUncommitted, ct::IsolationLevel::kReadCommitted,
      ct::IsolationLevel::kReadAtomic, ct::IsolationLevel::kPSI};
  std::mt19937_64 rng(771);
  for (const std::vector<Transaction>& all : interesting_streams()) {
    OnlineChecker direct(weak);
    OnlineChecker general;
    reference::OnlineCheckerHashed oracle;
    std::size_t at = 0;
    std::size_t duplicates = 0;
    std::uniform_int_distribution<std::size_t> d(1, 5);
    while (at < all.size()) {
      const std::size_t take = std::min(all.size() - at, d(rng));
      const std::span<const Transaction> block(all.data() + at, take);
      EXPECT_EQ(direct.append_all(block), take);
      EXPECT_EQ(general.append_all(block), take);
      for (const Transaction& t : block) oracle.append(t);
      if (at > 0 && rng() % 3 == 0) {
        // Re-append an already-streamed transaction: ignored on every path.
        EXPECT_FALSE(direct.append(all[rng() % at]));
        ++duplicates;
      }
      at += take;
      for (ct::IsolationLevel level : weak) {
        const auto& got = direct.status(level);
        const auto& gen = general.status(level);
        const auto& want = oracle.status(level);
        ASSERT_EQ(got.ok, gen.ok)
            << ct::name_of(level) << " after " << at << " txns";
        ASSERT_EQ(got.first_violation, gen.first_violation) << ct::name_of(level);
        ASSERT_EQ(got.explanation, gen.explanation) << ct::name_of(level);
        ASSERT_EQ(got.ok, want.ok) << ct::name_of(level) << " vs hashed oracle";
        ASSERT_EQ(got.explanation, want.explanation) << ct::name_of(level);
      }
    }
    EXPECT_EQ(direct.stats().direct_appends, all.size());
    EXPECT_EQ(direct.stats().compiled_appends, all.size());
    EXPECT_EQ(direct.stats().duplicates_ignored, duplicates);
    EXPECT_EQ(direct.stats().ops_evaluated, general.stats().ops_evaluated);
    EXPECT_EQ(direct.stats().hashed_fallback_appends, 0u);
    EXPECT_EQ(general.stats().direct_appends, 0u);
  }

  // Windowed arm: the same pair under one small window, on streams long
  // enough to fold, so both read past versions a fold dropped. Skipping the
  // interval ends must not change any weak verdict under folds either.
  std::vector<std::vector<Transaction>> long_streams;
  for (std::uint64_t seed : {5u, 19u, 43u}) {
    long_streams.push_back(stale_read_stream(seed, 600, 100 * seed % 400, 0.03));
  }
  std::uniform_int_distribution<std::size_t> wd(1, 24);
  std::uint64_t lossy_reads = 0;
  for (const std::vector<Transaction>& all : long_streams) {
    OnlineChecker direct(weak);
    OnlineChecker general;
    direct.set_window({.max_resident_txns = 64});
    general.set_window({.max_resident_txns = 64});
    for (std::size_t at = 0; at < all.size();) {
      const std::size_t take = std::min(all.size() - at, wd(rng));
      const std::span<const Transaction> block(all.data() + at, take);
      EXPECT_EQ(direct.append_all(block), take);
      EXPECT_EQ(general.append_all(block), take);
      at += take;
      for (ct::IsolationLevel level : weak) {
        const auto& got = direct.status(level);
        const auto& gen = general.status(level);
        ASSERT_EQ(got.ok, gen.ok)
            << ct::name_of(level) << " after " << at << " txns, windowed";
        ASSERT_EQ(got.first_violation, gen.first_violation) << ct::name_of(level);
        ASSERT_EQ(got.explanation, gen.explanation) << ct::name_of(level);
      }
    }
    lossy_reads += direct.stats().past_window_reads;
    EXPECT_GT(direct.stats().window_folds, 0u);
    EXPECT_EQ(direct.stats().window_folds, general.stats().window_folds);
    EXPECT_EQ(direct.stats().direct_appends, all.size());
  }
  EXPECT_GT(lossy_reads, 0u) << "no read reached behind a fold";
}

TEST(OnlineIncremental, DuplicatesAndReservedIdsIgnored) {
  const std::vector<Transaction> all = {
      TxnBuilder(1).write(Key{0}).at(0, 1).build(),
      TxnBuilder(2).read(Key{0}, TxnId{1}).at(2, 3).build()};
  OnlineChecker chk;
  EXPECT_EQ(chk.append_all(std::span<const Transaction>(all)), 2u);
  EXPECT_FALSE(chk.append(all[0]));                 // stream duplicate
  EXPECT_FALSE(chk.append(TxnBuilder(0).write(Key{0}).build()));  // reserved
  // A block mixing new, stream-duplicate and intra-block-duplicate ids keeps
  // only the new ones, first occurrence wins.
  const std::vector<Transaction> block = {
      TxnBuilder(3).write(Key{1}).at(4, 5).build(), all[1],
      TxnBuilder(3).write(Key{2}).at(6, 7).build()};
  EXPECT_EQ(chk.append_all(std::span<const Transaction>(block)), 1u);
  EXPECT_EQ(chk.size(), 3u);
  EXPECT_EQ(chk.stats().duplicates_ignored, 4u);
  EXPECT_EQ(chk.stats().hashed_fallback_appends, 0u);
  EXPECT_TRUE(chk.stream().writes_key(2, chk.stream().keys().find(Key{1})));
}

TEST(CheckIncremental, MatchesIndependentPrefixChecks) {
  const auto fuzz = wl::fuzz_observations(17, {.transactions = 8, .keys = 3});
  const std::vector<Transaction> all = to_vector(fuzz.txns);
  std::vector<TransactionSet> blocks;
  std::vector<TransactionSet> prefixes;
  for (std::size_t at = 0; at < all.size(); at += 3) {
    const std::size_t take = std::min<std::size_t>(3, all.size() - at);
    blocks.emplace_back(
        std::vector<Transaction>(all.begin() + at, all.begin() + at + take));
    prefixes.emplace_back(
        std::vector<Transaction>(all.begin(), all.begin() + at + take));
  }
  CheckOptions opts;
  opts.threads = 1;
  for (ct::IsolationLevel level :
       {ct::IsolationLevel::kReadAtomic, ct::IsolationLevel::kPSI,
        ct::IsolationLevel::kSerializable, ct::IsolationLevel::kStrongSI}) {
    const std::vector<CheckResult> inc = check_incremental(level, blocks, opts);
    ASSERT_EQ(inc.size(), blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const CheckResult lone = check(level, prefixes[i], opts);
      EXPECT_EQ(inc[i].outcome, lone.outcome)
          << ct::name_of(level) << " prefix " << i;
      EXPECT_EQ(inc[i].nodes_explored, lone.nodes_explored)
          << ct::name_of(level) << " prefix " << i;
    }
  }
  std::vector<TransactionSet> dup = {blocks[0], blocks[0]};
  EXPECT_THROW(check_incremental(ct::IsolationLevel::kReadAtomic, dup, opts),
               std::invalid_argument);
}

/// A serial read-latest history delivered newest first: every block brings
/// real-time *predecessors* (commit(new) < start(old)) of transactions
/// already appended, in two sessions.
std::vector<Transaction> late_predecessor_stream(std::size_t n) {
  std::vector<Transaction> in_time;
  std::vector<TxnId> last(3, kInitTxn);
  for (std::uint64_t i = 1; i <= n; ++i) {
    const auto t = static_cast<Timestamp>(10 * i);
    in_time.push_back(TxnBuilder(i)
                          .read(Key{(i + 1) % 3}, last[(i + 1) % 3])
                          .write(Key{i % 3})
                          .session(SessionId{static_cast<std::uint32_t>(i % 2)})
                          .at(t, t + 5)
                          .build());
    last[i % 3] = TxnId{i};
  }
  return {in_time.rbegin(), in_time.rend()};
}

TEST(CheckIncremental, TimedLevelsMatchFreshChecksOnEveryPrefix) {
  // The exhaustive engine's real-time / session readiness is a frontier
  // over the commit-sorted order, read fresh on every check: a grown
  // history must give the verdict, witness and node count of compiling each
  // prefix from scratch — also when later blocks carry earlier transactions.
  std::vector<std::vector<Transaction>> streams = interesting_streams();
  streams.push_back(late_predecessor_stream(9));
  {
    const std::vector<Transaction>& late = streams.back();
    bool has_late = false;
    for (std::size_t a = 0; a < late.size(); ++a) {
      for (std::size_t b = 0; b < a; ++b) has_late |= time_precedes(late[a], late[b]);
    }
    ASSERT_TRUE(has_late);
  }
  std::mt19937_64 rng(99);
  CheckOptions opts;
  opts.threads = 1;
  opts.engine = EngineSelect::kExhaustive;
  opts.max_nodes = 4000;
  for (const std::vector<Transaction>& all : streams) {
    std::vector<TransactionSet> blocks;
    std::vector<TransactionSet> prefixes;
    std::size_t prev = 0;
    for (std::size_t cut : random_cuts(all.size(), 5, rng)) {
      blocks.emplace_back(std::vector<Transaction>(all.begin() + prev, all.begin() + cut));
      prefixes.emplace_back(std::vector<Transaction>(all.begin(), all.begin() + cut));
      prev = cut;
    }
    for (ct::IsolationLevel level :
         {ct::IsolationLevel::kStrongSI, ct::IsolationLevel::kSessionSI,
          ct::IsolationLevel::kStrictSerializable}) {
      const std::vector<CheckResult> inc = check_incremental(level, blocks, opts);
      ASSERT_EQ(inc.size(), blocks.size());
      for (std::size_t i = 0; i < blocks.size(); ++i) {
        const CheckResult lone = check(level, prefixes[i], opts);
        EXPECT_EQ(inc[i].outcome, lone.outcome) << ct::name_of(level) << " prefix " << i;
        EXPECT_EQ(inc[i].nodes_explored, lone.nodes_explored)
            << ct::name_of(level) << " prefix " << i;
        EXPECT_EQ(inc[i].witness.has_value(), lone.witness.has_value());
        if (inc[i].witness.has_value() && lone.witness.has_value()) {
          EXPECT_EQ(inc[i].witness->order(), lone.witness->order());
        }
      }
    }
  }
}

TEST(CheckBatch, PrefixChainsMatchIndependentChecks) {
  const auto fuzz = wl::fuzz_observations(29, {.transactions = 7, .keys = 3});
  const std::vector<Transaction> all = to_vector(fuzz.txns);
  std::vector<TransactionSet> histories;
  for (std::size_t end : {3u, 5u, 7u}) {  // a chain of growing prefixes...
    histories.emplace_back(std::vector<Transaction>(all.begin(), all.begin() + end));
  }
  // ...then a chain-breaking unrelated history, then a fresh chain.
  histories.push_back(wl::fuzz_observations(31, {.transactions = 5, .keys = 3}).txns);
  histories.emplace_back(std::vector<Transaction>(all.begin(), all.begin() + 4));
  histories.emplace_back(std::vector<Transaction>(all.begin(), all.begin() + 6));

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    CheckOptions opts;
    opts.threads = threads;
    const std::vector<CheckResult> batch =
        check_batch(ct::IsolationLevel::kSerializable, histories, opts);
    ASSERT_EQ(batch.size(), histories.size());
    CheckOptions lone_opts;
    lone_opts.threads = 1;
    for (std::size_t i = 0; i < histories.size(); ++i) {
      const CheckResult lone =
          check(ct::IsolationLevel::kSerializable, histories[i], lone_opts);
      EXPECT_EQ(batch[i].outcome, lone.outcome) << "history " << i;
      EXPECT_EQ(batch[i].nodes_explored, lone.nodes_explored) << "history " << i;
    }
  }
}

TEST(StreamAudit, RejectsVersionOrderLines) {
  std::istringstream in("vo 1 1 2\n");
  const report::StreamAuditResult r = report::stream_audit(in, {.idle_exit_ms = 1});
  EXPECT_NE(r.error.find("vo"), std::string::npos);
  EXPECT_EQ(r.blocks, 0u);
}

TEST(StreamAudit, AuditsBatchesAndCountsDuplicates) {
  const std::string text =
      "txn 1 start=0 commit=1\n write 0\nend\n"
      "txn 2 start=2 commit=3\n read 0 1\nend\n"
      "txn 1 start=0 commit=1\n write 0\nend\n";  // duplicate, ignored
  std::istringstream in(text);
  std::uint64_t callbacks = 0;
  const report::StreamAuditResult r =
      report::stream_audit(in, {.idle_exit_ms = 1}, [&](const auto& rep) {
        ++callbacks;
        EXPECT_EQ(rep.block, callbacks);
        EXPECT_NE(rep.checker, nullptr);
        return true;
      });
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(callbacks, r.blocks);
  EXPECT_EQ(r.transactions, 2u);
  EXPECT_EQ(r.duplicates, 1u);
  EXPECT_EQ(r.surviving.size(), ct::kAllLevels.size());
  EXPECT_EQ(r.checker_stats.hashed_fallback_appends, 0u);
}

TEST(StreamAudit, HandlesCrlfLineEndings) {
  const std::string text =
      "txn 1 start=0 commit=1\r\n write 0\r\nend\r\n"
      "txn 2 start=2 commit=3\r\n read 0 1\r\nend\r\n";
  std::istringstream in(text);
  const report::StreamAuditResult r = report::stream_audit(in, {.idle_exit_ms = 1});
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.transactions, 2u);
}

TEST(StreamAudit, BlankAndCommentOnlyInputProducesNoBatches) {
  std::istringstream in("\n  # comment only\n\n\t\n# another\n");
  std::uint64_t callbacks = 0;
  const report::StreamAuditResult r = report::stream_audit(
      in, {.idle_exit_ms = 1}, [&](const auto&) {
        ++callbacks;
        return true;
      });
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(callbacks, 0u);
  EXPECT_EQ(r.blocks, 0u);
  EXPECT_EQ(r.transactions, 0u);
}

TEST(StreamAudit, PartialFinalLineAuditedAtIdleExit) {
  // The final `end` never gets its newline — the writer exited mid-line.
  // Idle-exit must still audit the complete block.
  const std::string text =
      "txn 1 start=0 commit=1\n write 0\nend\n"
      "txn 2 start=2 commit=3\n read 0 1\nend";  // no trailing '\n'
  std::istringstream in(text);
  const report::StreamAuditResult r = report::stream_audit(in, {.idle_exit_ms = 1});
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.transactions, 2u);
}

TEST(StreamAudit, UnfinishedBlockAtIdleExitIsNotAudited) {
  // `txn 2` is open but its `end` never arrives: only the complete block
  // before it may be audited.
  const std::string text =
      "txn 1 start=0 commit=1\n write 0\nend\n"
      "txn 2 start=2 commit=3\n read 0 1\n";
  std::istringstream in(text);
  const report::StreamAuditResult r = report::stream_audit(in, {.idle_exit_ms = 1});
  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.transactions, 1u);
}

TEST(StreamAudit, MetricsSnapshotEveryNthBatch) {
  // Three polls' worth of blocks: feed one block per flush by capping batches
  // via a growing stringstream is overkill — instead use three blocks in one
  // stream and metrics_every=1 so every batch carries a snapshot, then
  // confirm metrics_every=0 never does.
  const std::string text =
      "txn 1 start=0 commit=1\n write 0\nend\n"
      "txn 2 start=2 commit=3\n read 0 1\nend\n";
  {
    std::istringstream in(text);
    std::vector<std::string> snapshots;
    report::StreamAuditOptions opts;
    opts.idle_exit_ms = 1;
    opts.metrics_every = 1;
    const report::StreamAuditResult r =
        report::stream_audit(in, opts, [&](const auto& rep) {
          snapshots.push_back(rep.metrics_snapshot);
          return true;
        });
    EXPECT_TRUE(r.error.empty()) << r.error;
    ASSERT_GE(snapshots.size(), 1u);
    for (const std::string& s : snapshots) {
      EXPECT_NE(s.find("\"crooks_follow_batches_total\""), std::string::npos) << s;
      EXPECT_EQ(s.find('\n'), std::string::npos);
    }
  }
  {
    std::istringstream in(text);
    const report::StreamAuditResult r = report::stream_audit(
        in, {.idle_exit_ms = 1}, [&](const auto& rep) {
          EXPECT_TRUE(rep.metrics_snapshot.empty());
          return true;
        });
    EXPECT_TRUE(r.error.empty()) << r.error;
  }
}

TEST(StreamAudit, SerialScrapeHasNoIngestSeries) {
  // ingest_threads = 0 runs the ingest pipeline inline: no threads, no
  // rings, and no crooks_ingest_* series in the scrape. (Series live for the
  // process, so this holds because no test in this binary starts a threaded
  // pipeline.)
  std::istringstream in("txn 1 start=0 commit=1\n write 0\nend\n");
  const report::StreamAuditResult r = report::stream_audit(in, {.idle_exit_ms = 1});
  ASSERT_TRUE(r.error.empty()) << r.error;
  ASSERT_EQ(r.blocks, 1u);
  const std::string scrape = obs::Registry::global().json();
  EXPECT_NE(scrape.find("\"crooks_follow_batches_total\""), std::string::npos)
      << scrape;
  EXPECT_EQ(scrape.find("crooks_ingest_"), std::string::npos) << scrape;
}

TEST(StreamAudit, FollowsGrowingFileWithConcurrentWriter) {
  const auto fuzz = wl::fuzz_observations(55, {.transactions = 24, .keys = 4});
  const std::vector<Transaction> all = to_vector(fuzz.txns);
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "crooks_follow_smoke.txt";
  std::remove(path.string().c_str());
  { std::ofstream touch(path); }

  std::thread writer([&] {
    std::ofstream out(path, std::ios::app);
    for (std::size_t at = 0; at < all.size(); at += 4) {
      const std::size_t take = std::min<std::size_t>(4, all.size() - at);
      report::Observations obs;
      obs.txns = TransactionSet{
          std::vector<Transaction>(all.begin() + at, all.begin() + at + take)};
      out << report::to_text(obs) << std::flush;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  const report::StreamAuditResult r =
      report::stream_audit(in, {.poll_ms = 5, .idle_exit_ms = 400});
  writer.join();
  std::remove(path.string().c_str());

  EXPECT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.transactions, all.size());
  EXPECT_GE(r.blocks, 1u);
  EXPECT_EQ(r.checker_stats.hashed_fallback_appends, 0u);

  // Whatever batching the race produced, the verdicts match a direct feed.
  OnlineChecker direct;
  direct.append_all(std::span<const Transaction>(all));
  for (ct::IsolationLevel level : ct::kAllLevels) {
    const auto it = r.statuses.find(level);
    ASSERT_NE(it, r.statuses.end());
    EXPECT_EQ(it->second.ok, direct.status(level).ok) << ct::name_of(level);
    EXPECT_EQ(it->second.explanation, direct.status(level).explanation);
  }
}

}  // namespace
}  // namespace crooks::checker
