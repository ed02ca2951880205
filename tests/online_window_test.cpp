// Bounded-memory windowing of the online checker, differentially.
//
// The windowed monitor's contract is ONE-SIDED LOSSINESS: against an
// unwindowed OnlineChecker fed the same stream through the same block cuts,
//  * a windowed violation implies an unwindowed violation (never fabricated),
//  * and whenever the lossy-evaluation counters (past_window_reads,
//    past_window_checks) are zero, the verdicts are bit-identical — same ok
//    flags, same first-violation ids, same explanation strings — per level,
//    across all ten levels, mixed assignments, and fuzzed interleavings.
// The suite also pins the operational properties the window exists for: the
// watermark never passes a session's latest applied transaction (a stalled
// session pins the window instead of degrading), a violation whose witness is
// resident is caught even when the other side of the evidence is retired
// (retained columns), duplicate re-appends of retired blocks stay ignored,
// and the model-level fold keeps extend() bit-identical for resident rows.
#include <gtest/gtest.h>

#include <cstdio>
#include <random>
#include <sstream>
#include <span>
#include <vector>

#include "checker/checker.hpp"
#include "checker/online.hpp"
#include "model/compiled.hpp"
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

std::vector<std::vector<Transaction>> interesting_streams() {
  std::vector<std::vector<Transaction>> streams;
  for (std::uint64_t seed : {2u, 13u, 31u}) {
    streams.push_back(to_vector(wl::fuzz_observations(seed, {.transactions = 40,
                                                             .keys = 5,
                                                             .p_dangling = 0.1,
                                                             .p_phantom = 0.1})
                                    .txns));
  }
  streams.push_back(to_vector(
      wl::fuzz_observations(6, {.transactions = 36, .keys = 4, .p_untimestamped = 0.3})
          .txns));
  streams.push_back(to_vector(
      wl::fuzz_observations(8, {.transactions = 30, .keys = 4, .with_timestamps = false})
          .txns));
  for (std::uint64_t seed : {4u, 17u}) {
    const auto intents = wl::generate_mix({.transactions = 80,
                                           .keys = 6,
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

void feed(OnlineChecker& chk, const std::vector<Transaction>& all,
          const std::vector<std::size_t>& cuts) {
  std::size_t prev = 0;
  for (std::size_t cut : cuts) {
    chk.append_all(std::span<const Transaction>(all.data() + prev, cut - prev));
    prev = cut;
  }
}

/// The windowed-vs-unwindowed oracle (uniform mode): one-sided always,
/// bit-identical when the windowed run recorded no lossy evaluation.
void expect_one_sided(const OnlineChecker& win, const OnlineChecker& full) {
  EXPECT_EQ(win.stats().hashed_fallback_appends, 0u);
  EXPECT_EQ(win.size(), full.size());
  const bool lossless = win.stats().past_window_reads == 0 &&
                        win.stats().past_window_checks == 0;
  for (ct::IsolationLevel level : ct::kAllLevels) {
    const auto& w = win.status(level);
    const auto& f = full.status(level);
    if (!w.ok) {
      EXPECT_FALSE(f.ok) << ct::name_of(level)
                         << ": windowed fabricated a violation: "
                         << w.explanation;
    }
    if (lossless) {
      EXPECT_EQ(w.ok, f.ok) << ct::name_of(level);
      if (!f.ok && !w.ok) {
        EXPECT_EQ(w.first_violation, f.first_violation) << ct::name_of(level);
        EXPECT_EQ(w.explanation, f.explanation) << ct::name_of(level);
      }
    }
  }
}

TEST(OnlineWindow, DifferentialAgainstUnwindowedAllLevels) {
  std::mt19937_64 rng(4242);
  for (const std::vector<Transaction>& all : interesting_streams()) {
    for (std::size_t window : {4u, 8u, 16u, 64u}) {
      const auto cuts = random_cuts(all.size(), 7, rng);
      OnlineChecker full;
      feed(full, all, cuts);
      OnlineChecker win;
      win.set_window({.max_resident_txns = window});
      feed(win, all, cuts);
      expect_one_sided(win, full);
      if (window < all.size()) {
        EXPECT_LE(win.resident_txns(), all.size());
      }
    }
  }
}

TEST(OnlineWindow, DifferentialSingleLevelCheckers) {
  // Per-level checkers exercise the weak-only evaluation (RC/RA/PSI, no
  // interval ends) and the timed paths separately under the window.
  std::mt19937_64 rng(99);
  for (const std::vector<Transaction>& all : interesting_streams()) {
    const auto cuts = random_cuts(all.size(), 5, rng);
    for (ct::IsolationLevel level : ct::kAllLevels) {
      OnlineChecker full({level});
      feed(full, all, cuts);
      OnlineChecker win({level});
      win.set_window({.max_resident_txns = 6});
      feed(win, all, cuts);
      EXPECT_EQ(win.stats().hashed_fallback_appends, 0u);
      const auto& w = win.status(level);
      const auto& f = full.status(level);
      if (!w.ok) {
        EXPECT_FALSE(f.ok) << ct::name_of(level);
      }
      if (win.stats().past_window_reads == 0 &&
          win.stats().past_window_checks == 0) {
        EXPECT_EQ(w.ok, f.ok) << ct::name_of(level);
        if (!f.ok && !w.ok) {
          EXPECT_EQ(w.first_violation, f.first_violation);
          EXPECT_EQ(w.explanation, f.explanation);
        }
      }
    }
  }
}

TEST(OnlineWindow, DifferentialAssignedMode) {
  // Mixed per-transaction levels: re-annotate each fuzzed stream round-robin
  // over a level palette, then compare windowed vs unwindowed single-status
  // verdicts in assigned mode.
  const ct::IsolationLevel palette[] = {
      ct::IsolationLevel::kReadCommitted, ct::IsolationLevel::kPSI,
      ct::IsolationLevel::kSerializable, ct::IsolationLevel::kStrongSI,
      ct::IsolationLevel::kSessionSI};
  std::mt19937_64 rng(777);
  for (const std::vector<Transaction>& base : interesting_streams()) {
    std::vector<Transaction> all;
    all.reserve(base.size());
    for (std::size_t i = 0; i < base.size(); ++i) {
      const Transaction& t = base[i];
      all.emplace_back(t.id(), t.ops(), t.session(), t.site(), t.start_ts(),
                       t.commit_ts(), palette[i % std::size(palette)]);
    }
    const auto cuts = random_cuts(all.size(), 6, rng);
    OnlineChecker full(OnlineChecker::kTrackAssigned,
                       ct::IsolationLevel::kReadAtomic);
    feed(full, all, cuts);
    OnlineChecker win(OnlineChecker::kTrackAssigned,
                      ct::IsolationLevel::kReadAtomic);
    win.set_window({.max_resident_txns = 8});
    feed(win, all, cuts);
    const auto& w = win.assigned_status();
    const auto& f = full.assigned_status();
    if (!w.ok) {
      EXPECT_FALSE(f.ok) << w.explanation;
    }
    if (win.stats().past_window_reads == 0 &&
        win.stats().past_window_checks == 0) {
      EXPECT_EQ(w.ok, f.ok);
      if (!f.ok && !w.ok) {
        EXPECT_EQ(w.first_violation, f.first_violation);
        EXPECT_EQ(w.explanation, f.explanation);
      }
    }
  }
}

TEST(OnlineWindow, StalledSessionPinsWatermark) {
  // Session 1 commits once and goes silent; session 2 streams on. The
  // watermark must never pass session 1's only transaction, so nothing
  // retires (memory grows) — and every verdict stays exactly unwindowed.
  OnlineChecker win;
  win.set_window({.max_resident_txns = 8});
  OnlineChecker full;
  std::uint64_t id = 1;
  Timestamp ts = 0;
  auto emit = [&](SessionId session) {
    const Transaction t = TxnBuilder(id)
                              .write(Key{id % 3})
                              .session(session)
                              .at(ts, ts + 1)
                              .build();
    ++id;
    ts += 2;
    win.append(t);
    full.append(t);
  };
  emit(SessionId{1});
  for (int i = 0; i < 60; ++i) emit(SessionId{2});
  EXPECT_EQ(win.watermark(), 0u);
  EXPECT_EQ(win.stats().window_folds, 0u);
  EXPECT_EQ(win.resident_txns(), win.size());  // RSS grows while stalled
  expect_one_sided(win, full);

  // The stalled session commits again: the window may finally fold.
  emit(SessionId{1});
  for (int i = 0; i < 10; ++i) emit(SessionId{2});
  EXPECT_GT(win.watermark(), 0u);
  EXPECT_GT(win.stats().window_folds, 0u);
  EXPECT_GT(win.stats().retired_txns, 0u);
  EXPECT_LT(win.resident_txns(), win.size());
  expect_one_sided(win, full);
}

TEST(OnlineWindow, ViolationStraddlingWatermark) {
  // The fractured-read witness straddles the fold: the writer retires long
  // before the reader arrives, but its write footprint is a retained column,
  // so the windowed checker still refutes Read Atomic — with the identical
  // explanation, and without a single lossy evaluation.
  std::vector<Transaction> all;
  Timestamp ts = 0;
  all.push_back(TxnBuilder(1).write(Key{100}).write(Key{101}).at(ts, ts + 1).build());
  ts += 2;
  for (std::uint64_t id = 2; id <= 40; ++id) {
    all.push_back(TxnBuilder(id).write(Key{id}).at(ts, ts + 1).build());
    ts += 2;
  }
  // Reads T1's write to 100 but the initial version of 101: fractured.
  all.push_back(TxnBuilder(41)
                    .read(Key{100}, TxnId{1})
                    .read(Key{101}, TxnId{0})
                    .at(ts, ts + 1)
                    .build());

  OnlineChecker full;
  for (const Transaction& t : all) full.append(t);
  OnlineChecker win;
  win.set_window({.max_resident_txns = 8});
  for (const Transaction& t : all) win.append(t);

  ASSERT_GT(win.watermark(), 1u) << "T1 must be retired before T41 arrives";
  EXPECT_EQ(win.stats().past_window_reads, 0u);
  EXPECT_EQ(win.stats().past_window_checks, 0u);
  EXPECT_FALSE(win.status(ct::IsolationLevel::kReadAtomic).ok);
  expect_one_sided(win, full);
}

TEST(OnlineWindow, RetroactiveInversionAcrossRetiredPrefix) {
  // A late transaction whose commit precedes the START of a long-retired
  // transaction: the retroactive real-time scan runs over retained columns,
  // so the inversion is found even though its victim left the window.
  std::vector<Transaction> all;
  Timestamp ts = 100;
  for (std::uint64_t id = 1; id <= 50; ++id) {
    all.push_back(TxnBuilder(id).write(Key{id % 4}).at(ts, ts + 1).build());
    ts += 2;
  }
  // Committed before T1 started, applied last.
  all.push_back(TxnBuilder(99).write(Key{7}).at(10, 11).build());

  OnlineChecker full;
  for (const Transaction& t : all) full.append(t);
  OnlineChecker win;
  win.set_window({.max_resident_txns = 8});
  for (const Transaction& t : all) win.append(t);

  ASSERT_GT(win.watermark(), 1u);
  EXPECT_FALSE(win.status(ct::IsolationLevel::kStrictSerializable).ok);
  EXPECT_FALSE(win.status(ct::IsolationLevel::kStrongSI).ok);
  // The victim (T1) is retired; the violation must still name it.
  expect_one_sided(win, full);
  EXPECT_EQ(win.status(ct::IsolationLevel::kStrictSerializable).first_violation,
            full.status(ct::IsolationLevel::kStrictSerializable).first_violation);
}

TEST(OnlineWindow, DuplicateAppendOfRetiredBlockIgnored) {
  std::vector<Transaction> all;
  Timestamp ts = 0;
  for (std::uint64_t id = 1; id <= 64; ++id) {
    all.push_back(TxnBuilder(id).write(Key{id % 5}).at(ts, ts + 1).build());
    ts += 2;
  }
  OnlineChecker win;
  win.set_window({.max_resident_txns = 8});
  win.append_all(std::span<const Transaction>(all));
  ASSERT_GT(win.watermark(), 10u);
  const auto before = win.stats();

  // Re-append the first 10 transactions — all retired. The id index is a
  // retained column, so they are recognized and ignored, not re-evaluated.
  const std::size_t accepted =
      win.append_all(std::span<const Transaction>(all.data(), 10));
  EXPECT_EQ(accepted, 0u);
  EXPECT_EQ(win.stats().duplicates_ignored, before.duplicates_ignored + 10);
  EXPECT_EQ(win.size(), all.size());
  EXPECT_TRUE(win.all_ok());
}

TEST(OnlineWindow, WindowBytesBoundsResidency) {
  OnlineChecker win;
  win.set_window({.max_resident_bytes = 64 * 1024});
  Timestamp ts = 0;
  for (std::uint64_t id = 1; id <= 2000; ++id) {
    win.append(TxnBuilder(id)
                   .write(Key{id % 16})
                   .read(Key{(id + 1) % 16}, TxnId{0})
                   .at(ts, ts + 1)
                   .build());
    ts += 2;
  }
  EXPECT_GT(win.stats().window_folds, 0u);
  EXPECT_GT(win.watermark(), 0u);
  // The estimate is approximate; hysteresis allows ~1.25× overshoot. Assert
  // an order-of-magnitude bound, not the exact limit.
  EXPECT_LT(win.resident_bytes(), 4 * 64 * 1024u);
  EXPECT_LT(win.resident_txns(), 2000u);
}

/// A serial stream over `keys` keys (3 reads + 2 writes per transaction,
/// sessions round-robin over 8, monotone timestamps). Each read observes the
/// key's latest version, except with probability p_stale the one before it
/// (⊥ when the key was written once) from transaction `stale_from` on: a
/// skipped version whose writer is in the reader's PREC closure fails
/// CAUS-VIS.
std::vector<Transaction> serial_stream(std::uint64_t seed, std::size_t n,
                                       std::uint64_t keys, double p_stale,
                                       std::uint64_t stale_from = 1) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> key(0, keys - 1);
  std::bernoulli_distribution stale(p_stale);
  std::vector<std::uint64_t> latest(keys, 0), previous(keys, 0);
  std::vector<Transaction> out;
  out.reserve(n);
  for (std::uint64_t id = 1; id <= n; ++id) {
    TxnBuilder b(id);
    for (int r = 0; r < 3; ++r) {
      const std::uint64_t k = key(rng);
      const bool skip = stale(rng) && id >= stale_from;
      b.read(Key{k}, TxnId{skip ? previous[k] : latest[k]});
    }
    const std::uint64_t w1 = key(rng), w2 = key(rng);
    b.write(Key{w1});
    if (w2 != w1) b.write(Key{w2});
    const auto ts = static_cast<Timestamp>(2 * id);
    out.push_back(b.session(SessionId{static_cast<std::uint32_t>(id % 8)})
                      .at(ts, ts + 1)
                      .build());
    for (std::uint64_t k : {w1, w2}) {
      if (latest[k] == id) continue;
      previous[k] = latest[k];
      latest[k] = id;
    }
  }
  return out;
}

TEST(OnlineWindow, DenseStreamBaseOrdinalsMatchUnwindowed) {
  // ~2,000 keys against windows of 64-1,000: most retired writers stay some
  // key's base slot for a while and then die, so base ordinals are handed
  // out and compacted many times over. Stale and ⊥ reads that skip a
  // retired base writer make the PSI verdict depend on base-ordinal
  // membership; the windowed checker must still match the unwindowed one.
  std::mt19937_64 rng(2024);
  std::size_t lossless_psi_violations = 0;
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    for (double p_stale : {0.0, 0.001, 0.004}) {
      const auto all = serial_stream(seed, 3000, 2000, p_stale);
      const auto cuts = random_cuts(all.size(), 50, rng);
      OnlineChecker full;
      feed(full, all, cuts);
      for (std::size_t window : {64u, 250u, 1000u}) {
        OnlineChecker win;
        win.set_window({.max_resident_txns = window});
        feed(win, all, cuts);
        SCOPED_TRACE("seed " + std::to_string(seed) + " p_stale " +
                     std::to_string(p_stale) + " window " + std::to_string(window));
        EXPECT_GT(win.stats().window_folds, 0u);
        expect_one_sided(win, full);
        if (p_stale == 0.0) {
          EXPECT_TRUE(win.status(ct::IsolationLevel::kPSI).ok);
          EXPECT_EQ(win.stats().past_window_reads + win.stats().past_window_checks, 0u);
        }
        if (win.stats().past_window_reads + win.stats().past_window_checks == 0 &&
            !full.status(ct::IsolationLevel::kPSI).ok) {
          ++lossless_psi_violations;
        }
      }
    }
  }
  // The differential must have compared some PSI refutations exactly.
  EXPECT_GT(lossless_psi_violations, 0u);
}

TEST(OnlineWindow, OversizedBlockRetiresInsideTheBlock) {
  // 64 keys: every key's timeline holds ~window/64 resident writers, so each
  // closure's write-side absorb meets a long chain. One append_all of 10×
  // the window must retire as it goes (folds ≥ (N − W)/(2W), residency near
  // the window) and reach the verdicts of block-by-block feeding. Stale
  // reads in the last tenth refute the levels they break.
  constexpr std::size_t kWindow = 256;
  const auto all = serial_stream(7, 10 * kWindow, 64, 0.01, 9 * kWindow);

  OnlineChecker one;
  one.set_window({.max_resident_txns = kWindow});
  ASSERT_EQ(one.append_all(std::span<const Transaction>(all)), all.size());
  EXPECT_GE(one.stats().window_folds, (all.size() - kWindow) / (2 * kWindow));
  EXPECT_LE(one.resident_txns(), kWindow + kWindow / 4 + 8);
  EXPECT_EQ(one.stats().past_window_reads, 0u);
  EXPECT_EQ(one.stats().past_window_checks, 0u);

  OnlineChecker blocks;
  blocks.set_window({.max_resident_txns = kWindow});
  std::mt19937_64 rng(5);
  feed(blocks, all, random_cuts(all.size(), kWindow / 4, rng));
  OnlineChecker full;
  full.append_all(std::span<const Transaction>(all));
  EXPECT_FALSE(full.status(ct::IsolationLevel::kSerializable).ok);
  for (ct::IsolationLevel level : ct::kAllLevels) {
    EXPECT_EQ(one.status(level).ok, blocks.status(level).ok) << ct::name_of(level);
    EXPECT_EQ(one.status(level).first_violation, blocks.status(level).first_violation)
        << ct::name_of(level);
    EXPECT_EQ(one.status(level).explanation, blocks.status(level).explanation)
        << ct::name_of(level);
  }
  expect_one_sided(one, full);
}

// ------------------------------------------------------------- model layer

TEST(CompiledRetire, FoldThenExtendBitIdentical) {
  // After retiring a prefix, every accessor over RESIDENT rows — and every
  // retained column over retired rows — must agree with a never-retired
  // history grown through the same extends.
  for (const std::vector<Transaction>& all : interesting_streams()) {
    CompiledHistory plain;
    CompiledHistory folded;
    std::size_t prev = 0;
    std::mt19937_64 rng(all.size());
    std::vector<std::size_t> cuts = random_cuts(all.size(), 9, rng);
    for (std::size_t cut : cuts) {
      plain.extend(std::span<const Transaction>(all.data() + prev, cut - prev));
      folded.extend(std::span<const Transaction>(all.data() + prev, cut - prev));
      prev = cut;
      if (folded.size() > 12) {
        folded.retire(static_cast<TxnIdx>(folded.size() - 8));
      }
    }
    ASSERT_EQ(plain.size(), folded.size());
    const TxnIdx w = folded.retired();
    for (TxnIdx d = 0; d < plain.size(); ++d) {
      // Retained scalar columns: exact for retired and resident rows alike.
      EXPECT_EQ(plain.id_of(d), folded.id_of(d));
      EXPECT_EQ(plain.start_ts(d), folded.start_ts(d));
      EXPECT_EQ(plain.commit_ts(d), folded.commit_ts(d));
      EXPECT_EQ(plain.session(d), folded.session(d));
      EXPECT_EQ(plain.level_tag(d), folded.level_tag(d));
      const auto wka = plain.write_keys(d), wkb = folded.write_keys(d);
      EXPECT_TRUE(std::equal(wka.begin(), wka.end(), wkb.begin(), wkb.end()))
          << "write_keys " << d;
      for (model::KeyIdx k = 0; k < plain.key_count(); ++k) {
        EXPECT_EQ(plain.writes_key(d, k), folded.writes_key(d, k))
            << d << "/" << k;
      }
      if (d < w) continue;
      // Resident rows: the op arrays must be bit-identical.
      const auto oa = plain.ops(d), ob = folded.ops(d);
      ASSERT_EQ(oa.size(), ob.size()) << "ops of " << d;
      for (std::size_t i = 0; i < oa.size(); ++i) {
        EXPECT_EQ(oa.key(i), ob.key(i)) << d << ":" << i;
        EXPECT_EQ(oa.writer(i), ob.writer(i)) << d << ":" << i;
        EXPECT_EQ(oa.flags(i), ob.flags(i)) << d << ":" << i;
      }
      const auto rka = plain.read_keys(d), rkb = folded.read_keys(d);
      EXPECT_TRUE(std::equal(rka.begin(), rka.end(), rkb.begin(), rkb.end()));
    }
    EXPECT_EQ(plain.ts_order(), folded.ts_order());
  }
}

TEST(CompiledRetire, PendingResolutionPurgedWithPrefix) {
  // T2 awaits T9 (unknown writer). Retiring T2 before T9 arrives must purge
  // the pending patch — the later extend would otherwise write through a
  // reclaimed offset.
  CompiledHistory ch;
  ch.extend(TxnBuilder(2).read(Key{0}, TxnId{9}).at(0, 1).build());
  ch.extend(TxnBuilder(3).write(Key{1}).at(2, 3).build());
  ch.extend(TxnBuilder(4).write(Key{2}).at(4, 5).build());
  const CompiledHistory::RetireStats rs = ch.retire(2);
  EXPECT_EQ(rs.txns, 2u);
  EXPECT_EQ(rs.pending_purged, 1u);
  // T9 arrives after its awaiter was reclaimed: nothing to patch, no crash.
  ch.extend(TxnBuilder(9).write(Key{0}).at(6, 7).build());
  EXPECT_EQ(ch.size(), 4u);
  EXPECT_EQ(ch.retired(), 2u);
}

TEST(CompiledRetire, OfflineEnginesRefuseRetiredHistory) {
  CompiledHistory ch;
  Timestamp ts = 0;
  for (std::uint64_t id = 1; id <= 20; ++id) {
    ch.extend(TxnBuilder(id).write(Key{id % 3}).at(ts, ts + 1).build());
    ts += 2;
  }
  ch.retire(10);
  const CheckResult r = check(ct::IsolationLevel::kSerializable, ch);
  EXPECT_EQ(r.outcome, Outcome::kUnknown);
  EXPECT_NE(r.detail.find("retired"), std::string::npos);
}

// ------------------------------------------------------- stream_audit layer

std::string block_for(std::uint64_t id, std::uint64_t key, Timestamp ts) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "txn %llu start=%lld commit=%lld\nwrite %llu\nend\n",
                static_cast<unsigned long long>(id), static_cast<long long>(ts),
                static_cast<long long>(ts + 1), static_cast<unsigned long long>(key));
  return buf;
}

TEST(StreamAuditWindow, WindowedTailMatchesUnwindowed) {
  std::string text;
  Timestamp ts = 0;
  for (std::uint64_t id = 1; id <= 200; ++id) {
    text += block_for(id, id % 7, ts);
    ts += 2;
  }
  report::StreamAuditOptions opts;
  opts.idle_exit_ms = 1;
  opts.poll_ms = 1;
  opts.window_txns = 16;
  std::istringstream win_in(text);
  std::uint64_t max_resident = 0;
  const report::StreamAuditResult win = report::stream_audit(
      win_in, opts, [&](const report::StreamBlockReport& rep) {
        max_resident = std::max(max_resident,
                                static_cast<std::uint64_t>(rep.resident_txns));
        return true;
      });
  ASSERT_TRUE(win.error.empty()) << win.error;
  EXPECT_EQ(win.transactions, 200u);
  EXPECT_GT(win.checker_stats.retired_txns, 0u);
  EXPECT_GT(win.checker_stats.window_folds, 0u);
  EXPECT_EQ(win.checker_stats.past_window_reads, 0u);
  EXPECT_EQ(win.checker_stats.past_window_checks, 0u);

  report::StreamAuditOptions plain = opts;
  plain.window_txns = 0;
  std::istringstream full_in(text);
  const report::StreamAuditResult full = report::stream_audit(full_in, plain);
  ASSERT_TRUE(full.error.empty());
  for (const auto& [level, st] : full.statuses) {
    const auto it = win.statuses.find(level);
    ASSERT_NE(it, win.statuses.end());
    EXPECT_EQ(it->second.ok, st.ok) << ct::name_of(level);
    EXPECT_EQ(it->second.explanation, st.explanation) << ct::name_of(level);
  }
}

TEST(StreamAuditWindow, MaxBlocksFlushesCompletePartialBlock) {
  // The final line of the last block arrives without its newline. With
  // --max-blocks=1 the single allowed flush used to drop the buffered
  // fragment — a fully-delivered block silently never audited. It must be
  // completed and join the final batch.
  std::string text = block_for(1, 0, 0);
  text += "txn 2 start=2 commit=3\nwrite 1\nend";  // no trailing newline
  report::StreamAuditOptions opts;
  opts.idle_exit_ms = 1;
  opts.poll_ms = 1;
  opts.max_blocks = 1;
  std::istringstream in(text);
  const report::StreamAuditResult r = report::stream_audit(in, opts);
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.blocks, 1u);
  EXPECT_EQ(r.transactions, 2u);  // both blocks audited in the one batch

  // Same input WITH the trailing newline must audit identically.
  std::istringstream in2(text + "\n");
  const report::StreamAuditResult r2 = report::stream_audit(in2, opts);
  ASSERT_TRUE(r2.error.empty()) << r2.error;
  EXPECT_EQ(r2.blocks, 1u);
  EXPECT_EQ(r2.transactions, 2u);
}

}  // namespace
}  // namespace crooks::checker
