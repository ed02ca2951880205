#include "checker/online.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace crooks::checker {

using ct::IsolationLevel;
using model::Transaction;
using model::TxnIdx;

namespace {

obs::Counter& online_blocks_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_online_blocks_total", "Blocks ingested by the online checker");
  return c;
}
obs::Counter& online_txns_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_online_txns_total",
      "Transactions evaluated on compiled deltas by the online checker");
  return c;
}
obs::Counter& online_duplicates_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_online_duplicates_total",
      "Transactions ignored by the online checker as duplicate ids");
  return c;
}
obs::Histogram& online_block_seconds() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "crooks_online_block_seconds",
      "Latency of evaluating one ingested block (the compile delta is "
      "crooks_compile_extend_seconds)");
  return h;
}
obs::Counter& online_fallback_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_online_fallback_appends_total",
      "Transactions served from the pre-compile hashed path; must stay 0 "
      "(every append compiles) — CI gates on this series");
  return c;
}
obs::Counter& online_retired_txns_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_online_retired_txns_total",
      "Transactions folded past the window watermark by the online checker");
  return c;
}
obs::Counter& online_retired_ops_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_online_retired_ops_total",
      "Compiled operation rows reclaimed by window retirement");
  return c;
}
obs::Counter& online_folds_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_online_window_folds_total",
      "Window retirement epochs executed by the online checker");
  return c;
}
obs::Counter& online_past_reads_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_online_past_window_reads_total",
      "Reads of versions older than the retained window summary (the "
      "windowed verdict is one-sided for these)");
  return c;
}
obs::Counter& online_past_checks_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_online_past_window_checks_total",
      "Lossy non-read evaluations under the window: a Session-SI lower bound "
      "that may hide behind the retired-session marker, or a PSI PREC absorb "
      "of a retired writer whose closure summary was dropped (one-sided)");
  return c;
}
obs::Gauge& online_watermark_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge(
      "crooks_online_watermark",
      "First dense index not yet retired by the online checker's window");
  return g;
}
obs::Gauge& online_resident_txns_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge(
      "crooks_online_resident_txns",
      "Transactions currently resident in the online checker");
  return g;
}
obs::Gauge& online_resident_ops_gauge() {
  static obs::Gauge& g = obs::Registry::global().gauge(
      "crooks_online_resident_ops",
      "Compiled operation rows currently resident in the online checker");
  return g;
}
obs::Histogram& online_fold_txns_hist() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "crooks_online_fold_txns",
      "Transactions retired per window fold", obs::size_buckets());
  return h;
}

/// The one increment site of crooks_online_violations_total (it used to be
/// duplicated across the assigned/uniform branches of violate). The session
/// label matches the forensics series: low-cardinality in practice (sessions
/// are workload worker ids), "s-" for session-less transactions.
void count_violation(ct::IsolationLevel level, SessionId session) {
  if (!obs::enabled()) return;
  obs::Registry::global()
      .counter("crooks_online_violations_total",
               "First violations recorded per tracked level",
               {{"level", std::string(ct::name_of(level))},
                {"session", crooks::to_string(session)}})
      .inc();
}

}  // namespace

OnlineChecker::OnlineChecker(std::vector<IsolationLevel> levels) {
  for (IsolationLevel l : levels) statuses_.emplace(l, LevelStatus{});
  weak_only_ = true;
  for (const auto& [l, s] : statuses_) {
    if (l != IsolationLevel::kReadUncommitted &&
        l != IsolationLevel::kReadCommitted &&
        l != IsolationLevel::kReadAtomic && l != IsolationLevel::kPSI) {
      weak_only_ = false;
      break;
    }
  }
}

OnlineChecker::OnlineChecker(TrackAssignedTag, IsolationLevel fallback)
    : assigned_mode_(true), assigned_fallback_(fallback) {
  // A later block may annotate any level, so the interval ends are never
  // safe to skip here.
  weak_only_ = false;
}

const OnlineChecker::LevelStatus& OnlineChecker::status(IsolationLevel level) const {
  return statuses_.at(level);
}

bool OnlineChecker::all_ok() const {
  if (!assigned_status_.ok) return false;
  for (const auto& [level, s] : statuses_) {
    if (!s.ok) return false;
  }
  return true;
}

std::vector<IsolationLevel> OnlineChecker::surviving_levels() const {
  std::vector<IsolationLevel> out;
  for (const auto& [level, s] : statuses_) {
    if (s.ok) out.push_back(level);
  }
  return out;
}

void OnlineChecker::violate(IsolationLevel level, TxnIdx d, std::string why,
                            TxnIdx other) {
  const TxnId txn = stream_.id_of(d);
  std::string* explanation = nullptr;
  if (assigned_mode_) {
    if (!assigned_status_.ok) return;  // sticky first violation
    assigned_status_.ok = false;
    assigned_status_.first_violation = txn;
    // Mirror ct::CommitTester::test_all(LevelAssignment): the explanation
    // names the violated transaction's own level.
    assigned_status_.explanation = crooks::to_string(txn) + " [" +
                                   std::string(ct::name_of(level)) + "]: " + why;
    explanation = &assigned_status_.explanation;
  } else {
    auto it = statuses_.find(level);
    if (it == statuses_.end() || !it->second.ok) return;  // sticky first violation
    it->second.ok = false;
    it->second.first_violation = txn;
    it->second.explanation = crooks::to_string(txn) + ": " + why;
    explanation = &it->second.explanation;
  }
  count_violation(level, stream_.session(d));
  if (obs::Trace::active()) {
    obs::Trace::event("online.violation",
                      obs::TraceFields()
                          .add("level", ct::name_of(level))
                          .add("txn", crooks::to_string(txn))
                          .add("why", *explanation));
  }
  if (violation_hook_) violation_hook_({level, txn, d, other, why});
}

bool OnlineChecker::append(const Transaction& txn) {
  if (txn.id() == kInitTxn || stream_.txns().contains(txn.id())) {
    ++stats_.duplicates_ignored;
    online_duplicates_total().inc();
    return false;
  }
  ingest(stream_.extend(txn));
  return true;
}

std::size_t OnlineChecker::append_all(std::span<const Transaction> block) {
  // Repeats of an id earlier in the block: sorting (id, position) pairs
  // finds them without a per-transaction allocation.
  append_ids_.clear();
  for (std::size_t i = 0; i < block.size(); ++i) {
    append_ids_.emplace_back(block[i].id(), i);
  }
  std::sort(append_ids_.begin(), append_ids_.end());
  append_repeat_.assign(block.size(), 0);
  for (std::size_t j = 1; j < append_ids_.size(); ++j) {
    if (append_ids_[j].first == append_ids_[j - 1].first) {
      append_repeat_[append_ids_[j].second] = 1;
    }
  }
  // The caller's block goes to extend() as is; only a block holding a
  // duplicate is copied, from its first duplicate on, minus the duplicates.
  append_fresh_.clear();
  bool filtered = false;
  for (std::size_t i = 0; i < block.size(); ++i) {
    const Transaction& t = block[i];
    if (append_repeat_[i] != 0 || t.id() == kInitTxn ||
        stream_.txns().contains(t.id())) {
      ++stats_.duplicates_ignored;
      online_duplicates_total().inc();
      if (!filtered) {
        append_fresh_.assign(block.begin(),
                             block.begin() + static_cast<std::ptrdiff_t>(i));
        filtered = true;
      }
      continue;
    }
    if (filtered) append_fresh_.push_back(t);
  }
  const std::span<const Transaction> fresh =
      filtered ? std::span<const Transaction>(append_fresh_) : block;
  if (fresh.empty()) return 0;
  ingest(stream_.extend(fresh));
  return fresh.size();
}

std::size_t OnlineChecker::append_all(const model::TransactionSet& txns) {
  const std::vector<Transaction> block(txns.begin(), txns.end());
  return append_all(std::span<const Transaction>(block));
}

void OnlineChecker::ingest(const model::CompiledDelta& delta) {
  obs::TraceSpan span("online.ingest");
  obs::ScopedTimer timer(online_block_seconds());
  ++stats_.blocks;
  stats_.compiled_appends += delta.count;
  if (obs::enabled()) {
    online_blocks_total().inc();
    online_txns_total().inc(delta.count);
    // Register the tripwire series so it appears (at 0) in every scrape the
    // bench exports; a future fallback path must inc() it.
    online_fallback_total();
  }
  span.field("first", static_cast<std::uint64_t>(delta.first))
      .field("count", static_cast<std::uint64_t>(delta.count))
      .field("stream_size", static_cast<std::uint64_t>(stream_.size()));
  timelines_.resize(stream_.key_count());
  max_dropped_pos_.resize(stream_.key_count(), 0);

  // Retire inside the block too, every quarter window of placements, so the
  // first read of a long log is bounded like a stream of small blocks. A
  // bytes-only window checks at a quarter of the most transactions its
  // limit could hold (kTxnBytesEst is the estimate's per-txn floor).
  std::size_t stride = 0;
  if (window_.enabled()) {
    std::size_t cap = window_.max_resident_txns != 0 ? window_.max_resident_txns
                                                     : static_cast<std::size_t>(-1);
    if (window_.max_resident_bytes != 0) {
      cap = std::min(cap, window_.max_resident_bytes / kTxnBytesEst);
    }
    stride = std::max<std::size_t>(cap / 4, 1);
  }

  // Evaluate the block's transactions one by one in dense (= apply) order:
  // when transaction d is evaluated only [0, d) is installed, so "has the
  // observed writer been applied yet" is the dense compare `writer < d` —
  // exact for prefix writers, earlier block members, and intra-block forward
  // references alike.
  const TxnIdx first = delta.first;
  const std::size_t count = delta.count;
  for (std::size_t i = 0; i < count; ++i) {
    commit_placed(first + static_cast<TxnIdx>(i));
    if (stride != 0 && (i + 1) % stride == 0) maybe_retire();
  }
  maybe_retire();
}

void OnlineChecker::commit_placed(TxnIdx d) {
  Placed p;
  p.state = static_cast<StateIndex>(d) + 1;
  evaluate_new(d, p);
  if (assigned_mode_) {
    applied_mask_ |= static_cast<std::uint16_t>(
        1u << static_cast<unsigned>(assigned_level_of(d)));
  }
  check_retroactive_inversions(d);

  // Install.
  for (model::KeyIdx k : stream_.write_keys(d)) {
    timelines_[k].emplace_back(p.state, static_cast<std::size_t>(d));
  }
  const SessionId s = stream_.session(d);
  if (s != kNoSession) session_states_[s].states.push_back(p.state);
  max_start_applied_ = std::max(max_start_applied_, stream_.start_ts(d));
  placed_bytes_ += placed_bytes(p);
  txns_.push_back(std::move(p));
}

void OnlineChecker::evaluate_new(TxnIdx d, Placed& p) {
  const StateIndex parent = p.state - 1;
  const model::OpsView cops = stream_.ops(d);
  stats_.ops_evaluated += cops.size();
  if (weak_only_) ++stats_.direct_appends;
  // Assigned mode evaluates exactly the transaction's own level: tracking()
  // reads current_level_ for the rest of this call.
  if (assigned_mode_) current_level_ = assigned_level_of(d);

  // Read states, from flags and dense compares. Each op's read-state start
  // goes to starts_: 0 for writes, phantoms, internals and initial-version
  // reads, writer+1 for a read of an applied member version. PREREAD fails
  // exactly on the ops whose read state is empty — phantoms, self reads
  // other than a positional read of an own write, and unknown or
  // not-yet-applied writers. An applied member version's interval
  // {writer+1, min(next_write-1, parent)} is never empty (upper_bound gives
  // next_write > writer+1, and writer < d gives writer+1 ≤ parent), and the
  // initial version's always admits 0. The interval END only bounds
  // COMPLETE, which RC, RA and PSI never consult, so a weak-only checker
  // skips its timeline search.
  starts_.assign(cops.size(), 0);
  bool preread = true;
  StateIndex complete_lo = 0, complete_hi = parent;
  std::uint64_t lossy_reads = 0;
  for (std::size_t i = 0; i < cops.size(); ++i) {
    const std::uint8_t m = cops.flags(i);
    if ((m & model::kOpWrite) != 0) continue;
    if ((m & model::kOpPhantom) != 0) {
      preread = false;
      continue;
    }
    if ((m & model::kOpPositionalInternal) != 0) {
      if ((m & model::kOpSelfWriter) == 0) preread = false;
      continue;
    }
    if ((m & model::kOpSelfWriter) != 0) {
      preread = false;
      continue;
    }
    StateIndex version_pos = 0;
    if ((m & model::kOpInitWriter) == 0) {
      if ((m & (model::kOpUnknownWriter | model::kOpWriterMissesKey)) != 0 ||
          cops.writer(i) >= d) {  // writer not applied yet: reads from the future
        preread = false;
        continue;
      }
      version_pos = static_cast<StateIndex>(cops.writer(i)) + 1;
    }
    starts_[i] = version_pos;
    complete_lo = std::max(complete_lo, version_pos);
    const model::KeyIdx k = cops.key(i);
    // Folds drop a key's inner retired versions. A read at or above the
    // largest dropped position reconstructs its interval exactly from the
    // kept entries; below it the true next-write may be gone, the interval
    // comes out too permissive, and every downstream clause errs on the
    // lenient side — a one-sided evaluation, counted below.
    if (version_pos < max_dropped_pos_[k]) ++lossy_reads;
    if (weak_only_) continue;
    if (const auto* tl = timeline_of(k)) {
      auto it = std::upper_bound(
          tl->begin(), tl->end(), version_pos,
          [](StateIndex v, const auto& en) { return v < en.first; });
      if (it != tl->end()) complete_hi = std::min(complete_hi, it->first - 1);
    }
  }
  // An empty read state leaves no complete state.
  if (!preread) complete_hi = -1;
  // Without interval ends, only the CAUS-VIS test below can read past a
  // version a fold dropped.
  if (lossy_reads != 0 &&
      (!weak_only_ || (preread && tracking(IsolationLevel::kPSI)))) {
    stats_.past_window_reads += lossy_reads;
    if (obs::enabled()) online_past_reads_total().inc(lossy_reads);
  }

  if (!preread) {
    for (IsolationLevel l : {IsolationLevel::kReadCommitted, IsolationLevel::kReadAtomic,
                             IsolationLevel::kPSI}) {
      if (tracking(l)) violate(l, d, "PREREAD fails in the apply order");
    }
  }

  // Fractured reads (RA).
  if (tracking(IsolationLevel::kReadAtomic) && preread) {
    for (std::size_t i = 0; i < cops.size(); ++i) {
      const std::uint8_t m1 = cops.flags(i);
      if ((m1 & model::kOpWrite) != 0 || cops.internal(i) ||
          (m1 & model::kOpInitWriter) != 0) {
        continue;
      }
      const TxnIdx w1 = cops.writer(i);
      if (w1 == model::kNoTxnIdx || w1 >= d) continue;  // not applied
      for (std::size_t j = 0; j < cops.size(); ++j) {
        if (cops.is_write(j) || cops.internal(j)) continue;
        if (stream_.writes_key(w1, cops.key(j)) && starts_[i] > starts_[j]) {
          violate(IsolationLevel::kReadAtomic, d,
                  "fractured read across " + crooks::to_string(stream_.id_of(w1)) +
                      "'s writes",
                  w1);
        }
      }
    }
  }

  // CAUS-VIS (PSI). Build the transitive PREC set from placed predecessors —
  // for EVERY transaction while closures are live, whatever its PREREAD:
  // in assigned mode a PSI-level transaction arriving in a later block
  // absorbs its predecessors' closures, whatever levels those ran at. As in
  // ReadStateAnalysis::precedence(), a read contributes its writer only when
  // its read state is non-empty (starts_[i] > 0: an applied member version).
  if (closures_live()) {
    p.prec.recent.grow(static_cast<std::size_t>(d) - prec_origin_ + 1);
    for (std::size_t i = 0; i < cops.size(); ++i) {
      if (starts_[i] > 0) prec_absorb(p, static_cast<std::size_t>(starts_[i] - 1));
    }
    // Write-write predecessors: every earlier writer of a key d writes. The
    // newest one absorbed the rest of its key's timeline when it was placed,
    // so its closure alone covers them.
    for (model::KeyIdx k : stream_.write_keys(d)) {
      if (const auto* tl = timeline_of(k)) prec_absorb(p, tl->back().second);
    }
    // The visibility check itself applies only when THIS transaction runs
    // at PSI. Under PREREAD every surviving read is of the initial or an
    // applied member version, and a timeline entry lies past its read state
    // iff it lies past its start: pos > rs.last ⟺ pos > rs.first, because
    // upper_bound picks the first entry past the version and no installed
    // entry exceeds parent. Closures are downward-closed along each key's
    // writer chain (each writer absorbed its predecessor), so some writer
    // past the start is in PREC iff the FIRST one is: test only that.
    if (tracking(IsolationLevel::kPSI) && preread) {
      for (std::size_t i = 0; i < cops.size(); ++i) {
        if (cops.is_write(i) || cops.internal(i)) continue;
        const auto* tl = timeline_of(cops.key(i));
        if (tl == nullptr) continue;
        const auto it = std::upper_bound(
            tl->begin(), tl->end(), starts_[i],
            [](StateIndex v, const auto& en) { return v < en.first; });
        if (it != tl->end() && prec_test(p, it->second)) {
          violate(IsolationLevel::kPSI, d,
                  "CAUS-VIS fails: misses " +
                      crooks::to_string(stream_.id_of(static_cast<TxnIdx>(it->second))) +
                      "'s write to " +
                      crooks::to_string(stream_.keys().key_of(cops.key(i))),
                  static_cast<TxnIdx>(it->second));
        }
      }
    }
  }

  // Only COMPLETE and NO-CONF remain: the clauses of SER and the SI family,
  // none of which a weak-only checker tracks.
  if (weak_only_) return;

  // Serializability: the parent state must be complete.
  const bool parent_complete = complete_lo <= parent && complete_hi >= parent;
  if (tracking(IsolationLevel::kSerializable) && !parent_complete) {
    violate(IsolationLevel::kSerializable, d,
            "parent state is not complete in the apply order");
  }
  if (tracking(IsolationLevel::kStrictSerializable) && !parent_complete) {
    violate(IsolationLevel::kStrictSerializable, d,
            "parent state is not complete in the apply order");
  }

  // The snapshot family.
  const IsolationLevel si_family[] = {IsolationLevel::kAdyaSI, IsolationLevel::kAnsiSI,
                                      IsolationLevel::kSessionSI,
                                      IsolationLevel::kStrongSI};
  StateIndex no_conf = 0;
  for (model::KeyIdx k : stream_.write_keys(d)) {
    if (const auto* tl = timeline_of(k)) {
      no_conf = std::max(no_conf, tl->back().first);
    }
  }
  // Real-time recency bound: # applied transactions with commit < start(d).
  // A timed level that is still alive has already enforced, at every prior
  // append, that the applied stream is fully timestamped (time-oracle clause)
  // and in strictly increasing commit order (C-ORD clause) — so the hashed
  // engine's O(n) time_precedes scan collapses to one binary search over the
  // dense prefix. Computed lazily: only timed levels that survive their
  // preconditions need it, and only they may trust it.
  //
  // Assigned mode voids the sorted invariant: untimed-level transactions
  // interleave (their kNoTimestamp never tripped any clause), so the
  // real-time bounds fall back to linear scans over the prefix. Only
  // timed-level transactions in a mixed stream pay that cost.
  const Timestamp start_t = stream_.start_ts(d);
  StateIndex pos_cache = -1;
  auto applied_before_start = [&]() -> StateIndex {
    if (pos_cache < 0) {
      if (assigned_mode_) {
        // Largest applied state whose generator time-precedes d. On a sorted
        // timed prefix this equals the binary-search count below; on a mixed
        // prefix the set of real-time predecessors need not be a prefix, and
        // the max is the correct snapshot lower bound.
        StateIndex max_state = 0;
        for (TxnIdx q = 0; q < d; ++q) {
          if (stream_.commit_ts(q) != kNoTimestamp &&
              stream_.commit_ts(q) < start_t) {
            max_state = std::max(max_state, static_cast<StateIndex>(q) + 1);
          }
        }
        pos_cache = max_state;
      } else {
        std::size_t lo = 0, hi = static_cast<std::size_t>(d);
        while (lo < hi) {
          const std::size_t mid = lo + (hi - lo) / 2;
          if (stream_.commit_ts(static_cast<TxnIdx>(mid)) < start_t) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        pos_cache = static_cast<StateIndex>(lo);
      }
    }
    return pos_cache;
  };
  // s > 0 is admissible for a timed level iff its generating transaction
  // (dense s-1) real-time-precedes d.
  auto generator_precedes = [&](StateIndex s) {
    const TxnIdx g = static_cast<TxnIdx>(s - 1);
    return stream_.commit_ts(g) != kNoTimestamp && stream_.commit_ts(g) < start_t;
  };
  for (IsolationLevel level : si_family) {
    if (!tracking(level) || !status_ok(level)) continue;
    const bool timed = level != IsolationLevel::kAdyaSI;
    if (timed && !stream_.has_timestamps(d)) {
      violate(level, d, "requires the time oracle");
      continue;
    }
    if (timed && d > 0) {
      // In uniform mode the parent is necessarily timestamped (an untimed
      // parent already killed the level), so the kNoTimestamp conjunct only
      // bites in assigned mode, where an untimed parent IS out of commit
      // order for this execution (kNoTimestamp = INT64_MIN would otherwise
      // slip past the `<`).
      if (!(stream_.commit_ts(d - 1) != kNoTimestamp &&
            stream_.commit_ts(d - 1) < stream_.commit_ts(d))) {
        violate(level, d, "C-ORD fails: applied out of commit order", d - 1);
        continue;
      }
    }
    StateIndex lower = 0;
    if (level == IsolationLevel::kStrongSI) {
      lower = applied_before_start();
    } else if (level == IsolationLevel::kSessionSI &&
               stream_.session(d) != kNoSession) {
      if (auto sit = session_states_.find(stream_.session(d));
          sit != session_states_.end()) {
        const SessionRec& rec = sit->second;
        if (assigned_mode_) {
          // Largest same-session state whose generator time-precedes d —
          // the sorted-prefix shortcut below is not available here. The
          // retired marker's generator timestamps are retained columns, so
          // it participates exactly.
          for (StateIndex s : rec.states) {
            if (s > 0 && generator_precedes(s)) lower = std::max(lower, s);
          }
          if (rec.marker > 0 && generator_precedes(rec.marker)) {
            lower = std::max(lower, rec.marker);
          }
        } else {
          // Largest applied same-session state within the real-time prefix.
          const StateIndex pos = applied_before_start();
          auto it = std::upper_bound(rec.states.begin(), rec.states.end(), pos);
          if (it != rec.states.begin()) lower = *(it - 1);
          if (rec.marker <= pos) lower = std::max(lower, rec.marker);
        }
        // Session states dropped past the marker can only have RAISED the
        // bound; once any kept candidate reaches the marker they are all
        // dominated. Below it, this check is one-sided — count it.
        if (rec.dropped_any && lower < rec.marker) {
          ++stats_.past_window_checks;
          if (obs::enabled()) online_past_checks_total().inc();
        }
      }
    }
    const StateIndex lo = std::max({complete_lo, no_conf, lower});
    const StateIndex hi = std::min(complete_hi, parent);
    // ∃ admissible s ∈ [lo, hi]: s == 0 always qualifies; a timed level also
    // accepts any s whose generating transaction real-time-precedes d, i.e.
    // s ≤ applied_before_start() — so the descending scan reduces to bounds.
    bool ok = hi >= lo;
    if (ok && timed && lo > 0) {
      if (assigned_mode_) {
        // Mixed prefix: admissibility is not downward closed — scan.
        ok = false;
        for (StateIndex s = hi; s >= lo && !ok; --s) ok = generator_precedes(s);
      } else {
        ok = lo <= applied_before_start();
      }
    }
    if (!ok) {
      violate(level, d, "no admissible snapshot state in the apply order");
    }
  }
}

void OnlineChecker::prec_absorb(Placed& p, std::size_t slot) {
  // A member of the closure brought its own closure along when it joined.
  if (prec_test(p, slot)) return;
  if (slot >= placed_base_) {
    const Placed& w = placed_of(slot);
    // Same origin on both sides, so the word-wise OR is a straight union;
    // w's bitset never exceeds p's (w placed earlier, p grown to cover d).
    p.prec.recent.set(slot - prec_origin_);
    p.prec.recent.or_with(w.prec.recent);
    p.prec.base.grow(w.prec.base.size());
    p.prec.base.or_with(w.prec.base);
    return;
  }
  // Retired base slot: its closure over base ordinals was harvested at fold
  // time. A key's base writer absorbed every older writer of that key when
  // it was placed, so this covers the dropped writers transitively — the
  // write-side absorb over a folded timeline loses nothing.
  if (const std::size_t o = ordinal_of(slot); o != kNoOrdinal) {
    p.prec.base.grow(o + 1);
    p.prec.base.set(o);
    p.prec.base.or_with(base_prec_[o]);
    return;
  }
  // Retired and no longer any key's base writer: its closure summary is
  // gone (only a read of a doubly-superseded version gets here). The PREC
  // set comes out a subset of the truth — one-sided, counted.
  ++stats_.past_window_checks;
  if (obs::enabled()) online_past_checks_total().inc();
}

void OnlineChecker::maybe_retire() {
  if (!window_.enabled() || txns_.empty()) return;
  std::size_t target = static_cast<std::size_t>(-1);
  if (window_.max_resident_txns != 0) target = window_.max_resident_txns;
  if (window_.max_resident_bytes != 0) {
    const std::size_t est = resident_bytes();
    if (est > window_.max_resident_bytes) {
      const std::size_t per = std::max<std::size_t>(est / txns_.size(), 1);
      target = std::min(
          target, std::max<std::size_t>(window_.max_resident_bytes / per, 16));
    }
  }
  if (txns_.size() <= target) return;
  // The watermark follows the PLACED transactions: inside a block, the
  // compiled stream already holds members that are not evaluated yet.
  std::size_t wm = placed_count() - target;
  // Never retire a session's most recently applied transaction: a stalled
  // session pins the window (memory grows until it commits again) instead
  // of degrading its own recency verdicts.
  for (const auto& [sid, rec] : session_states_) {
    if (!rec.states.empty()) {
      wm = std::min(wm, static_cast<std::size_t>(rec.states.back()) - 1);
    }
  }
  // Hysteresis: a fold costs O(resident), so advance in quarter-window
  // steps — resident memory peaks at ~1.25× the target between folds.
  const std::size_t min_advance = std::max<std::size_t>(target / 4, 1);
  if (wm < placed_base_ + min_advance) return;
  fold_to(static_cast<TxnIdx>(wm));
}

void OnlineChecker::fold_to(TxnIdx upto) {
  obs::TraceSpan span("online.fold");
  const std::size_t M = static_cast<std::size_t>(upto);
  const std::size_t first = placed_base_;  // first slot retiring now
  const std::size_t erase_n = M - first;
  const bool closures = closures_live();
  if (!closures && !ord_slot_.empty()) {
    // Closures died (PSI violated): nothing will test or absorb them again.
    ord_slot_.clear();
    ord_keys_.clear();
    base_prec_.clear();
    live_ords_ = 0;
    base_bytes_ = 0;
  }

  // 1. Timelines: drop entries before the watermark, keeping each key's
  // newest retired writer as its base entry (NO-CONF's back() and the
  // CAUS-VIS test stay exact for it); remember the largest dropped position
  // — reads of versions below it are the window's only read-side loss. Only
  // keys a retiring transaction wrote change; each is visited once, from its
  // newest retiring writer, which becomes its base slot. new_keys[i] counts
  // the keys slot first+i is now the base of.
  std::vector<std::uint32_t> new_keys(closures ? erase_n : 0, 0);
  for (std::size_t d = first; d < M; ++d) {
    for (model::KeyIdx k : stream_.write_keys(static_cast<TxnIdx>(d))) {
      auto& tl = timelines_[k];
      // Entries are appended in apply order, so slots ascend.
      const auto cut = std::partition_point(
          tl.begin(), tl.end(), [&](const auto& en) { return en.second < M; });
      const std::size_t split = static_cast<std::size_t>(cut - tl.begin());
      if (tl[split - 1].second != d) continue;  // a newer retiring writer
      if (closures && tl.front().second < first) {
        // The previous base slot stops being this key's base.
        const std::size_t o = ordinal_of(tl.front().second);
        if (--ord_keys_[o] == 0) {
          --live_ords_;
          base_bytes_ -= bitset_bytes(base_prec_[o]);
          base_prec_[o] = DynamicBitset();
        }
      }
      if (split >= 2) {
        max_dropped_pos_[k] = std::max(max_dropped_pos_[k], tl[split - 2].first);
        tl.erase(tl.begin(), tl.begin() + static_cast<std::ptrdiff_t>(split - 1));
      }
      if (closures) ++new_keys[d - first];
    }
  }

  // 2. Retired closures. New base slots get the next ordinals in slot
  // order; each one's closure is its resident `base` bitset plus the newly
  // retired base slots harvested out of its `recent` bitset. Carried-over
  // base slots keep their closures as they are.
  if (closures) {
    std::vector<std::size_t> new_ord(erase_n, kNoOrdinal);
    const std::size_t first_ord = ord_slot_.size();
    for (std::size_t i = 0; i < erase_n; ++i) {
      if (new_keys[i] == 0) continue;
      new_ord[i] = ord_slot_.size();
      ord_slot_.push_back(first + i);
      ord_keys_.push_back(new_keys[i]);
      ++live_ords_;
    }
    const std::size_t n_ord = ord_slot_.size();
    // Bits of `recent` for slots [first, hi) → their new ordinals in `out`.
    auto harvest = [&](const DynamicBitset& recent, std::size_t hi,
                       DynamicBitset& out) {
      if (n_ord == first_ord) return;
      recent.for_each_in(first - prec_origin_, hi - prec_origin_, [&](std::size_t i) {
        const std::size_t o = new_ord[prec_origin_ + i - first];
        if (o == kNoOrdinal) return;
        out.grow(o + 1);
        out.set(o);
      });
    };
    base_prec_.resize(n_ord);
    for (std::size_t o = first_ord; o < n_ord; ++o) {
      const std::size_t b = ord_slot_[o];
      Placed& pb = placed_of(b);
      DynamicBitset closure = std::move(pb.prec.base);
      harvest(pb.prec.recent, b, closure);
      base_bytes_ += bitset_bytes(closure);
      base_prec_[o] = std::move(closure);
    }
    for (std::size_t i = erase_n; i < txns_.size(); ++i) {
      harvest(txns_[i].prec.recent, M, txns_[i].prec.base);
    }
  }

  // 3. Sessions: state s was generated by dense slot s-1, so states ≤ M are
  // retired. Keep the largest as the recency marker; mark the record lossy
  // once anything beyond the marker is dropped.
  for (auto& [sid, rec] : session_states_) {
    auto& st = rec.states;
    const auto cut =
        std::upper_bound(st.begin(), st.end(), static_cast<StateIndex>(M));
    const std::size_t nret = static_cast<std::size_t>(cut - st.begin());
    if (nret == 0) continue;
    if (rec.marker > 0 || nret > 1) rec.dropped_any = true;
    rec.marker = st[nret - 1];
    st.erase(st.begin(), cut);
  }

  // 4. Surviving PREC sets: shift the origin by whole words (the retired
  // members that can still be tested were harvested into `base` above), or
  // drop them outright once closures are dead.
  const std::size_t new_origin = (M / 64) * 64;
  const std::size_t dwords = (new_origin - prec_origin_) / 64;
  for (std::size_t i = erase_n; i < txns_.size(); ++i) {
    PrecSet& prec = txns_[i].prec;
    if (!closures) {
      prec = PrecSet{};
    } else {
      prec.recent.drop_words(dwords);
    }
  }

  // 5. Reclaim the placed prefix and re-measure the resident estimate.
  txns_.erase(txns_.begin(), txns_.begin() + static_cast<std::ptrdiff_t>(erase_n));
  if (txns_.capacity() > 2 * txns_.size() + 1024) txns_.shrink_to_fit();
  placed_base_ = M;
  prec_origin_ = new_origin;
  if (ord_slot_.size() - live_ords_ > live_ords_) compact_ordinals();
  placed_bytes_ = 0;
  for (const Placed& p : txns_) placed_bytes_ += placed_bytes(p);

  // 6. Fold the compiled stream itself (op rows, masks, payloads, pending).
  const model::CompiledHistory::RetireStats rs = stream_.retire(upto);
  ++stats_.window_folds;
  stats_.retired_txns += rs.txns;
  stats_.retired_ops += rs.ops;
  if (obs::enabled()) {
    online_folds_total().inc();
    online_retired_txns_total().inc(rs.txns);
    online_retired_ops_total().inc(rs.ops);
    online_fold_txns_hist().observe(static_cast<double>(rs.txns));
    online_watermark_gauge().set(static_cast<std::int64_t>(M));
    online_resident_txns_gauge().set(static_cast<std::int64_t>(txns_.size()));
    online_resident_ops_gauge().set(
        static_cast<std::int64_t>(stream_.resident_ops()));
  }
  span.field("watermark", static_cast<std::uint64_t>(M))
      .field("retired", static_cast<std::uint64_t>(rs.txns))
      .field("resident", static_cast<std::uint64_t>(txns_.size()));
}

void OnlineChecker::compact_ordinals() {
  // rank[o] = live ordinals below o: the new number of live ordinal o, and
  // rank[w] the new width of a bitset of width w.
  const std::size_t n_ord = ord_slot_.size();
  std::vector<std::size_t> rank(n_ord + 1, 0);
  for (std::size_t o = 0; o < n_ord; ++o) {
    rank[o + 1] = rank[o] + (ord_keys_[o] != 0 ? 1 : 0);
  }
  auto renumber = [&](DynamicBitset& b) {
    DynamicBitset out(rank[std::min(b.size(), n_ord)]);
    b.for_each([&](std::size_t o) {
      if (rank[o + 1] != rank[o]) out.set(rank[o]);
    });
    b = std::move(out);
  };
  for (Placed& p : txns_) renumber(p.prec.base);
  base_bytes_ = 0;
  for (std::size_t o = 0; o < n_ord; ++o) {
    if (ord_keys_[o] == 0) continue;
    const std::size_t n = rank[o];
    renumber(base_prec_[o]);
    base_bytes_ += bitset_bytes(base_prec_[o]);
    if (n != o) {
      ord_slot_[n] = ord_slot_[o];
      ord_keys_[n] = ord_keys_[o];
      base_prec_[n] = std::move(base_prec_[o]);
    }
  }
  ord_slot_.resize(live_ords_);
  ord_keys_.resize(live_ords_);
  base_prec_.resize(live_ords_);
}

void OnlineChecker::check_retroactive_inversions(TxnIdx d) {
  // A late-arriving transaction that committed before an already-applied
  // transaction *started* retroactively violates the real-time clauses of
  // strict serializability and Strong SI (and Session SI within a session).
  const Timestamp commit_d = stream_.commit_ts(d);
  if (commit_d == kNoTimestamp) return;
  // ∃ applied q with commit(d) < start(q) ⟺ commit(d) < max applied start —
  // on a monotone stream (the common case) this skips the O(n) scan entirely.
  if (!(commit_d < max_start_applied_)) return;

  // Which levels is applied transaction q held to? Uniform mode: every
  // tracked level. Assigned mode: q's own level only, so an inversion hits q
  // at the level q ran at.
  auto held = [&](IsolationLevel level, TxnIdx q) {
    return assigned_mode_ ? assigned_level_of(q) == level
                          : statuses_.contains(level);
  };
  // Skip the scan when no real-time/session clause is still live: in
  // assigned mode applied_mask_ says whether any applied transaction holds
  // one at all.
  auto live = [&](IsolationLevel level) {
    if (assigned_mode_) {
      return assigned_status_.ok &&
             (applied_mask_ & (1u << static_cast<unsigned>(level))) != 0;
    }
    auto it = statuses_.find(level);
    return it != statuses_.end() && it->second.ok;
  };
  if (!live(IsolationLevel::kStrictSerializable) && !live(IsolationLevel::kStrongSI) &&
      !live(IsolationLevel::kSessionSI)) {
    return;
  }

  const TxnId late_id = stream_.id_of(d);
  const SessionId late_session = stream_.session(d);
  // Scan the WHOLE applied stream, retired prefix included: timestamps,
  // sessions, ids and level tags are retained columns, so retroactive
  // inversions stay exact past the watermark.
  for (TxnIdx q = 0; q < d; ++q) {
    if (!stream_.time_precedes(d, q)) continue;
    if (held(IsolationLevel::kStrictSerializable, q)) {
      violate(IsolationLevel::kStrictSerializable, q,
              "real-time predecessor " + crooks::to_string(late_id) +
                  " was applied after it",
              d);
    }
    if (held(IsolationLevel::kStrongSI, q)) {
      violate(IsolationLevel::kStrongSI, q,
              "snapshot misses " + crooks::to_string(late_id) +
                  ", which committed before it started",
              d);
    }
    if (held(IsolationLevel::kSessionSI, q) && stream_.session(q) != kNoSession &&
        stream_.session(q) == late_session) {
      violate(IsolationLevel::kSessionSI, q,
              "session predecessor " + crooks::to_string(late_id) +
                  " was applied after it",
              d);
    }
  }
}

}  // namespace crooks::checker
