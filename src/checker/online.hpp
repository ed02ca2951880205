// Streaming isolation monitor.
//
// Real deployments don't audit after the fact — they watch the commit stream.
// OnlineChecker consumes committed transactions in the order the system
// applied them (the system's natural execution witness) and maintains, per
// tracked isolation level, whether the execution-so-far still satisfies
// every commit test. Appending is incremental: per-key version timelines
// grow append-only, a transaction's commit test is evaluated once at its
// append (placement fixes its verdict forever — the same observation that
// makes the exhaustive engine's pruning sound), and real-time/session
// recency clauses are re-checked retroactively when a late transaction
// reveals an inversion.
//
// The checker owns a growable CompiledHistory and feeds every appended block
// through CompiledHistory::extend, so the whole stream — first block or
// ten-thousandth — is evaluated on compiled ops: writer recency is a dense
// integer compare, phantom/internal/unknown-writer branches are precomputed
// flags, and the real-time recency clauses use the monotone commit order the
// timed levels themselves enforce (binary search instead of an O(n) scan).
// Every transaction, at every tracked level set, takes one evaluation path:
// a flags pass yields PREREAD and each op's read-state start, which is all
// RC, RA and PSI consult. The read-state interval ends (a per-read timeline
// binary search) bound only COMPLETE, which SER and the SI family test, so a
// checker tracking nothing stronger than PSI skips them.
// There is no hashed fallback path; stats().hashed_fallback_appends exists
// purely as a regression tripwire (asserted == 0 by the differential suite
// and by CI's bench gate). The frozen per-transaction hashed monitor lives in
// checker::reference::OnlineCheckerHashed for differential testing and as
// the bench baseline.
//
// The verdict is per-execution (CT_I over THIS order), the streaming
// analogue of ct::test_execution. A violation here means the system's own
// apply order is not a witness; the ∃e question can still be asked offline
// with checker::check.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "committest/levels.hpp"
#include "common/bitset.hpp"
#include "common/ids.hpp"
#include "common/interval.hpp"
#include "model/compiled.hpp"
#include "model/transaction.hpp"

namespace crooks::checker {

class OnlineChecker {
 public:
  /// Track the given levels (default: all of them).
  explicit OnlineChecker(std::vector<ct::IsolationLevel> levels =
                             {ct::kAllLevels.begin(), ct::kAllLevels.end()});

  struct LevelStatus {
    bool ok = true;
    std::optional<TxnId> first_violation;
    std::string explanation;
  };

  /// Mixed-level monitor: evaluate every appended transaction at its own
  /// `level=` annotation (falling back to `fallback` when unannotated) and
  /// maintain ONE status — the streaming analogue of
  /// ct::test_execution(LevelAssignment, ...). Because a later block may
  /// annotate any level, this mode always computes the read-state interval
  /// ends, builds every transaction's PREC set (a future PSI-level
  /// transaction needs its predecessors' closures), and drops the
  /// sorted-commit-prefix shortcut of the timed recency clauses — untimed
  /// transactions interleave freely, so real-time predecessors are found by
  /// scan instead of binary search.
  /// Construct as: OnlineChecker c(OnlineChecker::kTrackAssigned, fallback);
  /// (A tag, not a one-member options struct: a braced {level} argument must
  /// keep meaning "track exactly this level" via the vector constructor.)
  struct TrackAssignedTag {};
  static constexpr TrackAssignedTag kTrackAssigned{};
  OnlineChecker(TrackAssignedTag,
                ct::IsolationLevel fallback = ct::IsolationLevel::kSerializable);

  /// True for a checker built by track_assigned().
  bool assigned_mode() const { return assigned_mode_; }

  /// Bounded-memory windowing. When either limit is set the checker retires
  /// its prefix in epochs: once the resident tail exceeds the limit, a
  /// watermark W is chosen, everything before W is folded into a summarized
  /// base (per-key latest retired version, per-session recency marker,
  /// retired PREC closures over the base slots, the compiled history's
  /// retained scalar/footprint columns), and the per-transaction state —
  /// PREC bitsets, compiled op rows, transaction payloads — is reclaimed.
  /// Retirement also runs inside a block, every quarter window of
  /// placements, so one oversized block (the first read of an existing log)
  /// is bounded like a stream of small ones. Memory then no longer grows
  /// with the stream: it is bounded by the window, the keys (one base slot
  /// and its closure per key) and the sessions.
  ///
  /// The windowed monitor is ONE-SIDED: it never reports a violation an
  /// unwindowed checker would not, and it misses a violation only when the
  /// witness reaches past the watermark. Every potentially lossy evaluation
  /// is counted (stats().past_window_reads / past_window_checks); when both
  /// counters are 0 the windowed verdicts, first-violation ids and
  /// explanations are identical to an unwindowed run — the differential
  /// suite asserts exactly this.
  ///
  /// The watermark never passes any session's most recently applied
  /// transaction, so a stalled session pins the window (memory grows until
  /// it commits again) rather than degrading that session's verdicts.
  struct WindowOptions {
    /// Retire when more than this many transactions are resident (0 = off).
    std::size_t max_resident_txns = 0;
    /// Retire when the resident-memory ESTIMATE (see resident_bytes())
    /// exceeds this many bytes (0 = off). Both limits may be set; the
    /// tighter one wins.
    std::size_t max_resident_bytes = 0;
    bool enabled() const { return max_resident_txns != 0 || max_resident_bytes != 0; }
  };
  void set_window(WindowOptions w) { window_ = w; }
  const WindowOptions& window() const { return window_; }

  /// First dense index NOT yet retired (== number of retired transactions).
  model::TxnIdx watermark() const { return stream_.retired(); }
  /// Transactions currently resident (total appended = size()).
  std::size_t resident_txns() const { return txns_.size(); }
  /// Compiled operations currently resident in the stream.
  std::size_t resident_ops() const { return stream_.resident_ops(); }
  /// Rough resident-footprint estimate in bytes (placed state, i.e. state
  /// index and PREC closure, + the retired base slots' closures + compiled
  /// rows + transaction payloads). Drives the max_resident_bytes limit; the
  /// retained per-transaction summary columns (~100 B/txn, grow with the
  /// whole stream) are intentionally excluded — a window cannot bound them.
  std::size_t resident_bytes() const {
    return placed_bytes_ + base_bytes_ + txns_.size() * kTxnBytesEst +
           stream_.resident_ops() * kOpBytesEst;
  }

  /// The single mixed-assignment status (assigned mode only). Its
  /// explanation names the violated transaction's own level.
  const LevelStatus& assigned_status() const { return assigned_status_; }

  /// Streaming throughput accounting, exported by bench_online_incremental
  /// and asserted by the differential suite.
  struct Stats {
    std::uint64_t blocks = 0;            // extend() calls (append() = block of 1)
    std::uint64_t compiled_appends = 0;  // transactions evaluated on compiled deltas
    /// Transactions evaluated on the pre-compile hashed path. Always 0 —
    /// every call path compiles — kept as a regression tripwire (CI fails the
    /// bench gate if it ever goes positive).
    std::uint64_t hashed_fallback_appends = 0;
    std::uint64_t duplicates_ignored = 0;
    /// Compiled operations whose read-state views were computed — the online
    /// analogue of CheckResult::nodes_explored, so the streaming monitor's
    /// effort is comparable with the offline engines' on one dashboard.
    std::uint64_t ops_evaluated = 0;
    /// Transactions evaluated without read-state interval ends (every
    /// tracked level in {RU, RC, RA, PSI}): no per-read timeline binary
    /// search. Equals compiled_appends on a weak-only checker and 0 when any
    /// stronger level is tracked.
    std::uint64_t direct_appends = 0;
    // --- Windowed mode (all 0 when no window is set) ---
    std::uint64_t retired_txns = 0;  // transactions folded past the watermark
    std::uint64_t retired_ops = 0;   // compiled op rows reclaimed
    std::uint64_t window_folds = 0;  // retirement epochs
    /// Reads of a version old enough that writes BETWEEN it and the window
    /// were dropped: the read-state interval (and the CAUS-VIS timeline
    /// walk) may be too permissive. The only read-side lossy event.
    std::uint64_t past_window_reads = 0;
    /// The remaining lossy evaluations: a Session-SI lower bound that may
    /// hide behind the retained retired-session marker, or a PREC absorb of
    /// a retired writer whose closure summary was dropped (it stopped being
    /// any key's newest retired writer). Like past_window_reads these are
    /// one-sided: missed violations, never fabricated ones. Once PSI is dead
    /// no closure is maintained, so its absorbs stop counting here.
    std::uint64_t past_window_checks = 0;
  };

  /// Append the next committed transaction. Returns false if the id was
  /// already seen or reserved (the transaction is ignored).
  bool append(const model::Transaction& txn);

  /// Append a block of transactions in declaration order, returning how many
  /// were accepted (duplicates are ignored, not errors). The block is
  /// compiled as one CompiledDelta — fresh checker or not, every transaction
  /// is evaluated on compiled ops; there is no fallback to the hashed path.
  std::size_t append_all(std::span<const model::Transaction> block);
  std::size_t append_all(const model::TransactionSet& txns);

  const LevelStatus& status(ct::IsolationLevel level) const;
  bool all_ok() const;
  /// Total transactions ever appended (resident + retired).
  std::size_t size() const { return stream_.size(); }
  const Stats& stats() const { return stats_; }

  /// The levels still satisfied by the execution so far.
  std::vector<ct::IsolationLevel> surviving_levels() const;

  /// The compiled view of the stream so far (dense index == apply order).
  /// Any engine can consume it, e.g. for an offline ∃e check of the prefix.
  const model::CompiledHistory& stream() const { return stream_; }

  /// One recorded violation, delivered to the violation hook at event time —
  /// while the failing transaction's compiled ops are still resident (the
  /// watermark never passes a transaction still being evaluated; only the
  /// retroactive-inversion victim can already sit below the watermark).
  struct ViolationEvent {
    ct::IsolationLevel level = ct::IsolationLevel::kReadUncommitted;
    TxnId txn{};                              // the violated transaction
    model::TxnIdx dense = model::kNoTxnIdx;   // its apply-order slot in stream()
    /// The clause's other transaction (fractured/missed writer, C-ORD
    /// predecessor, retroactive inverter); kNoTxnIdx when the clause names
    /// none.
    model::TxnIdx other = model::kNoTxnIdx;
    std::string_view why;  // the raw clause text; valid only during the call
  };

  /// Observe every sticky-first violation as it is recorded (once per level
  /// in uniform mode, once total in assigned mode). The forensics collector
  /// attaches here; pass nullptr to detach.
  void set_violation_hook(std::function<void(const ViolationEvent&)> hook) {
    violation_hook_ = std::move(hook);
  }

 private:
  /// A PREC closure that survives window folds. `recent` is a bitset over
  /// slots ≥ prec_origin_ (bit i ⇔ slot prec_origin_ + i), consulted only for
  /// resident slots; `base` is a bitset over base ordinals (bit o ⇔ retired
  /// slot ord_slot_[o]). A retired slot can only be tested while it is a
  /// base slot — some key's newest retired writer, the front of its
  /// timeline — so those are the only retired slots given an ordinal. A
  /// fold harvests the newly retired base slots out of `recent` into `base`
  /// and shifts the origin by whole words (DynamicBitset::drop_words).
  struct PrecSet {
    DynamicBitset recent;
    DynamicBitset base;
  };

  struct Placed {
    StateIndex state = 0;  // 1-based; == dense index + 1
    PrecSet prec;  // populated only while closures_live()
  };

  /// Per-session recency record. `states` holds RESIDENT applied states
  /// ascending; `marker` is the largest retired state of the session (0 if
  /// none) and `dropped_any` whether any session state was dropped beyond
  /// the marker — together they decide when a Session-SI lower bound is
  /// potentially lossy (counted in past_window_checks).
  struct SessionRec {
    std::vector<StateIndex> states;
    StateIndex marker = 0;
    bool dropped_any = false;
  };

  /// Is `level` evaluated for the transaction currently being ingested?
  /// Uniform mode: a fixed set. Assigned mode: exactly the transaction's own
  /// level (current_level_, set at the top of evaluate_new).
  bool tracking(ct::IsolationLevel level) const {
    return assigned_mode_ ? level == current_level_ : statuses_.contains(level);
  }
  bool status_ok(ct::IsolationLevel level) const {
    return assigned_mode_ ? assigned_status_.ok : statuses_.at(level).ok;
  }
  /// Are PREC closures maintained? Uniform mode: while PSI is tracked and
  /// not yet violated. Assigned mode: while the status is alive (a PSI-level
  /// transaction may arrive in any later block and absorb the closures of
  /// predecessors that ran at any level).
  bool closures_live() const {
    if (assigned_mode_) return assigned_status_.ok;
    const auto it = statuses_.find(ct::IsolationLevel::kPSI);
    return it != statuses_.end() && it->second.ok;
  }
  /// The level transaction `d` is evaluated at in assigned mode.
  ct::IsolationLevel assigned_level_of(model::TxnIdx d) const {
    const std::uint8_t t = stream_.level_tag(d);
    return t == model::CompiledHistory::kNoLevelTag
               ? assigned_fallback_
               : static_cast<ct::IsolationLevel>(t);
  }
  /// Record a sticky-first violation of `level` by dense slot `d`; `other`
  /// is the clause's other transaction when it names one. One exit for the
  /// status flip, the {level, session} counter, the trace event and the
  /// violation hook.
  void violate(ct::IsolationLevel level, model::TxnIdx d, std::string why,
               model::TxnIdx other = model::kNoTxnIdx);

  /// Shared tail of every append path: evaluate the block's transactions
  /// against the stream prefix in apply order and install them (timelines,
  /// session index, recency maxima), then retire past the window.
  void ingest(const model::CompiledDelta& delta);
  /// Run d's commit tests for every level it is held to, filling p's PREC
  /// closure when one is needed.
  void evaluate_new(model::TxnIdx d, Placed& p);
  void check_retroactive_inversions(model::TxnIdx d);
  /// Evaluate d, check the real-time clauses it may invert, and install it.
  void commit_placed(model::TxnIdx d);

  // --- Windowing ---
  /// Placed record of dense slot s (must be resident: s ≥ watermark()).
  Placed& placed_of(std::size_t slot) { return txns_[slot - placed_base_]; }
  const Placed& placed_of(std::size_t slot) const {
    return txns_[slot - placed_base_];
  }
  static constexpr std::size_t kNoOrdinal = static_cast<std::size_t>(-1);
  /// Base ordinal of a retired slot, or kNoOrdinal unless it is a live base
  /// slot. Ordinals ascend with their slots, so this is a binary search.
  std::size_t ordinal_of(std::size_t slot) const {
    auto it = std::lower_bound(ord_slot_.begin(), ord_slot_.end(), slot);
    if (it == ord_slot_.end() || *it != slot) return kNoOrdinal;
    const auto o = static_cast<std::size_t>(it - ord_slot_.begin());
    return ord_keys_[o] != 0 ? o : kNoOrdinal;
  }
  /// slot ∈ PREC closure of p? Exact for every resident slot and for every
  /// live base slot; no other slot is ever tested.
  bool prec_test(const Placed& p, std::size_t slot) const {
    if (slot >= placed_base_) {
      const std::size_t i = slot - prec_origin_;
      return i < p.prec.recent.size() && p.prec.recent.test(i);
    }
    const std::size_t o = ordinal_of(slot);
    return o != kNoOrdinal && o < p.prec.base.size() && p.prec.base.test(o);
  }
  /// Absorb slot and its transitive closure into p's PREC set, whether the
  /// slot is resident (Placed bitsets) or a retired base slot (base_prec_).
  void prec_absorb(Placed& p, std::size_t slot);
  /// Rough footprints, for the max_resident_bytes estimate.
  static std::size_t bitset_bytes(const DynamicBitset& b) {
    return (b.size() + 7) / 8;
  }
  static std::size_t placed_bytes(const Placed& p) {
    return sizeof(Placed) + bitset_bytes(p.prec.recent) +
           bitset_bytes(p.prec.base);
  }
  /// Decide a watermark (resident excess, clamped so no session's latest
  /// applied transaction retires, with hysteresis) and fold. Runs every
  /// quarter window of placements and at the end of every ingest.
  void maybe_retire();
  /// Fold everything before dense index `upto` into the summarized base.
  void fold_to(model::TxnIdx upto);
  /// Renumber the live base ordinals densely (order kept) once the dead ones
  /// outnumber them, rewriting every closure's `base` bitset.
  void compact_ordinals();
  /// Placed transactions (retired + resident): the next slot to evaluate.
  std::size_t placed_count() const { return placed_base_ + txns_.size(); }

  /// Timeline of dense key `k`, or null when nothing applied wrote it yet.
  const std::vector<std::pair<StateIndex, std::size_t>>* timeline_of(
      model::KeyIdx k) const {
    return k >= timelines_.size() || timelines_[k].empty() ? nullptr
                                                           : &timelines_[k];
  }

  std::map<ct::IsolationLevel, LevelStatus> statuses_;
  model::CompiledHistory stream_;  // owning; dense index == apply order
  // Placed records of RESIDENT transactions: txns_[i] is dense slot
  // placed_base_ + i. Front-erased by fold_to.
  std::vector<Placed> txns_;
  // Timelines indexed by the stream's KeyIdx: (installed state, dense writer).
  // After a fold a timeline keeps its resident entries plus AT MOST ONE
  // retired entry in front — the key's latest retired writer (its base slot):
  // back() stays exact for NO-CONF and the CAUS-VIS walk still sees the
  // newest version a resident read could have skipped.
  std::vector<std::vector<std::pair<StateIndex, std::size_t>>> timelines_;
  // Per key: largest timeline position ever DROPPED by a fold. A read of a
  // version below this bound may have lost its true next-write (lossy,
  // counted); at or above it the kept entries reconstruct the interval
  // exactly.
  std::vector<StateIndex> max_dropped_pos_;
  // Per-session recency records, for the Session SI lower bound.
  std::unordered_map<SessionId, SessionRec> session_states_;
  // --- Window state ---
  WindowOptions window_;
  std::size_t placed_base_ = 0;  // == stream_.retired(): dense slot of txns_[0]
  std::size_t prec_origin_ = 0;  // word-aligned (×64), ≤ placed_base_
  // Base ordinals, append-only: a slot gets one at the fold where it becomes
  // some key's newest retired writer. ord_slot_[o] is its slot (ascending in
  // o), ord_keys_[o] the number of keys it is still the base of (0 = dead:
  // never tested again), base_prec_[o] its closure over ordinals (< o; empty
  // once dead). Dead ordinals are compacted away once they outnumber the
  // live_ords_ live ones.
  std::vector<std::size_t> ord_slot_;
  std::vector<std::uint32_t> ord_keys_;
  std::vector<DynamicBitset> base_prec_;
  std::size_t live_ords_ = 0;
  std::size_t base_bytes_ = 0;    // Σ closure bytes over base_prec_
  std::size_t placed_bytes_ = 0;  // Σ placed_bytes over resident txns_
  static constexpr std::size_t kTxnBytesEst = 320;  // Transaction + set nodes
  static constexpr std::size_t kOpBytesEst = 32;    // compiled rows + timeline
  // Max start_ts over applied transactions: a late transaction can invert a
  // real-time clause iff some applied transaction started after it committed.
  Timestamp max_start_applied_ = kNoTimestamp;
  // True when every tracked level is untimed-weak (RU/RC/RA/PSI): fixed at
  // construction; evaluate_new then skips the read-state interval ends.
  bool weak_only_ = false;
  // --- Assigned (mixed-level) mode, set by track_assigned() ---
  bool assigned_mode_ = false;
  ct::IsolationLevel assigned_fallback_ = ct::IsolationLevel::kSerializable;
  LevelStatus assigned_status_;
  // Level of the transaction currently in evaluate_new (assigned mode).
  ct::IsolationLevel current_level_ = ct::IsolationLevel::kSerializable;
  // Bitmask of the levels applied transactions were evaluated at — lets the
  // retroactive-inversion pass exit early when no applied transaction holds
  // a real-time/session clause.
  std::uint16_t applied_mask_ = 0;
  // Scratch: per-op read-state starts of the transaction in evaluate_new
  // (reused across transactions to avoid reallocation).
  std::vector<StateIndex> starts_;
  // Scratch for append_all's duplicate filter, reused across batches (a
  // monitor appends for days): the block's sorted (id, position) pairs and
  // which positions repeat an earlier id, and the filtered copy of a block
  // that holds a duplicate.
  std::vector<std::pair<TxnId, std::size_t>> append_ids_;
  std::vector<std::uint8_t> append_repeat_;
  std::vector<model::Transaction> append_fresh_;
  std::function<void(const ViolationEvent&)> violation_hook_;
  Stats stats_;
};

}  // namespace crooks::checker
