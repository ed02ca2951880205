#include "model/compiled.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace crooks::model {

namespace {

obs::Counter& compiled_txns_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_compile_txns_total", "Transactions interned by compile_block");
  return c;
}
obs::Counter& compiled_deltas_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_compile_deltas_total", "CompiledHistory::extend calls");
  return c;
}
obs::Histogram& extend_seconds() {
  static obs::Histogram& h = obs::Registry::global().histogram(
      "crooks_compile_extend_seconds",
      "Latency of one CompiledHistory::extend (compile + re-resolve)");
  return h;
}
obs::Counter& retired_txns_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_compile_retired_txns_total",
      "Transactions folded into the base state by CompiledHistory::retire");
  return c;
}
obs::Counter& retired_ops_total() {
  static obs::Counter& c = obs::Registry::global().counter(
      "crooks_compile_retired_ops_total",
      "Compiled SoA ops reclaimed by CompiledHistory::retire");
  return c;
}

/// Front-erase `cut` elements, returning real memory to the allocator when
/// the slack has grown past the resident size (vector::erase alone keeps
/// capacity, which would defeat the bounded-memory point of retirement).
template <typename V>
void drop_front(V& v, std::size_t cut) {
  v.erase(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(cut));
  if (v.capacity() > 2 * v.size() + 1024) v.shrink_to_fit();
}

/// The input contract shared with the observation parser: a transaction
/// must not commit before it starts.
void reject_inverted_timestamps(const Transaction& t) {
  if (t.has_timestamps() && t.start_ts() > t.commit_ts()) {
    throw std::invalid_argument(crooks::to_string(t.id()) + ": " +
                                inverted_timestamps_message(t.start_ts(), t.commit_ts()));
  }
}

}  // namespace

CompiledHistory::CompiledHistory(const TransactionSet& txns)
    : txns_(&txns), n_(txns.size()) {
  for (const Transaction& t : txns) reject_inverted_timestamps(t);
  compile_block(0);
}

CompiledHistory::CompiledHistory() : txns_(nullptr) {
  owned_ = std::make_unique<TransactionSet>();
  txns_ = owned_.get();
  compile_block(0);
}

bool CompiledHistory::ts_less(TxnIdx a, TxnIdx b) const {
  const bool ta = commit_ts_[a] != kNoTimestamp;
  const bool tb = commit_ts_[b] != kNoTimestamp;
  if (ta != tb) return ta;  // timestamped first
  if (ta && commit_ts_[a] != commit_ts_[b]) return commit_ts_[a] < commit_ts_[b];
  return a < b;  // deterministic tie-break: dense (declaration) order
}

void CompiledHistory::compile_block(TxnIdx first) {
  const TransactionSet& txns = *txns_;
  const std::size_t n = n_;
  if (n > first) {
    compiled_txns_total().inc(static_cast<std::uint64_t>(n - first));
    if (obs::Trace::active()) {
      obs::Trace::event("model.compile_block",
                        obs::TraceFields()
                            .add("first", static_cast<std::uint64_t>(first))
                            .add("count", static_cast<std::uint64_t>(n - first)));
    }
  }
  if (op_begin_.empty()) {  // bootstrap the offset arrays
    op_begin_.push_back(0);
    wk_begin_.push_back(0);
    rk_begin_.push_back(0);
  }

  // Pass 1: intern every key of the block in first-appearance order so KeyIdx
  // assignment is deterministic across runs and thread counts — and identical
  // whether the history was compiled whole or grown block by block. Each op's
  // KeyIdx goes straight into op_key_, so passes 2 and 3 never hash a key.
  const std::size_t block_op0 = op_key_.size();
  for (TxnIdx d = first; d < n; ++d) {
    for (const Operation& op : txns.at(d).ops()) op_key_.push_back(keys_.intern(op.key));
  }
  const std::size_t kc = keys_.size();
  writers_of_.rows.resize(kc);
  if (written_scratch_.size() < kc) written_scratch_.resize(kc, 0);

  // Pass 2: write footprints, as sorted dense arrays built from the write ops
  // (a transaction writes a key at most once — the Transaction constructor
  // enforces it — so the write ops are exactly its write set).
  {
    std::size_t at = block_op0;
    for (TxnIdx d = first; d < n; ++d) {
      const std::size_t from = write_keys_.size();
      for (const Operation& op : txns.at(d).ops()) {
        if (op.is_write()) write_keys_.push_back(op_key_[at]);
        ++at;
      }
      std::sort(write_keys_.begin() + static_cast<std::ptrdiff_t>(from),
                write_keys_.end());
      wk_begin_.push_back(static_cast<std::uint32_t>(write_keys_.size()));
    }
  }

  // Pass 3: classify every operation into a flags byte (OpClass is derived
  // from it by op_class_of, whose table mirrors the branch order of
  // ReadStateAnalysis::read_states_of exactly: phantom before internal before
  // self before unknown-writer before writer-misses-key). The writer lookup
  // sees the prefix plus the whole block, so intra-block forward references resolve;
  // only writers absent from the entire set-so-far stay unknown (and are
  // queued in `pending_` for re-resolution by a later block).
  start_ts_.resize(n);
  commit_ts_.resize(n);
  session_.resize(n);
  ids_.resize(n);
  level_tag_.resize(n, kNoLevelTag);
  std::vector<KeyIdx> touched, rk;
  std::size_t at = block_op0;  // op cursor into op_key_ (filled by pass 1)
  for (TxnIdx d = first; d < n; ++d) {
    const Transaction& t = txns.at(d);
    ids_[d] = t.id();
    start_ts_[d] = t.start_ts();
    commit_ts_[d] = t.commit_ts();
    session_[d] = t.session();
    if (const auto lvl = t.level()) {
      level_tag_[d] = static_cast<std::uint8_t>(*lvl);
      ++annotated_levels_;
    }
    if (!t.has_timestamps()) all_timestamped_ = false;

    touched.clear();
    rk.clear();
    for (std::size_t oi = 0; oi < t.ops().size(); ++oi) {
      const Operation& op = t.ops()[oi];
      const KeyIdx ck = op_key_[at++];
      if (op.is_write()) {
        op_writer_.push_back(kNoTxnIdx);
        op_flags_.push_back(kOpWrite);
        written_scratch_[ck] = 1;
        touched.push_back(ck);
        continue;
      }

      rk.push_back(ck);
      const TxnId w = op.value.writer;
      const bool positional_internal = written_scratch_[ck] != 0;
      const bool is_self = w == t.id();
      const bool is_init = w == kInitTxn;
      const std::size_t wd = is_init ? TransactionSet::npos : txns.dense_index_if(w);
      const bool known = wd != TransactionSet::npos;
      std::uint8_t m = 0;
      TxnIdx cw = kNoTxnIdx;
      if (op.value.phantom) m |= kOpPhantom;
      if (is_init) m |= kOpInitWriter;
      if (is_self) m |= kOpSelfWriter;
      if (!is_init && !known) m |= kOpUnknownWriter;
      if (positional_internal) m |= kOpPositionalInternal;
      if (known) {
        cw = static_cast<TxnIdx>(wd);
        // Compiled footprint, not txns.at(cw).writes(): pass 2 already built
        // the block's footprints, and retired writers (whose Transaction
        // payloads are stubs) keep theirs — exactly as a whole-set compile
        // would answer.
        if (!writes_key(cw, ck)) m |= kOpWriterMissesKey;
      } else if (!is_init && owned_ != nullptr) {
        pending_[w].emplace_back(d, static_cast<std::uint32_t>(oi));
      }
      op_writer_.push_back(cw);
      op_flags_.push_back(m);
    }
    // Offsets stay ABSOLUTE across retirement: the arrays may have had their
    // retired prefix front-erased, so the next absolute offset is base + size.
    op_begin_.push_back(ops_base_ + static_cast<std::uint32_t>(op_flags_.size()));
    for (KeyIdx k : touched) written_scratch_[k] = 0;

    std::sort(rk.begin(), rk.end());
    rk.erase(std::unique(rk.begin(), rk.end()), rk.end());
    read_keys_.insert(read_keys_.end(), rk.begin(), rk.end());
    rk_begin_.push_back(rk_base_ + static_cast<std::uint32_t>(read_keys_.size()));
  }

  // Pass 4: per-key writer lists (rows over KeyIdx, writers in dense order —
  // appending block writers preserves the order a whole-set compile produces).
  for (TxnIdx d = first; d < n; ++d) {
    for (KeyIdx k : write_keys(d)) writers_of_.rows[k].push_back(d);
  }

  // Candidate order (see ts_order()): splice the block's timestamped
  // candidates into the sorted timestamped prefix and append its
  // untimestamped ones — every new dense index exceeds every old one, so the
  // untimestamped region stays in dense order without re-sorting.
  std::vector<TxnIdx> timed, untimed;
  for (TxnIdx d = first; d < n; ++d) {
    (commit_ts_[d] != kNoTimestamp ? timed : untimed).push_back(d);
  }
  std::sort(timed.begin(), timed.end(),
            [this](TxnIdx a, TxnIdx b) { return ts_less(a, b); });
  ts_order_.insert(ts_order_.begin() + static_cast<std::ptrdiff_t>(ts_timed_),
                   timed.begin(), timed.end());
  // Streams usually arrive in commit order, putting the whole block after the
  // existing timestamped prefix — then the insert above already left the
  // region sorted and the O(prefix) merge (which would make per-transaction
  // appends quadratic over a long stream) can be skipped. ts_less is a total
  // order (dense tie-break), so "not after the prefix" is a strict test.
  if (!timed.empty() && ts_timed_ > 0 &&
      ts_less(timed.front(), ts_order_[ts_timed_ - 1])) {
    std::inplace_merge(
        ts_order_.begin(),
        ts_order_.begin() + static_cast<std::ptrdiff_t>(ts_timed_),
        ts_order_.begin() + static_cast<std::ptrdiff_t>(ts_timed_ + timed.size()),
        [this](TxnIdx a, TxnIdx b) { return ts_less(a, b); });
  }
  ts_timed_ += timed.size();
  ts_order_.insert(ts_order_.end(), untimed.begin(), untimed.end());
}

const CompiledDelta& CompiledHistory::extend(std::span<const Transaction> block) {
  if (owned_ == nullptr) {
    throw std::logic_error(
        "CompiledHistory::extend: a borrowing compilation is immutable");
  }
  obs::TraceSpan span("model.extend");
  obs::ScopedTimer timer(extend_seconds());
  compiled_deltas_total().inc();
  span.field("block", static_cast<std::uint64_t>(block.size()))
      .field("prefix", static_cast<std::uint64_t>(n_));
  // Validate before mutating anything so a bad block leaves the history as-is.
  // (The intra-block set is skipped for single-transaction blocks — the
  // append() streaming path — where it can't trigger.)
  std::unordered_set<TxnId> in_block;
  for (const Transaction& t : block) {
    if (t.id() == kInitTxn) {
      throw std::invalid_argument("TxnId 0 is reserved for the initial state");
    }
    if (owned_->contains(t.id()) ||
        (block.size() > 1 && !in_block.insert(t.id()).second)) {
      throw std::invalid_argument("duplicate transaction id " +
                                  crooks::to_string(t.id()));
    }
    reject_inverted_timestamps(t);
  }

  delta_ = CompiledDelta{};
  delta_.first = static_cast<TxnIdx>(n_);
  delta_.first_new_key = static_cast<KeyIdx>(keys_.size());
  for (const Transaction& t : block) owned_->append(t);
  const TxnIdx first = static_cast<TxnIdx>(n_);
  n_ = txns_->size();
  compile_block(first);
  delta_.count = static_cast<std::uint32_t>(n_ - first);

  // Re-resolve prefix reads whose observed writer arrived in this block. This
  // keys off the awaited id, not the touched keys, so even a writer that
  // never writes the awaited key is resolved (to kOpWriterMissesKey) exactly
  // as a whole-set compile would. Only the flags byte and writer change; the
  // classification follows for free because OpClass is derived from flags.
  for (TxnIdx d = first; d < n_; ++d) {
    auto it = pending_.find(id_of(d));
    if (it == pending_.end()) continue;
    for (const auto& [td, oi] : it->second) {
      const std::size_t at = op_begin_[td] - ops_base_ + oi;
      op_writer_[at] = d;
      std::uint8_t m = static_cast<std::uint8_t>(op_flags_[at] & ~kOpUnknownWriter);
      if (!writes_key(d, op_key_[at])) m |= kOpWriterMissesKey;
      op_flags_[at] = m;
      delta_.resolved.emplace_back(td, oi);
    }
    pending_.erase(it);
  }
  return delta_;
}

CompiledHistory::RetireStats CompiledHistory::retire(TxnIdx upto) {
  if (owned_ == nullptr) {
    throw std::logic_error(
        "CompiledHistory::retire: only a growable history can retire its prefix");
  }
  RetireStats st;
  upto = static_cast<TxnIdx>(std::min<std::size_t>(upto, n_));
  st.watermark = std::max(upto, retired_);
  if (upto <= retired_) return st;  // monotone; no-op below the watermark
  const TxnIdx first = retired_;

  // The SoA op arrays: reclaim [op_begin_[first], op_begin_[upto]).
  const std::size_t ops_cut = op_begin_[upto] - ops_base_;
  st.ops = ops_cut;
  drop_front(op_key_, ops_cut);
  drop_front(op_writer_, ops_cut);
  drop_front(op_flags_, ops_cut);
  ops_base_ = op_begin_[upto];

  // Read-key footprints (write footprints are retained — see writes_key()).
  drop_front(read_keys_, rk_begin_[upto] - rk_base_);
  rk_base_ = rk_begin_[upto];

  // The owned Transaction payloads (ops vector + read/write hash sets, the
  // dominant per-transaction footprint). Ids and scalars survive, so
  // duplicate appends of retired blocks are still detected exactly.
  owned_->retire_payloads(first, upto);

  // Unresolved-writer entries owned by retired readers: their op slots are
  // reclaimed, so a later extend() must not patch them. The retired reader's
  // streaming verdict was fixed at its own append; the offline engines that
  // would have consumed the re-resolution refuse retired histories anyway.
  for (auto it = pending_.begin(); it != pending_.end();) {
    std::vector<std::pair<TxnIdx, std::uint32_t>>& v = it->second;
    const auto keep = std::remove_if(
        v.begin(), v.end(), [upto](const auto& e) { return e.first < upto; });
    st.pending_purged += static_cast<std::uint64_t>(v.end() - keep);
    v.erase(keep, v.end());
    it = v.empty() ? pending_.erase(it) : std::next(it);
  }

  retired_ = upto;
  st.txns = upto - first;
  if (obs::enabled()) {
    retired_txns_total().inc(st.txns);
    retired_ops_total().inc(st.ops);
  }
  if (obs::Trace::active()) {
    obs::Trace::event("model.retire",
                      obs::TraceFields()
                          .add("watermark", static_cast<std::uint64_t>(upto))
                          .add("txns", static_cast<std::uint64_t>(st.txns))
                          .add("ops", st.ops));
  }
  return st;
}

}  // namespace crooks::model
