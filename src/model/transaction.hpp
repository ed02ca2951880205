// Transactions of the state-based model (§3).
//
// A transaction T is a tuple (Σ_T, →to): a totally ordered set of read and
// write operations. We additionally carry the attributes other isolation
// levels need: the time oracle's start/commit timestamps (strict
// serializability, the Strong/Session/ANSI SI family), a session id
// (Session SI / PC-SI), and an origin site (PSI).
#pragma once

#include <algorithm>
#include <cstddef>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "committest/levels.hpp"
#include "common/ids.hpp"
#include "model/operation.hpp"

namespace crooks::model {

/// The input-contract error for a transaction that commits before it starts:
/// it would real-time-precede itself, so every timed level would refute it
/// on malformed input. The observation parser and CompiledHistory reject it
/// in these words.
inline std::string inverted_timestamps_message(Timestamp start, Timestamp commit) {
  return "start=" + std::to_string(start) + " is after commit=" + std::to_string(commit);
}

class Transaction {
 public:
  Transaction() = default;
  Transaction(TxnId id, std::vector<Operation> ops, SessionId session = kNoSession,
              SiteId site = SiteId{0}, Timestamp start = kNoTimestamp,
              Timestamp commit = kNoTimestamp,
              std::optional<ct::IsolationLevel> level = std::nullopt)
      : id_(id),
        session_(session),
        site_(site),
        start_(start),
        commit_(commit),
        level_(level),
        ops_(std::move(ops)) {
    for (const Operation& op : ops_) {
      if (op.is_write()) {
        if (!write_set_.insert(op.key).second) {
          throw std::invalid_argument("transaction " + crooks::to_string(id_) +
                                      " writes key " + crooks::to_string(op.key) +
                                      " more than once");
        }
      } else {
        read_set_.insert(op.key);
      }
    }
  }

  TxnId id() const { return id_; }
  SessionId session() const { return session_; }
  SiteId site() const { return site_; }

  /// Real-time timestamps from the time oracle O; kNoTimestamp when the
  /// client-centric observation carries no timing information.
  Timestamp start_ts() const { return start_; }
  Timestamp commit_ts() const { return commit_; }
  bool has_timestamps() const {
    return start_ != kNoTimestamp && commit_ != kNoTimestamp;
  }

  /// The isolation level this transaction was declared to run at (the
  /// observation format's `level=` annotation), when the client recorded one.
  /// Annotations are inert to every global-level API: only the
  /// ct::LevelAssignment entry points consult them.
  std::optional<ct::IsolationLevel> level() const { return level_; }

  const std::vector<Operation>& ops() const { return ops_; }
  const std::unordered_set<Key>& read_set() const { return read_set_; }
  const std::unordered_set<Key>& write_set() const { return write_set_; }

  bool writes(Key k) const { return write_set_.contains(k); }
  bool reads(Key k) const { return read_set_.contains(k); }
  bool is_read_only() const { return write_set_.empty(); }

  /// T1 <_s T2 iff T1.commit < T2.start (§3). False when timestamps are
  /// missing: without the oracle there is no real-time precedence.
  friend bool time_precedes(const Transaction& a, const Transaction& b) {
    return a.commit_ts() != kNoTimestamp && b.start_ts() != kNoTimestamp &&
           a.commit_ts() < b.start_ts();
  }

 private:
  TxnId id_{};
  SessionId session_ = kNoSession;
  SiteId site_{};
  Timestamp start_ = kNoTimestamp;
  Timestamp commit_ = kNoTimestamp;
  std::optional<ct::IsolationLevel> level_;
  std::vector<Operation> ops_;
  std::unordered_set<Key> read_set_;
  std::unordered_set<Key> write_set_;
};

/// Fluent builder for tests, examples, and generators.
class TxnBuilder {
 public:
  explicit TxnBuilder(TxnId id) : id_(id) {}
  explicit TxnBuilder(std::uint64_t id) : id_(TxnId{id}) {}

  TxnBuilder& read(Key k, TxnId observed_writer) {
    ops_.push_back(Operation::read(k, observed_writer));
    return *this;
  }
  TxnBuilder& read(std::uint64_t k, std::uint64_t observed_writer) {
    return read(Key{k}, TxnId{observed_writer});
  }
  TxnBuilder& read_intermediate(Key k, TxnId observed_writer) {
    ops_.push_back(Operation::read_intermediate(k, observed_writer));
    return *this;
  }
  TxnBuilder& write(Key k) {
    ops_.push_back(Operation::write(k, id_));
    return *this;
  }
  TxnBuilder& write(std::uint64_t k) { return write(Key{k}); }

  TxnBuilder& session(SessionId s) {
    session_ = s;
    return *this;
  }
  TxnBuilder& site(SiteId s) {
    site_ = s;
    return *this;
  }
  TxnBuilder& at(Timestamp start, Timestamp commit) {
    start_ = start;
    commit_ = commit;
    return *this;
  }
  TxnBuilder& level(ct::IsolationLevel l) {
    level_ = l;
    return *this;
  }

  Transaction build() const {
    return Transaction(id_, ops_, session_, site_, start_, commit_, level_);
  }

 private:
  TxnId id_;
  SessionId session_ = kNoSession;
  SiteId site_{0};
  Timestamp start_ = kNoTimestamp;
  Timestamp commit_ = kNoTimestamp;
  std::optional<ct::IsolationLevel> level_;
  std::vector<Operation> ops_;
};

/// An indexable collection of committed transactions — the set 𝒯 over which
/// executions are defined. Provides a dense index so analyses can use flat
/// arrays instead of hash maps on TxnId. Append-only: transactions are never
/// removed or reordered, so dense indices are stable forever (the growable
/// CompiledHistory and the streaming OnlineChecker rely on this).
class TransactionSet {
 public:
  TransactionSet() = default;
  explicit TransactionSet(std::vector<Transaction> txns) : txns_(std::move(txns)) {
    index_.reserve(txns_.size());
    for (std::size_t i = 0; i < txns_.size(); ++i) {
      TxnId id = txns_[i].id();
      if (id == kInitTxn) {
        throw std::invalid_argument("TxnId 0 is reserved for the initial state");
      }
      if (!index_.emplace(id, i).second) {
        throw std::invalid_argument("duplicate transaction id " + crooks::to_string(id));
      }
    }
  }

  /// Append one committed transaction (streaming construction — used by the
  /// growable CompiledHistory). Same validation as the constructor.
  void append(Transaction t) {
    const TxnId id = t.id();
    if (id == kInitTxn) {
      throw std::invalid_argument("TxnId 0 is reserved for the initial state");
    }
    if (!index_.emplace(id, txns_.size()).second) {
      throw std::invalid_argument("duplicate transaction id " + crooks::to_string(id));
    }
    txns_.push_back(std::move(t));
  }

  std::size_t size() const { return txns_.size(); }
  bool empty() const { return txns_.empty(); }

  const Transaction& at(std::size_t dense_index) const { return txns_.at(dense_index); }
  const Transaction& by_id(TxnId id) const { return txns_.at(dense_index_of(id)); }

  bool contains(TxnId id) const { return index_.contains(id); }

  std::size_t dense_index_of(TxnId id) const {
    auto it = index_.find(id);
    if (it == index_.end()) {
      throw std::out_of_range("unknown transaction " + crooks::to_string(id));
    }
    return it->second;
  }

  /// npos-returning variant: one hash probe for callers on a miss-tolerant
  /// path (contains() + dense_index_of() would probe twice).
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t dense_index_if(TxnId id) const {
    auto it = index_.find(id);
    return it == index_.end() ? npos : it->second;
  }

  auto begin() const { return txns_.begin(); }
  auto end() const { return txns_.end(); }

  /// Epoch retirement (growable CompiledHistory only): replace the payloads
  /// of transactions [first, upto) with id-and-scalars stubs — the ops
  /// vector and read/write sets, which dominate a Transaction's footprint,
  /// are released; id, session, site, timestamps and level survive. The
  /// id→dense index is NOT touched, so dense indices stay stable and
  /// duplicate detection over retired ids keeps working forever. Callers
  /// that need a retired transaction's footprint must use the compiled
  /// history's retained columns (write_keys / writes_key), never at().
  void retire_payloads(std::size_t first, std::size_t upto) {
    upto = std::min(upto, txns_.size());
    for (std::size_t i = first; i < upto; ++i) {
      Transaction& t = txns_[i];
      t = Transaction(t.id(), {}, t.session(), t.site(), t.start_ts(),
                      t.commit_ts(), t.level());
    }
  }

 private:
  std::vector<Transaction> txns_;
  std::unordered_map<TxnId, std::size_t> index_;
};

}  // namespace crooks::model
