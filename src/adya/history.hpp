// Adya's history-based formalism (Appendix A of the paper; Adya's thesis).
//
// This module is the *baseline* the paper proves its state-based model
// equivalent to. A history records low-level information that clients cannot
// observe: aborted transactions, intermediate writes, and a per-key total
// version order. The equivalence theorems (1–4, 6, 10) become executable
// property tests by converting a history to client observations
// (`to_observations`) and comparing checker verdicts with phenomena verdicts
// (adya/phenomena.hpp, computed on the compiled observations).
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/ids.hpp"
#include "model/transaction.hpp"

namespace crooks::adya {

/// A specific version of a key: the `seq`-th write (1-based) that `writer`
/// performed on that key. Multiple writes of one key by one transaction are
/// legal in a history (only the final one installs a committed version).
struct Version {
  TxnId writer = kInitTxn;
  std::uint32_t seq = 1;

  friend constexpr bool operator==(Version, Version) = default;
};

inline constexpr Version kInitialVersion{kInitTxn, 1};

/// The error for a writer listed twice in one key's version order. A writer
/// installs one version per key, so a repeat is malformed input, never a
/// cycle; History::validate and adya::compile_install_orders both reject it
/// with this message.
inline std::string repeated_installer_message(Key k, TxnId id) {
  return "version order lists " + crooks::to_string(id) + " twice for " +
         crooks::to_string(k);
}

enum class EventType : std::uint8_t { kRead, kWrite };

struct Event {
  EventType type = EventType::kRead;
  Key key{};
  Version version{};  // read: the version observed; write: {self, seq}
};

/// One transaction of a history, including its fate (committed or aborted)
/// and the scheduler's real start/commit points (used for start-dependency
/// edges in the SSG and for the timed SI family).
struct HistTxn {
  TxnId id{};
  bool committed = true;
  SessionId session = kNoSession;
  SiteId site{0};
  Timestamp start_ts = kNoTimestamp;
  Timestamp commit_ts = kNoTimestamp;
  /// Isolation level the client declared for this transaction, if any
  /// (carried into the observations' `level=` annotation). Inert to the
  /// phenomena analyses — Adya's definitions are level-parametric already.
  std::optional<ct::IsolationLevel> level;
  std::vector<Event> events;

  /// Sequence number of this transaction's final write to `k`, or nullopt.
  std::optional<std::uint32_t> final_write_seq(Key k) const {
    std::optional<std::uint32_t> seq;
    for (const Event& e : events) {
      if (e.type == EventType::kWrite && e.key == k) seq = e.version.seq;
    }
    return seq;
  }

  bool writes(Key k) const { return final_write_seq(k).has_value(); }
};

/// Hash of a (transaction, key) pair: one write of one transaction.
struct TxnKeyHash {
  std::size_t operator()(const std::pair<TxnId, Key>& p) const {
    return std::hash<TxnId>{}(p.first) * 0x9e3779b97f4a7c15ULL ^
           std::hash<Key>{}(p.second);
  }
};

/// A history: transactions (committed and aborted) plus the total version
/// order << on committed object versions (Definition A.1). The initial ⊥
/// version of every key is implicit at the front of each key's order.
class History {
 public:
  History() = default;
  History(std::vector<HistTxn> txns,
          std::unordered_map<Key, std::vector<TxnId>> version_order)
      : txns_(std::move(txns)), version_order_(std::move(version_order)) {
    for (std::size_t i = 0; i < txns_.size(); ++i) {
      if (!index_.emplace(txns_[i].id, i).second) {
        throw std::invalid_argument("duplicate transaction in history");
      }
    }
    validate();
  }

  const std::vector<HistTxn>& txns() const { return txns_; }
  const HistTxn& by_id(TxnId id) const { return txns_.at(index_.at(id)); }
  bool contains(TxnId id) const { return index_.contains(id); }

  /// Committed installers of `k`, in version order (⊥ implicit at front).
  const std::vector<TxnId>& installers(Key k) const {
    static const std::vector<TxnId> kEmpty;
    auto it = version_order_.find(k);
    return it == version_order_.end() ? kEmpty : it->second;
  }

  const std::unordered_map<Key, std::vector<TxnId>>& version_order() const {
    return version_order_;
  }

 private:
  void validate() const {
    // Every (key, installer) pair, so completeness below is one probe per
    // write instead of a scan of the key's whole order.
    std::unordered_set<std::pair<TxnId, Key>, TxnKeyHash> listed;
    for (const auto& [key, order] : version_order_) {
      for (TxnId id : order) {
        auto it = index_.find(id);
        if (it == index_.end()) {
          throw std::invalid_argument("version order names unknown transaction");
        }
        const HistTxn& t = txns_[it->second];
        if (!t.committed || !t.writes(key)) {
          throw std::invalid_argument(
              "version order must contain exactly the committed writers of the key");
        }
        if (!listed.emplace(id, key).second) {
          throw std::invalid_argument(repeated_installer_message(key, id));
        }
      }
    }
    // Completeness: << is a *total* order on committed versions (Def. A.1),
    // so every committed final writer of a key must appear in its order.
    for (const HistTxn& t : txns_) {
      if (!t.committed) continue;
      for (const Event& e : t.events) {
        if (e.type != EventType::kWrite) continue;
        if (!listed.contains({t.id, e.key})) {
          throw std::invalid_argument("version order misses a committed writer of " +
                                      crooks::to_string(e.key));
        }
      }
    }
  }

  std::vector<HistTxn> txns_;
  std::unordered_map<Key, std::vector<TxnId>> version_order_;
  std::unordered_map<TxnId, std::size_t> index_;
};

/// Fluent builder. Tracks per-transaction write sequence numbers and, unless
/// a version order is supplied explicitly, derives one from commit timestamps
/// (the usual instantiation: install order = commit order).
class HistoryBuilder {
 public:
  HistoryBuilder& begin(TxnId id, Timestamp start = kNoTimestamp,
                        SessionId session = kNoSession, SiteId site = SiteId{0}) {
    HistTxn t;
    t.id = id;
    t.start_ts = start;
    t.session = session;
    t.site = site;
    open_.emplace(id, std::move(t));
    return *this;
  }
  HistoryBuilder& begin(std::uint64_t id, Timestamp start = kNoTimestamp) {
    return begin(TxnId{id}, start);
  }

  HistoryBuilder& read(TxnId id, Key k, Version v) {
    open_.at(id).events.push_back({EventType::kRead, k, v});
    return *this;
  }
  HistoryBuilder& read(std::uint64_t id, std::uint64_t k, std::uint64_t writer,
                       std::uint32_t seq = 1) {
    return read(TxnId{id}, Key{k}, Version{TxnId{writer}, seq});
  }

  HistoryBuilder& write(TxnId id, Key k) {
    HistTxn& t = open_.at(id);
    const std::uint32_t seq = ++write_seq_[{id, k}];
    t.events.push_back({EventType::kWrite, k, Version{id, seq}});
    return *this;
  }
  HistoryBuilder& write(std::uint64_t id, std::uint64_t k) {
    return write(TxnId{id}, Key{k});
  }

  HistoryBuilder& commit(TxnId id, Timestamp commit = kNoTimestamp) {
    HistTxn t = std::move(open_.at(id));
    open_.erase(id);
    t.committed = true;
    t.commit_ts = commit;
    done_.push_back(std::move(t));
    return *this;
  }
  HistoryBuilder& commit(std::uint64_t id, Timestamp ts = kNoTimestamp) {
    return commit(TxnId{id}, ts);
  }

  HistoryBuilder& abort(TxnId id) {
    HistTxn t = std::move(open_.at(id));
    open_.erase(id);
    t.committed = false;
    done_.push_back(std::move(t));
    return *this;
  }
  HistoryBuilder& abort(std::uint64_t id) { return abort(TxnId{id}); }

  /// Override the derived version order of one key.
  HistoryBuilder& order(Key k, std::vector<TxnId> installers) {
    explicit_order_[k] = std::move(installers);
    return *this;
  }

  History build() const {
    if (!open_.empty()) throw std::logic_error("unfinished transactions in builder");
    std::unordered_map<Key, std::vector<TxnId>> vo = explicit_order_;
    // Derive the order of keys not explicitly ordered: committed writers
    // sorted by commit timestamp, falling back to completion order.
    std::unordered_map<Key, std::vector<const HistTxn*>> writers;
    for (const HistTxn& t : done_) {
      if (!t.committed) continue;
      for (const Event& e : t.events) {
        if (e.type == EventType::kWrite && !vo.contains(e.key)) {
          auto& ws = writers[e.key];
          if (ws.empty() || ws.back() != &t) ws.push_back(&t);
        }
      }
    }
    for (auto& [key, ws] : writers) {
      std::stable_sort(ws.begin(), ws.end(), [](const HistTxn* a, const HistTxn* b) {
        if (a->commit_ts == kNoTimestamp || b->commit_ts == kNoTimestamp) return false;
        return a->commit_ts < b->commit_ts;
      });
      auto& order = vo[key];
      for (const HistTxn* t : ws) order.push_back(t->id);
    }
    return History(std::vector<HistTxn>(done_), std::move(vo));
  }

 private:
  std::unordered_map<TxnId, HistTxn> open_;
  std::vector<HistTxn> done_;
  std::unordered_map<std::pair<TxnId, Key>, std::uint32_t, TxnKeyHash> write_seq_;
  std::unordered_map<Key, std::vector<TxnId>> explicit_order_;
};

/// Project a history onto what clients can observe (§3): committed
/// transactions only; writes collapse to their final value; a read of an
/// aborted transaction's write keeps its writer id (which is then absent
/// from the set — G1a); a read of a non-final write becomes a phantom value
/// (G1b). This is the bridge both equivalence tests and the store use; the
/// phenomena of `h` are the compiled phenomena of this projection under
/// `h.version_order()`.
model::TransactionSet to_observations(const History& h);

}  // namespace crooks::adya
