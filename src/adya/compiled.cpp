// The Adya layer's inputs straight from model::CompiledHistory: interned
// install orders, the DSG, and the time chain that stands in for the
// start-dependency / real-time edge sets. Nothing here lifts observations
// into an Adya History.
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "adya/graph.hpp"
#include "adya/history.hpp"

namespace crooks::adya {

namespace {

/// Does some read observe `id` as an unknown (non-member) writer? In Adya's
/// terms such a writer is an *aborted* transaction (a store History records
/// it as one), so an order naming it lists a non-committed writer — the
/// error History's validation gives — rather than an unknown transaction.
bool is_dangling_writer(const model::CompiledHistory& ch, TxnId id) {
  for (model::TxnIdx d = 0; d < ch.size(); ++d) {
    const model::OpsView cops = ch.ops(d);
    const auto& ops = ch.txns().at(d).ops();
    for (std::size_t i = 0; i < cops.size(); ++i) {
      if ((cops.flags(i) & model::kOpUnknownWriter) != 0 &&
          ops[i].value.writer == id) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

InstallOrders compile_install_orders(
    const model::CompiledHistory& ch,
    const std::unordered_map<Key, std::vector<TxnId>>* version_order) {
  const model::TransactionSet& txns = ch.txns();
  constexpr std::uint32_t kUnranked = ~std::uint32_t{0};
  InstallOrders io;
  io.by_key.resize(ch.key_count());
  io.rank.assign(ch.write_slot_count(), kUnranked);
  std::vector<char> covered(ch.key_count(), 0);

  // One pass over the explicit entries: intern each id with one probe and
  // rank each write (History::validate part one). The first bad entry is
  // held back, not thrown, so a multi-writer key missing from the order
  // still reports first, as History's validation does.
  std::string bad_entry;
  if (version_order != nullptr) {
    for (const auto& [key, order] : *version_order) {
      const model::KeyIdx k = ch.keys().find(key);
      if (k != model::kNoKeyIdx) covered[k] = 1;
      if (!bad_entry.empty()) continue;
      std::vector<model::TxnIdx> interned;
      interned.reserve(order.size());
      for (TxnId id : order) {
        const std::size_t d = txns.dense_index_if(id);
        if (d == model::TransactionSet::npos) {
          bad_entry = is_dangling_writer(ch, id)
                          ? "version order must contain exactly the committed "
                            "writers of the key"
                          : "version order names unknown transaction";
          break;
        }
        const std::uint32_t slot =
            k == model::kNoKeyIdx
                ? model::CompiledHistory::kNoSlot
                : ch.write_slot(static_cast<model::TxnIdx>(d), k);
        if (slot == model::CompiledHistory::kNoSlot) {
          bad_entry =
              "version order must contain exactly the committed writers of the key";
          break;
        }
        if (io.rank[slot] != kUnranked) {
          bad_entry = repeated_installer_message(key, id);
          break;
        }
        io.rank[slot] = static_cast<std::uint32_t>(interned.size());
        interned.push_back(static_cast<model::TxnIdx>(d));
      }
      if (bad_entry.empty() && k != model::kNoKeyIdx) io.by_key[k] = std::move(interned);
    }
  }

  // Complete the order for keys with at most one committed writer; a
  // multi-writer key must be covered.
  for (model::KeyIdx k = 0; k < ch.key_count(); ++k) {
    const auto writers = ch.writers_of(k);
    if (writers.empty() || covered[k] != 0) continue;
    if (writers.size() > 1) {
      throw std::invalid_argument("version order missing for multi-writer key " +
                                  crooks::to_string(ch.keys().key_of(k)));
    }
    io.by_key[k].assign(1, writers.front());
    io.rank[ch.write_slot(writers.front(), k)] = 0;
  }
  if (!bad_entry.empty()) throw std::invalid_argument(bad_entry);

  // Completeness: << is a *total* order on committed versions (Def. A.1),
  // so every committed final writer of a key must appear in its order.
  for (model::TxnIdx d = 0; d < ch.size(); ++d) {
    for (model::KeyIdx k : ch.write_keys(d)) {
      if (io.rank[ch.write_slot(d, k)] == kUnranked) {
        throw std::invalid_argument("version order misses a committed writer of " +
                                    crooks::to_string(ch.keys().key_of(k)));
      }
    }
  }
  return io;
}

Dsg::Dsg(const model::CompiledHistory& ch, const InstallOrders& io) {
  const std::size_t n = ch.size();
  ids_ = ch.ids();  // node i is dense index i
  nodes_ = n;

  // Room for the ww edges plus at most one wr and one rw per read.
  std::size_t bound = 0;
  for (const std::vector<model::TxnIdx>& inst : io.by_key) {
    if (!inst.empty()) bound += inst.size() - 1;
  }
  for (model::TxnIdx d = 0; d < n; ++d) {
    bound += 2 * (ch.op_count(d) - ch.write_keys(d).size());
  }
  edges_.reserve(bound);

  // Write-dependencies: consecutive installed versions (Definition A.2).
  for (model::KeyIdx k = 0; k < io.by_key.size(); ++k) {
    const std::vector<model::TxnIdx>& inst = io.by_key[k];
    for (std::size_t i = 0; i + 1 < inst.size(); ++i) {
      add_edge(inst[i], inst[i + 1], kWW, ch.keys().key_of(k));
    }
  }

  // Read- and anti-dependencies. Only reads of *installed* versions create
  // DSG edges; the dirty / intermediate skips are precomputed flags.
  for (model::TxnIdx d = 0; d < n; ++d) {
    const model::OpsView cops = ch.ops(d);
    for (std::size_t i = 0; i < cops.size(); ++i) {
      const std::uint8_t m = cops.flags(i);
      if ((m & (model::kOpWrite | model::kOpSelfWriter)) != 0) continue;
      const model::KeyIdx key = cops.key(i);
      const std::vector<model::TxnIdx>& inst = io.by_key[key];
      if ((m & model::kOpInitWriter) != 0) {
        // Read of ⊥: anti-depends on the first installer of the key.
        if (!inst.empty()) add_edge(d, inst.front(), kRW, ch.keys().key_of(key));
        continue;
      }
      if ((m & model::kOpUnknownWriter) != 0) continue;  // G1a
      if ((m & (model::kOpPhantom | model::kOpWriterMissesKey)) != 0) {
        continue;  // G1b: observed version is not the writer's final one
      }
      // The flags guarantee w writes the key, so it holds a rank.
      const model::TxnIdx w = cops.writer(i);
      add_edge(w, d, kWR, ch.keys().key_of(key));
      // Anti-dependency to the installer of the *next* version, if any.
      const std::size_t next = static_cast<std::size_t>(io.rank_of(ch, w, key)) + 1;
      if (next < inst.size()) add_edge(d, inst[next], kRW, ch.keys().key_of(key));
    }
  }
  index_edges();
}

bool Dsg::add_start_edges(const model::CompiledHistory& ch) {
  return add_time_chain(ch, kSD);
}

bool Dsg::add_realtime_edges(const model::CompiledHistory& ch) {
  return add_time_chain(ch, kRT);
}

bool Dsg::add_time_chain(const model::CompiledHistory& ch, EdgeKind kind) {
  if (!ch.all_timestamped()) return false;
  // Time node base + i stands just after the i-th commit of ts_order(), the
  // commit-sorted sequence: a enters the chain at its own commit, the chain
  // runs forward in commit order, and b leaves it at the last commit
  // strictly before start(b). So a ⇝ b ⟺ rank(a) < rt_prefix(start(b)) ⟺
  // commit(a) < start(b); an equal commit and start gives no path, and
  // start(a) ≤ commit(a) (CompiledHistory's input contract) keeps every
  // transaction off a path to itself.
  const std::size_t n = ch.size();
  const std::vector<model::TxnIdx>& by_commit = ch.ts_order();
  const std::size_t base = nodes_;
  nodes_ += n;
  edges_.reserve(edges_.size() + 3 * n);
  for (std::size_t i = 0; i < n; ++i) {
    edges_.push_back({by_commit[i], base + i, kind, Key{}});
    if (i + 1 < n) edges_.push_back({base + i, base + i + 1, kind, Key{}});
  }
  for (model::TxnIdx b = 0; b < n; ++b) {
    const std::size_t before = ch.rt_prefix(ch.start_ts(b));
    if (before > 0) edges_.push_back({base + before - 1, b, kind, Key{}});
  }
  index_edges();
  return true;
}

}  // namespace crooks::adya
