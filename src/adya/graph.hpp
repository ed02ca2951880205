// Direct Serialization Graphs (DSG) and Start-ordered Serialization Graphs
// (SSG) — Definitions A.4 and A.6 — built from a compiled history.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "model/compiled.hpp"

namespace crooks::adya {

enum EdgeKind : std::uint8_t {
  kWW = 1 << 0,  // directly write-depends
  kWR = 1 << 1,  // directly read-depends
  kRW = 1 << 2,  // directly anti-depends
  kSD = 1 << 3,  // start-depends (SSG only)
  kRT = 1 << 4,  // real-time order (strict serializability)
};

inline constexpr std::uint8_t kDependency = kWW | kWR;
inline constexpr std::uint8_t kAllDsg = kWW | kWR | kRW;

struct Edge {
  std::size_t from = 0;
  std::size_t to = 0;
  EdgeKind kind = kWW;
  Key key{};  // the conflicting key (meaningless for kSD / kRT)
};

/// An out-edge as the graph searches see it: target and kind only, eight
/// bytes, so a traversal streams a compact array instead of whole Edges.
struct Arc {
  std::uint32_t to = 0;
  EdgeKind kind = kWW;
};

/// Per-key install orders over a compiled history: `by_key[k]` lists the
/// dense indices of key k's installers in version order (⊥ implicit at the
/// front). This is the interned counterpart of History::version_order() —
/// building it validates the order exactly as the History constructor does.
struct InstallOrders {
  std::vector<std::vector<model::TxnIdx>> by_key;  // indexed by KeyIdx
  /// Install rank of every write, parallel to the compiled write footprint:
  /// rank[ch.write_slot(d, k)] is d's position in by_key[k]. Every committed
  /// write is ranked (the order is validated complete).
  std::vector<std::uint32_t> rank;

  /// Position of d's version of k in k's order; -1 when d does not write k.
  std::ptrdiff_t rank_of(const model::CompiledHistory& ch, model::TxnIdx d,
                         model::KeyIdx k) const {
    const std::uint32_t slot = ch.write_slot(d, k);
    if (slot == model::CompiledHistory::kNoSlot) return -1;
    return static_cast<std::ptrdiff_t>(rank[slot]);
  }
};

/// Intern and validate a client-supplied version order against a compiled
/// history. Validates as History's constructor does: completes the order for
/// keys with at most one committed writer, and throws
/// std::invalid_argument with the same messages on a multi-writer key
/// missing from the order, an order naming an unknown transaction or a
/// non-writer, a writer listed twice, or an order missing a committed
/// writer. `version_order` may be null (treated as empty). Linear in the
/// history's footprint plus the order's length.
InstallOrders compile_install_orders(
    const model::CompiledHistory& ch,
    const std::unordered_map<Key, std::vector<TxnId>>* version_order);

/// The serialization graph over the committed transactions of a history.
///
/// Nodes [0, size()) are the transactions (node i is dense index i). The
/// start-dependency and real-time edges (commit(a) < start(b)) form an
/// interval order with Θ(n²) pairs on a mostly serial history, so they are
/// never stored pairwise: add_start_edges / add_realtime_edges append a
/// *time chain* of O(n) auxiliary nodes, numbered from size() on, through
/// which a reaches b exactly when commit(a) < start(b). Reachability — and
/// so every cycle test — equals the pairwise edge set's; the time nodes
/// carry no rw edge, so cycles that count rw edges (G-SIb) are unaffected.
/// Time nodes are never shown to a caller: id_of is only defined on
/// transaction nodes, and the cycle finders report a chain hop a ⇝ b as the
/// single real pair a -> b.
class Dsg {
 public:
  /// Build from the compiled form: the read edges come straight from the
  /// precomputed per-op writer resolution (the G1a / G1b skip conditions
  /// are single flag tests), and WW edges follow the interned install
  /// orders. Edge insertion order is deterministic.
  Dsg(const model::CompiledHistory& ch, const InstallOrders& io);

  /// A graph over explicit transaction nodes and edges (every endpoint in
  /// [0, ids.size())): edge-set oracles and tests build graphs this way.
  Dsg(std::vector<TxnId> ids, std::vector<Edge> edges);

  /// Transaction nodes. Time nodes, if any, are [size(), node_count()).
  std::size_t size() const { return ids_.size(); }
  std::size_t node_count() const { return nodes_; }
  bool is_time_node(std::size_t node) const { return node >= ids_.size(); }
  /// Defined on transaction nodes only.
  TxnId id_of(std::size_t node) const { return ids_[node]; }

  /// Every edge, including the time chain's (whose endpoints may be time
  /// nodes).
  const std::vector<Edge>& edges() const { return edges_; }
  /// The edges leaving `node`, in insertion order.
  std::span<const Arc> out_edges(std::size_t node) const {
    return {out_.data() + out_begin_[node], out_.data() + out_begin_[node + 1]};
  }

  /// Make a reach b through kSD edges exactly when commit(a) < start(b), as
  /// a time chain (see the class comment). Requires timestamps on every
  /// transaction of `ch`, the history this graph was built from; returns
  /// false (and adds nothing) otherwise. O(n log n) time, O(n) edges.
  bool add_start_edges(const model::CompiledHistory& ch);

  /// Same relation as kRT edges (strict serializability's real-time order),
  /// kept a distinct kind so SSER and the SI phenomena do not interfere.
  bool add_realtime_edges(const model::CompiledHistory& ch);

  /// Is there a directed cycle using only edges whose kind is in `mask`?
  bool has_cycle(std::uint8_t mask) const;

  /// Is there a directed cycle containing exactly one edge of kind `single`
  /// and otherwise only edges in `others`? (G-Single, G-SIb; G2 when
  /// `others` includes `single`, i.e. "a cycle with at least one".) Such a
  /// cycle lies inside one strongly connected component of the graph over
  /// `others | single`, so the components are computed once (iterative
  /// Tarjan): when `others` includes `single` the answer is whether some
  /// `single` edge has both ends in one component — linear time; otherwise
  /// only the `single` edges inside a component get a BFS, confined to it.
  /// `single` must be a kind that joins transaction nodes (not kSD / kRT).
  bool cycle_with_exactly_one(EdgeKind single, std::uint8_t others) const;

  /// Transactions of one such cycle (for diagnostics), empty if none.
  std::vector<TxnId> find_cycle(std::uint8_t mask) const;

  /// Transactions of a cycle consisting of exactly one `single` edge plus
  /// edges in `others` (the G-Single / G-SIb shape), empty if none. The
  /// returned sequence starts at the `single` edge's source. The closing
  /// edge is the first in edge order that has a cycle, and the path is
  /// BFS's shortest; the component prefilter (see above) only skips edges
  /// and nodes that cannot be on such a cycle, so neither depends on it.
  std::vector<TxnId> find_cycle_with_exactly_one(EdgeKind single,
                                                 std::uint8_t others) const;

 private:
  /// Strongly connected component of every node over edges in `mask`.
  std::vector<std::uint32_t> components(std::uint8_t mask) const;

  /// BFS from `from` towards `to` over edges in `mask`, confined to the
  /// component comp[to]. `parent` (sized node_count(), all -1 on entry)
  /// receives the BFS tree; `visited` lists the nodes it set, for the
  /// caller to reset.
  bool bfs_within(std::size_t from, std::size_t to, std::uint8_t mask,
                  const std::vector<std::uint32_t>& comp,
                  std::vector<std::ptrdiff_t>& parent,
                  std::vector<std::size_t>& visited) const;

  bool add_time_chain(const model::CompiledHistory& ch, EdgeKind kind);

  /// Ids of the transaction nodes among `nodes`, in order.
  std::vector<TxnId> transactions_of(const std::vector<std::size_t>& nodes) const;

  void add_edge(std::size_t from, std::size_t to, EdgeKind kind, Key key) {
    if (from != to) edges_.push_back({from, to, kind, key});
  }
  /// Rebuild the out-edge index after edges_ grew: a stable counting sort by
  /// source, so each node's out-edges keep their insertion order.
  void index_edges();

  std::vector<TxnId> ids_;
  std::size_t nodes_ = 0;  // transaction nodes plus time nodes
  std::vector<Edge> edges_;
  // Out-edge index (CSR): out_[out_begin_[u] .. out_begin_[u+1]) are u's
  // out-edges.
  std::vector<std::size_t> out_begin_;
  std::vector<Arc> out_;
};

std::string to_string(EdgeKind k);

}  // namespace crooks::adya
