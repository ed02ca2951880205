// Pairwise Adya oracle, for tests only.
//
// This is the History-based Adya implementation as it ran before phenomena
// moved onto the compiled form: the DSG built from an adya::History by
// hashing ids and scanning install orders, and the start-dependency /
// real-time relations materialized as every pair with commit(a) < start(b)
// (Θ(n²) edges). It is slow on purpose and shares nothing with the
// compiled construction except the graph searches (adya::Dsg over an
// explicit edge list), so it is the reference the compiled phenomena,
// explanations and time chain are compared against.
//
// `Lifted` is the other direction: a store History projected onto client
// observations and compiled with its install order — how a test that starts
// from a History reaches the one compiled Adya path.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "adya/graph.hpp"
#include "adya/history.hpp"
#include "adya/phenomena.hpp"
#include "model/compiled.hpp"

namespace crooks::adya::pairwise {

/// Position of `writer` in the (implicitly ⊥-headed) version order of a key:
/// -1 for the initial version, index otherwise, nullopt if absent.
inline std::optional<std::ptrdiff_t> version_pos(const std::vector<TxnId>& installers,
                                                 TxnId writer) {
  if (writer == kInitTxn) return -1;
  auto it = std::find(installers.begin(), installers.end(), writer);
  if (it == installers.end()) return std::nullopt;
  return it - installers.begin();
}

/// Node of every committed transaction of `h`, in History order.
inline std::unordered_map<TxnId, std::size_t> nodes_of(const History& h) {
  std::unordered_map<TxnId, std::size_t> node;
  for (const HistTxn& t : h.txns()) {
    if (t.committed) node.emplace(t.id, node.size());
  }
  return node;
}

inline std::vector<TxnId> committed_ids(const History& h) {
  std::vector<TxnId> ids;
  for (const HistTxn& t : h.txns()) {
    if (t.committed) ids.push_back(t.id);
  }
  return ids;
}

/// The DSG's ww / wr / rw edges (Definition A.4).
inline std::vector<Edge> dsg_edges(const History& h) {
  const std::unordered_map<TxnId, std::size_t> node = nodes_of(h);
  std::vector<Edge> edges;
  auto add_edge = [&](std::size_t from, std::size_t to, EdgeKind kind, Key key) {
    if (from != to) edges.push_back({from, to, kind, key});
  };

  // Write-dependencies: consecutive installed versions (Definition A.2).
  for (const auto& [key, installers] : h.version_order()) {
    for (std::size_t i = 0; i + 1 < installers.size(); ++i) {
      add_edge(node.at(installers[i]), node.at(installers[i + 1]), kWW, key);
    }
  }

  // Read- and anti-dependencies.
  for (const HistTxn& t : h.txns()) {
    if (!t.committed) continue;
    const std::size_t reader = node.at(t.id);
    for (const Event& e : t.events) {
      if (e.type != EventType::kRead) continue;
      const TxnId w = e.version.writer;
      if (w == t.id) continue;  // internal read: no inter-transaction conflict
      // Only reads of *installed* versions create DSG edges; dirty and
      // intermediate reads are the G1a/G1b phenomena, detected separately.
      const std::vector<TxnId>& installers = h.installers(e.key);
      if (w != kInitTxn) {
        if (!h.contains(w) || !h.by_id(w).committed) continue;             // G1a
        if (h.by_id(w).final_write_seq(e.key) != e.version.seq) continue;  // G1b
        const auto pos = version_pos(installers, w);
        if (!pos.has_value()) continue;
        add_edge(node.at(w), reader, kWR, e.key);
        // Anti-dependency to the installer of the *next* version, if any.
        const std::size_t next = static_cast<std::size_t>(*pos) + 1;
        if (next < installers.size()) {
          add_edge(reader, node.at(installers[next]), kRW, e.key);
        }
      } else {
        // Read of ⊥: anti-depends on the first installer of the key.
        if (!installers.empty()) {
          add_edge(reader, node.at(installers.front()), kRW, e.key);
        }
      }
    }
  }
  return edges;
}

inline Dsg dsg(const History& h) { return Dsg(committed_ids(h), dsg_edges(h)); }

/// Every committed pair with commit(a) < start(b), as `kind` edges; nullopt
/// when a committed transaction lacks a timestamp.
inline std::optional<std::vector<Edge>> time_pairs(const History& h, EdgeKind kind) {
  for (const HistTxn& t : h.txns()) {
    if (t.committed && (t.start_ts == kNoTimestamp || t.commit_ts == kNoTimestamp)) {
      return std::nullopt;
    }
  }
  const std::unordered_map<TxnId, std::size_t> node = nodes_of(h);
  std::vector<Edge> edges;
  for (const HistTxn& a : h.txns()) {
    if (!a.committed) continue;
    for (const HistTxn& b : h.txns()) {
      if (!b.committed || a.id == b.id) continue;
      if (a.commit_ts < b.start_ts) {
        edges.push_back({node.at(a.id), node.at(b.id), kind, Key{}});
      }
    }
  }
  return edges;
}

/// The DSG plus every pairwise `kind` edge (kSD: the SSG; kRT: the
/// real-time graph); nullopt without timestamps.
inline std::optional<Dsg> with_time_pairs(const History& h, EdgeKind kind) {
  std::optional<std::vector<Edge>> pairs = time_pairs(h, kind);
  if (!pairs.has_value()) return std::nullopt;
  std::vector<Edge> edges = dsg_edges(h);
  edges.insert(edges.end(), pairs->begin(), pairs->end());
  return Dsg(committed_ids(h), std::move(edges));
}

/// Position of a version's writer in the key's install order; -1 = initial.
inline std::optional<std::ptrdiff_t> install_pos(const History& h, Key k, TxnId writer) {
  return version_pos(h.installers(k), writer);
}

inline bool detect_g1a(const History& h) {
  for (const HistTxn& t : h.txns()) {
    if (!t.committed) continue;
    for (const Event& e : t.events) {
      if (e.type != EventType::kRead) continue;
      const TxnId w = e.version.writer;
      if (w == kInitTxn || w == t.id) continue;
      if (!h.contains(w) || !h.by_id(w).committed) return true;
    }
  }
  return false;
}

inline bool detect_g1b(const History& h) {
  for (const HistTxn& t : h.txns()) {
    if (!t.committed) continue;
    for (const Event& e : t.events) {
      if (e.type != EventType::kRead) continue;
      const TxnId w = e.version.writer;
      if (w == kInitTxn || w == t.id) continue;
      if (!h.contains(w) || !h.by_id(w).committed) continue;  // that's G1a
      if (h.by_id(w).final_write_seq(e.key) != e.version.seq) return true;
    }
  }
  return false;
}

// Fractured reads (Appendix B.1): T_j reads x_m written by T_i; T_i also
// (finally) wrote y; T_j reads a version of y strictly older than T_i's.
inline bool detect_fractured(const History& h) {
  for (const HistTxn& t : h.txns()) {
    if (!t.committed) continue;
    for (const Event& r1 : t.events) {
      if (r1.type != EventType::kRead) continue;
      const TxnId wi = r1.version.writer;
      if (wi == kInitTxn || wi == t.id) continue;
      if (!h.contains(wi) || !h.by_id(wi).committed) continue;
      const HistTxn& writer = h.by_id(wi);
      if (writer.final_write_seq(r1.key) != r1.version.seq) continue;
      for (const Event& r2 : t.events) {
        if (r2.type != EventType::kRead || r2.version.writer == t.id) continue;
        if (!writer.writes(r2.key)) continue;
        const auto read_pos = install_pos(h, r2.key, r2.version.writer);
        const auto wi_pos = install_pos(h, r2.key, wi);
        if (!read_pos.has_value() || !wi_pos.has_value()) continue;
        if (*read_pos < *wi_pos) return true;
      }
    }
  }
  return false;
}

inline Phenomena detect(const History& h) {
  Phenomena p;
  p.g1a = detect_g1a(h);
  p.g1b = detect_g1b(h);
  p.fractured = detect_fractured(h);

  const Dsg g = dsg(h);
  p.g0 = g.has_cycle(kWW);
  p.g1c = g.has_cycle(kDependency);
  p.g2 = g.cycle_with_exactly_one(kRW, kAllDsg);
  p.g_single = g.cycle_with_exactly_one(kRW, kDependency);

  if (const std::optional<Dsg> ssg = with_time_pairs(h, kSD)) {
    // G-SIa: a ww/wr edge without a corresponding start-dependency edge.
    bool sia = false;
    for (const Edge& e : ssg->edges()) {
      if (e.kind != kWW && e.kind != kWR) continue;
      const HistTxn& a = h.by_id(ssg->id_of(e.from));
      const HistTxn& b = h.by_id(ssg->id_of(e.to));
      if (!(a.commit_ts < b.start_ts)) {
        sia = true;
        break;
      }
    }
    p.g_si_a = sia;
    p.g_si_b = ssg->cycle_with_exactly_one(kRW, kDependency | kSD);
  }

  if (const std::optional<Dsg> rt = with_time_pairs(h, kRT)) {
    p.rt_cycle = rt->has_cycle(kAllDsg | kRT);
  }
  return p;
}

inline Verdict satisfies(const History& h, ct::IsolationLevel level) {
  return adya::satisfies(detect(h), level);
}

inline std::string render_cycle(const std::vector<TxnId>& cycle) {
  std::string out;
  for (TxnId id : cycle) out += crooks::to_string(id) + " -> ";
  if (!cycle.empty()) out += crooks::to_string(cycle.front());
  return out;
}

inline std::string explain_violation(const History& h, ct::IsolationLevel level) {
  const Phenomena p = detect(h);
  if (adya::satisfies(p, level) != Verdict::kViolated) return {};

  using L = ct::IsolationLevel;
  const Dsg g = dsg(h);

  // G1a / G1b apply to every level at or above read committed.
  if (level != L::kReadUncommitted) {
    if (p.g1a) return "G1a (dirty read): a committed transaction observed an aborted write";
    if (p.g1b) return "G1b (intermediate read): a committed transaction observed a non-final write";
    if (p.g1c) {
      return "G1c (circular information flow): " + render_cycle(g.find_cycle(kDependency));
    }
  }

  switch (level) {
    case L::kReadUncommitted:
      return "G0 (write cycle): " + render_cycle(g.find_cycle(kWW));
    case L::kReadAtomic:
      return "fractured read: a transaction observed part of another's atomic write set";
    case L::kPSI:
      return "G-Single (single anti-dependency cycle): " +
             render_cycle(g.find_cycle_with_exactly_one(kRW, kDependency));
    case L::kAnsiSI: {
      if (p.g_si_a.value_or(false)) {
        return "G-SIa (interference): a dependency edge without a start-dependency edge";
      }
      return "G-SIb (missed effects): " +
             render_cycle(with_time_pairs(h, kSD)->find_cycle_with_exactly_one(
                 kRW, kDependency | kSD));
    }
    case L::kSerializable:
      return "G2 (anti-dependency cycle): " +
             render_cycle(g.find_cycle_with_exactly_one(kRW, kAllDsg));
    case L::kStrictSerializable: {
      if (p.g2) {
        return "G2 (anti-dependency cycle): " +
               render_cycle(g.find_cycle_with_exactly_one(kRW, kAllDsg));
      }
      return "real-time violation: " +
             render_cycle(with_time_pairs(h, kRT)->find_cycle(kAllDsg | kRT));
    }
    default:
      return "violated";
  }
}

/// Lift client observations into a history, given an authoritative per-key
/// install order. Keys absent from `version_order` must have at most one
/// committed writer (their order is then implied); otherwise throws.
/// Phantom reads become reads of a non-final version (G1b); reads naming an
/// unknown writer become reads of an aborted transaction's write (G1a).
inline History from_observations(
    const model::TransactionSet& txns,
    const std::unordered_map<Key, std::vector<TxnId>>& version_order) {
  std::vector<HistTxn> hts;
  hts.reserve(txns.size() + 1);

  // Transactions read from writers that may not belong to the set (aborted
  // per G1a); add a synthetic aborted transaction per such writer so the
  // history is self-contained.
  std::unordered_map<TxnId, std::vector<Key>> aborted_writes;

  for (const model::Transaction& t : txns) {
    HistTxn ht;
    ht.id = t.id();
    ht.committed = true;
    ht.session = t.session();
    ht.site = t.site();
    ht.start_ts = t.start_ts();
    ht.commit_ts = t.commit_ts();
    ht.level = t.level();
    for (const model::Operation& op : t.ops()) {
      if (op.is_write()) {
        ht.events.push_back({EventType::kWrite, op.key, Version{t.id(), 1}});
      } else {
        // A phantom value is "a write that no state contains": model it as a
        // non-final write (seq 0 < the writer's final seq 1) — exactly G1b.
        const std::uint32_t seq = op.value.phantom ? 0 : 1;
        ht.events.push_back({EventType::kRead, op.key, Version{op.value.writer, seq}});
        if (op.value.writer != kInitTxn && !txns.contains(op.value.writer)) {
          aborted_writes[op.value.writer].push_back(op.key);
        }
      }
    }
    hts.push_back(std::move(ht));
  }

  for (const auto& [id, keys] : aborted_writes) {
    HistTxn ht;
    ht.id = id;
    ht.committed = false;
    for (Key k : keys) ht.events.push_back({EventType::kWrite, k, Version{id, 1}});
    hts.push_back(std::move(ht));
  }

  // Complete the version order for keys with at most one committed writer.
  std::unordered_map<Key, std::vector<TxnId>> vo = version_order;
  std::unordered_map<Key, std::vector<TxnId>> writers;
  for (const model::Transaction& t : txns) {
    for (Key k : t.write_set()) writers[k].push_back(t.id());
  }
  for (auto& [key, ws] : writers) {
    if (vo.contains(key)) continue;
    if (ws.size() > 1) {
      throw std::invalid_argument("version order missing for multi-writer key " +
                                  crooks::to_string(key));
    }
    vo.emplace(key, ws);
  }
  return History(std::move(hts), std::move(vo));
}

/// Kahn order over the edges in `mask`, ties toward smaller (commit_ts, id)
/// — the graph engine's witness rule, on a pairwise graph. Empty on a cycle.
inline std::vector<TxnId> topo_order(const Dsg& g, std::uint8_t mask,
                                     const std::unordered_map<TxnId, Timestamp>& commit) {
  std::vector<std::size_t> indegree(g.size(), 0);
  std::vector<std::vector<std::size_t>> out(g.size());
  for (const Edge& e : g.edges()) {
    if (!(e.kind & mask)) continue;
    ++indegree[e.to];
    out[e.from].push_back(e.to);
  }
  using Ready = std::tuple<Timestamp, TxnId, std::size_t>;
  std::priority_queue<Ready, std::vector<Ready>, std::greater<>> ready;
  for (std::size_t v = 0; v < g.size(); ++v) {
    if (indegree[v] == 0) ready.emplace(commit.at(g.id_of(v)), g.id_of(v), v);
  }
  std::vector<TxnId> order;
  while (!ready.empty()) {
    const std::size_t u = std::get<2>(ready.top());
    ready.pop();
    order.push_back(g.id_of(u));
    for (std::size_t v : out[u]) {
      if (--indegree[v] == 0) ready.emplace(commit.at(g.id_of(v)), g.id_of(v), v);
    }
  }
  if (order.size() != g.size()) return {};
  return order;
}

/// The phenomenon an explanation names: its text before the first ": "
/// ("G2 (anti-dependency cycle)"), after any engine prefix `strip`.
inline std::string phenomenon_of(std::string explanation, const std::string& strip = {}) {
  if (!strip.empty() && explanation.rfind(strip, 0) == 0) explanation.erase(0, strip.size());
  return explanation.substr(0, explanation.find(": "));
}

/// The transactions of an explanation's cycle ("… : T3 -> T5 -> T3" gives
/// {T3, T5}); empty when it names none. Throws if a cycle entry is not a
/// transaction id.
inline std::vector<TxnId> cycle_of(const std::string& explanation) {
  const std::size_t colon = explanation.rfind(": ");
  if (colon == std::string::npos) return {};
  const std::string tail = explanation.substr(colon + 2);
  if (tail.find(" -> ") == std::string::npos) return {};
  std::vector<TxnId> cycle;
  for (std::size_t at = 0; at <= tail.size();) {
    std::size_t end = tail.find(" -> ", at);
    if (end == std::string::npos) end = tail.size();
    const std::string tok = tail.substr(at, end - at);
    if (tok.size() < 2 || tok[0] != 'T' ||
        tok.find_first_not_of("0123456789", 1) != std::string::npos) {
      throw std::invalid_argument("not a transaction in a cycle: '" + tok + "'");
    }
    cycle.push_back(TxnId{std::stoull(tok.substr(1))});
    at = end + 4;
  }
  if (cycle.size() < 2 || cycle.front() != cycle.back()) {
    throw std::invalid_argument("cycle does not close: " + tail);
  }
  cycle.pop_back();
  return cycle;
}

/// Does `cycle` (closing back to its front) hold in the pairwise graph of
/// `h` for an explanation of `phenomenon` at `level`? Each consecutive pair
/// must be joined by an edge of the phenomenon's kinds — where the time
/// order takes part (G-SIb, real-time), commit(a) < start(b) joins a pair
/// too — and the G0 / G1c / G-Single / G-SIb / G2 shapes must use exactly
/// as many rw edges as their definition says (none; exactly one; at least
/// one).
inline bool cycle_holds(const History& h, const std::string& phenomenon,
                        const std::vector<TxnId>& cycle) {
  struct Shape {
    const char* prefix;
    std::uint8_t mask;  // edge kinds a hop may use
    bool time;          // commit(a) < start(b) also joins a hop
    int min_rw, max_rw;
  };
  constexpr int kAny = 1 << 20;
  static const Shape kShapes[] = {
      {"G0", kWW, false, 0, 0},
      {"G1c", kDependency, false, 0, 0},
      {"G-Single", kDependency | kRW, false, 1, 1},
      {"G-SIb", kDependency | kRW, true, 1, 1},
      {"G2", kAllDsg, false, 1, kAny},
      {"real-time", kAllDsg, true, 0, kAny},
  };
  const Shape* shape = nullptr;
  for (const Shape& sh : kShapes) {
    if (phenomenon.rfind(sh.prefix, 0) == 0) shape = &sh;
  }
  if (shape == nullptr || cycle.empty()) return false;
  const Dsg g = dsg(h);
  // Per hop: can it be joined without an rw edge, and with one?
  int forced_rw = 0;
  bool any_rw = false;
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    const TxnId a = cycle[i], b = cycle[(i + 1) % cycle.size()];
    bool plain = shape->time && h.by_id(a).commit_ts < h.by_id(b).start_ts;
    bool rw = false;
    for (const Edge& e : g.edges()) {
      if (g.id_of(e.from) != a || g.id_of(e.to) != b || !(e.kind & shape->mask)) continue;
      (e.kind == kRW ? rw : plain) = true;
    }
    if (!plain && !rw) return false;
    if (!plain) ++forced_rw;
    any_rw |= rw;
  }
  if (forced_rw > shape->max_rw) return false;
  return shape->min_rw == 0 || forced_rw > 0 || any_rw;
}

/// A store History on the compiled path: its client observations, compiled,
/// with its install order interned. Built in place (the compiled history
/// borrows `txns`).
struct Lifted {
  explicit Lifted(const History& h)
      : txns(to_observations(h)), ch(txns), io(compile_install_orders(ch, &h.version_order())) {}
  Lifted(const model::TransactionSet& t,
         const std::unordered_map<Key, std::vector<TxnId>>& vo)
      : txns(t), ch(txns), io(compile_install_orders(ch, &vo)) {}

  Phenomena detect() const { return adya::detect(ch, io); }
  std::string explain(ct::IsolationLevel level) const {
    return explain_violation(ch, io, level);
  }

  model::TransactionSet txns;
  model::CompiledHistory ch;
  InstallOrders io;
};

}  // namespace crooks::adya::pairwise
