#include "adya/graph.hpp"

#include <algorithm>
#include <unordered_map>
#include <utility>

namespace crooks::adya {

namespace {

/// Position of `writer` in the (implicitly ⊥-headed) version order of a key:
/// -1 for the initial version, index otherwise, nullopt if absent.
std::optional<std::ptrdiff_t> version_pos(const std::vector<TxnId>& installers,
                                          TxnId writer) {
  if (writer == kInitTxn) return -1;
  auto it = std::find(installers.begin(), installers.end(), writer);
  if (it == installers.end()) return std::nullopt;
  return it - installers.begin();
}

/// Node of every committed transaction of `h`, in History order.
std::unordered_map<TxnId, std::size_t> nodes_of(const History& h) {
  std::unordered_map<TxnId, std::size_t> node;
  for (const HistTxn& t : h.txns()) {
    if (t.committed) node.emplace(t.id, node.size());
  }
  return node;
}

}  // namespace

void Dsg::index_edges() {
  out_begin_.assign(size() + 1, 0);
  for (const Edge& e : edges_) ++out_begin_[e.from + 1];
  for (std::size_t u = 0; u < size(); ++u) out_begin_[u + 1] += out_begin_[u];
  out_.resize(edges_.size());
  std::vector<std::size_t> fill(out_begin_.begin(), out_begin_.end() - 1);
  for (const Edge& e : edges_) {
    out_[fill[e.from]++] = Arc{static_cast<std::uint32_t>(e.to), e.kind};
  }
}

Dsg::Dsg(const History& h) {
  const std::unordered_map<TxnId, std::size_t> node = nodes_of(h);
  for (const HistTxn& t : h.txns()) {
    if (t.committed) ids_.push_back(t.id);
  }

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
        if (!h.contains(w) || !h.by_id(w).committed) continue;         // G1a
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
  index_edges();
}

bool Dsg::add_start_edges(const History& h) {
  for (const HistTxn& t : h.txns()) {
    if (t.committed && (t.start_ts == kNoTimestamp || t.commit_ts == kNoTimestamp)) {
      return false;
    }
  }
  const std::unordered_map<TxnId, std::size_t> node = nodes_of(h);
  for (const HistTxn& a : h.txns()) {
    if (!a.committed) continue;
    for (const HistTxn& b : h.txns()) {
      if (!b.committed || a.id == b.id) continue;
      if (a.commit_ts < b.start_ts) {
        edges_.push_back({node.at(a.id), node.at(b.id), kSD, Key{}});
      }
    }
  }
  index_edges();
  return true;
}

bool Dsg::add_realtime_edges(const History& h) {
  for (const HistTxn& t : h.txns()) {
    if (t.committed && (t.start_ts == kNoTimestamp || t.commit_ts == kNoTimestamp)) {
      return false;
    }
  }
  const std::unordered_map<TxnId, std::size_t> node = nodes_of(h);
  for (const HistTxn& a : h.txns()) {
    if (!a.committed) continue;
    for (const HistTxn& b : h.txns()) {
      if (!b.committed || a.id == b.id) continue;
      if (a.commit_ts < b.start_ts) {
        edges_.push_back({node.at(a.id), node.at(b.id), kRT, Key{}});
      }
    }
  }
  index_edges();
  return true;
}

bool Dsg::has_cycle(std::uint8_t mask) const {
  return !find_cycle(mask).empty();
}

std::vector<TxnId> Dsg::find_cycle(std::uint8_t mask) const {
  // Iterative three-color DFS; on finding a back edge, unwind the explicit
  // stack to recover the cycle's nodes.
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(size(), kWhite);
  std::vector<std::size_t> stack;          // DFS path (nodes)
  std::vector<std::size_t> edge_iter(size(), 0);

  for (std::size_t root = 0; root < size(); ++root) {
    if (color[root] != kWhite) continue;
    stack.push_back(root);
    color[root] = kGray;
    while (!stack.empty()) {
      const std::size_t u = stack.back();
      bool advanced = false;
      const std::span<const Arc> out = out_edges(u);
      while (edge_iter[u] < out.size()) {
        const Arc& e = out[edge_iter[u]++];
        if (!(e.kind & mask)) continue;
        if (color[e.to] == kGray) {
          // Cycle: from e.to up the stack to u.
          std::vector<TxnId> cycle;
          auto it = std::find(stack.begin(), stack.end(), e.to);
          for (; it != stack.end(); ++it) cycle.push_back(ids_[*it]);
          return cycle;
        }
        if (color[e.to] == kWhite) {
          color[e.to] = kGray;
          stack.push_back(e.to);
          advanced = true;
          break;
        }
      }
      if (!advanced) {
        color[u] = kBlack;
        stack.pop_back();
      }
    }
  }
  return {};
}

std::vector<std::uint32_t> Dsg::components(std::uint8_t mask) const {
  // Iterative Tarjan: a serial history's dependency chains are as deep as the
  // history, far past what recursion could take.
  constexpr std::uint32_t kNone = ~std::uint32_t{0};
  const std::size_t n = size();
  std::vector<std::uint32_t> index(n, kNone), low(n, 0), comp(n, kNone);
  std::vector<std::size_t> stack;                          // Tarjan's node stack
  std::vector<std::pair<std::size_t, std::size_t>> frames;  // (node, next out-edge)
  std::uint32_t next_index = 0, next_comp = 0;
  auto visit = [&](std::size_t v) {
    index[v] = low[v] = next_index++;
    stack.push_back(v);
    frames.emplace_back(v, 0);
  };
  for (std::size_t root = 0; root < n; ++root) {
    if (index[root] != kNone) continue;
    visit(root);
    while (!frames.empty()) {
      const std::size_t u = frames.back().first;
      std::size_t& slot = frames.back().second;
      const std::span<const Arc> out = out_edges(u);
      if (slot < out.size()) {
        const Arc& e = out[slot++];
        if (!(e.kind & mask)) continue;
        if (index[e.to] == kNone) {
          visit(e.to);
        } else if (comp[e.to] == kNone) {  // still on the stack
          low[u] = std::min(low[u], index[e.to]);
        }
        continue;
      }
      frames.pop_back();
      if (!frames.empty()) {
        const std::size_t caller = frames.back().first;
        low[caller] = std::min(low[caller], low[u]);
      }
      if (low[u] == index[u]) {
        std::size_t v;
        do {
          v = stack.back();
          stack.pop_back();
          comp[v] = next_comp;
        } while (v != u);
        ++next_comp;
      }
    }
  }
  return comp;
}

bool Dsg::bfs_within(std::size_t from, std::size_t to, std::uint8_t mask,
                     const std::vector<std::uint32_t>& comp,
                     std::vector<std::ptrdiff_t>& parent,
                     std::vector<std::size_t>& visited) const {
  // Nodes outside comp[to] cannot reach `to`, so they never discover a node
  // inside it: skipping them leaves the BFS tree over the component as an
  // unconfined search would build it.
  visited.assign(1, from);
  parent[from] = static_cast<std::ptrdiff_t>(from);
  if (from == to) return true;
  for (std::size_t head = 0; head < visited.size(); ++head) {
    const std::size_t u = visited[head];
    for (const Arc& e : out_edges(u)) {
      if (!(e.kind & mask) || parent[e.to] != -1 || comp[e.to] != comp[to]) continue;
      parent[e.to] = static_cast<std::ptrdiff_t>(u);
      visited.push_back(e.to);
      if (e.to == to) return true;
    }
  }
  return false;
}

bool Dsg::cycle_with_exactly_one(EdgeKind single, std::uint8_t others) const {
  if ((others & single) == 0) return !find_cycle_with_exactly_one(single, others).empty();
  // "At least one": an edge closes a cycle iff its ends share a component.
  const std::vector<std::uint32_t> comp = components(others);
  for (const Edge& e : edges_) {
    if (e.kind == single && comp[e.from] == comp[e.to]) return true;
  }
  return false;
}

std::vector<TxnId> Dsg::find_cycle_with_exactly_one(EdgeKind single,
                                                    std::uint8_t others) const {
  const std::vector<std::uint32_t> comp = components(others | single);
  std::vector<std::ptrdiff_t> parent(size(), -1);
  std::vector<std::size_t> visited;
  for (const Edge& start : edges_) {
    if (start.kind != single || comp[start.from] != comp[start.to]) continue;
    // BFS from start.to back to start.from over `others`, keeping parents.
    if (!bfs_within(start.to, start.from, others, comp, parent, visited)) {
      for (std::size_t v : visited) parent[v] = -1;
      continue;
    }
    std::vector<TxnId> cycle;
    std::size_t node = start.from;
    while (node != start.to) {
      cycle.push_back(ids_[node]);
      node = static_cast<std::size_t>(parent[node]);
    }
    cycle.push_back(ids_[start.to]);
    std::reverse(cycle.begin(), cycle.end());
    // Rotate so the anti-dependency edge's source leads.
    std::rotate(cycle.begin(),
                std::find(cycle.begin(), cycle.end(), ids_[start.from]), cycle.end());
    return cycle;
  }
  return {};
}

std::string to_string(EdgeKind k) {
  switch (k) {
    case kWW: return "ww";
    case kWR: return "wr";
    case kRW: return "rw";
    case kSD: return "sd";
    case kRT: return "rt";
  }
  return "?";
}

}  // namespace crooks::adya
