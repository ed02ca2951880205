#include "adya/graph.hpp"

#include <algorithm>
#include <utility>

namespace crooks::adya {

Dsg::Dsg(std::vector<TxnId> ids, std::vector<Edge> edges)
    : ids_(std::move(ids)), nodes_(ids_.size()), edges_(std::move(edges)) {
  index_edges();
}

void Dsg::index_edges() {
  out_begin_.assign(nodes_ + 1, 0);
  for (const Edge& e : edges_) ++out_begin_[e.from + 1];
  for (std::size_t u = 0; u < nodes_; ++u) out_begin_[u + 1] += out_begin_[u];
  out_.resize(edges_.size());
  std::vector<std::size_t> fill(out_begin_.begin(), out_begin_.end() - 1);
  for (const Edge& e : edges_) {
    out_[fill[e.from]++] = Arc{static_cast<std::uint32_t>(e.to), e.kind};
  }
}

bool Dsg::has_cycle(std::uint8_t mask) const {
  return !find_cycle(mask).empty();
}

std::vector<TxnId> Dsg::find_cycle(std::uint8_t mask) const {
  // Iterative three-color DFS; on finding a back edge, unwind the explicit
  // stack to recover the cycle's nodes.
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(nodes_, kWhite);
  std::vector<std::size_t> stack;          // DFS path (nodes)
  std::vector<std::size_t> edge_iter(nodes_, 0);

  for (std::size_t root = 0; root < nodes_; ++root) {
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
          const auto it = std::find(stack.begin(), stack.end(), e.to);
          return transactions_of(std::vector<std::size_t>(it, stack.end()));
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
  const std::size_t n = nodes_;
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
  std::vector<std::ptrdiff_t> parent(nodes_, -1);
  std::vector<std::size_t> visited;
  for (const Edge& start : edges_) {
    if (start.kind != single || comp[start.from] != comp[start.to]) continue;
    // BFS from start.to back to start.from over `others`, keeping parents.
    if (!bfs_within(start.to, start.from, others, comp, parent, visited)) {
      for (std::size_t v : visited) parent[v] = -1;
      continue;
    }
    std::vector<std::size_t> path;
    std::size_t node = start.from;
    while (node != start.to) {
      path.push_back(node);
      node = static_cast<std::size_t>(parent[node]);
    }
    path.push_back(start.to);
    std::reverse(path.begin(), path.end());
    // Rotate so the anti-dependency edge's source leads.
    std::rotate(path.begin(), std::find(path.begin(), path.end(), start.from),
                path.end());
    return transactions_of(path);
  }
  return {};
}

std::vector<TxnId> Dsg::transactions_of(const std::vector<std::size_t>& nodes) const {
  // A run of time nodes between two transactions is one chain hop a ⇝ b,
  // i.e. commit(a) < start(b): dropping the time nodes renders it as the
  // real pair a -> b.
  std::vector<TxnId> ids;
  for (std::size_t v : nodes) {
    if (!is_time_node(v)) ids.push_back(ids_[v]);
  }
  return ids;
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
