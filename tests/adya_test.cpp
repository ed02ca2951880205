// Adya baseline: history construction, DSG edges, the time chain, phenomena
// detection and explanations on the compiled form — each held to the
// test-only pairwise oracle — and the history↔observation bridges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "adya/graph.hpp"
#include "adya/history.hpp"
#include "adya/phenomena.hpp"
#include "model/compiled.hpp"
#include "pairwise_oracle.hpp"

namespace crooks::adya {
namespace {

using ct::IsolationLevel;
using pairwise::Lifted;

constexpr Key kX{0}, kY{1};

/// The compiled phenomena of `h`, held to the pairwise oracle field by field.
Phenomena detect(const History& h) {
  const Phenomena p = Lifted(h).detect();
  const Phenomena want = pairwise::detect(h);
  EXPECT_EQ(p.to_string(), want.to_string());
  EXPECT_EQ(p.g_si_a, want.g_si_a);
  EXPECT_EQ(p.g_si_b, want.g_si_b);
  EXPECT_EQ(p.rt_cycle, want.rt_cycle);
  return p;
}

std::string explain_violation(const History& h, IsolationLevel level) {
  return Lifted(h).explain(level);
}

TEST(History, BuilderDerivesVersionOrderFromCommitOrder) {
  History h = HistoryBuilder()
                  .begin(TxnId{1}, 0).write(1, 0).commit(TxnId{1}, 10)
                  .begin(TxnId{2}, 5).write(2, 0).commit(TxnId{2}, 20)
                  .build();
  const auto& order = h.installers(kX);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], TxnId{1});
  EXPECT_EQ(order[1], TxnId{2});
}

TEST(History, ExplicitOrderOverrides) {
  History h = HistoryBuilder()
                  .begin(1).write(1, 0).commit(1)
                  .begin(2).write(2, 0).commit(2)
                  .order(kX, {TxnId{2}, TxnId{1}})
                  .build();
  EXPECT_EQ(h.installers(kX).front(), TxnId{2});
}

TEST(History, AbortedTransactionsExcludedFromVersionOrder) {
  History h = HistoryBuilder()
                  .begin(1).write(1, 0).abort(1)
                  .begin(2).write(2, 0).commit(2)
                  .build();
  ASSERT_EQ(h.installers(kX).size(), 1u);
  EXPECT_EQ(h.installers(kX)[0], TxnId{2});
  EXPECT_FALSE(h.by_id(TxnId{1}).committed);
}

TEST(History, RejectsIncompleteVersionOrder) {
  std::vector<HistTxn> txns(1);
  txns[0].id = TxnId{1};
  txns[0].committed = true;
  txns[0].events.push_back({EventType::kWrite, kX, Version{TxnId{1}, 1}});
  EXPECT_THROW(History(std::move(txns), {}), std::invalid_argument);
}

TEST(History, FinalWriteSeq) {
  History h = HistoryBuilder()
                  .begin(1).write(1, 0).write(1, 0).write(1, 1).commit(1)
                  .build();
  EXPECT_EQ(h.by_id(TxnId{1}).final_write_seq(kX), 2u);
  EXPECT_EQ(h.by_id(TxnId{1}).final_write_seq(kY), 1u);
  EXPECT_FALSE(h.by_id(TxnId{1}).final_write_seq(Key{9}).has_value());
}

TEST(Dsg, EdgesOfASimpleChain) {
  // T1 writes x; T2 reads x and writes x.
  History h = HistoryBuilder()
                  .begin(1).write(1, 0).commit(1, 10)
                  .begin(2).read(2, 0, 1).write(2, 0).commit(2, 20)
                  .build();
  const Lifted l(h);
  Dsg g(l.ch, l.io);
  ASSERT_EQ(g.size(), 2u);
  bool saw_ww = false, saw_wr = false;
  for (const Edge& e : g.edges()) {
    if (e.kind == kWW) {
      saw_ww = true;
      EXPECT_EQ(g.id_of(e.from), TxnId{1});
      EXPECT_EQ(g.id_of(e.to), TxnId{2});
    }
    if (e.kind == kWR) saw_wr = true;
    EXPECT_NE(e.kind, kRW);  // T2 reads the version it itself replaces
  }
  EXPECT_TRUE(saw_ww);
  EXPECT_TRUE(saw_wr);
}

TEST(Dsg, AntiDependencyFromStaleRead) {
  // T1 reads ⊥ for x; T2 installs x: T1 --rw--> T2.
  History h = HistoryBuilder()
                  .begin(1).read(1, 0, 0).commit(1, 10)
                  .begin(2).write(2, 0).commit(2, 20)
                  .build();
  const Lifted l(h);
  Dsg g(l.ch, l.io);
  bool saw_rw = false;
  for (const Edge& e : g.edges()) {
    if (e.kind == kRW) {
      saw_rw = true;
      EXPECT_EQ(g.id_of(e.from), TxnId{1});
      EXPECT_EQ(g.id_of(e.to), TxnId{2});
    }
  }
  EXPECT_TRUE(saw_rw);
}

TEST(Dsg, CycleDetectionByMask) {
  // ww cycle via two keys with opposing version orders.
  History h = HistoryBuilder()
                  .begin(1).write(1, 0).write(1, 1).commit(1)
                  .begin(2).write(2, 0).write(2, 1).commit(2)
                  .order(kX, {TxnId{1}, TxnId{2}})
                  .order(kY, {TxnId{2}, TxnId{1}})
                  .build();
  const Lifted l(h);
  Dsg g(l.ch, l.io);
  EXPECT_TRUE(g.has_cycle(kWW));
  EXPECT_FALSE(g.find_cycle(kWW).empty());
  EXPECT_FALSE(g.has_cycle(kWR));
}

TEST(Phenomena, G1aDirtyRead) {
  History h = HistoryBuilder()
                  .begin(1).write(1, 0).abort(1)
                  .begin(2).read(2, 0, 1).commit(2)
                  .build();
  const Phenomena p = detect(h);
  EXPECT_TRUE(p.g1a);
  EXPECT_FALSE(p.g1b);
  EXPECT_EQ(satisfies(p, IsolationLevel::kReadCommitted), Verdict::kViolated);
  EXPECT_EQ(satisfies(p, IsolationLevel::kReadUncommitted), Verdict::kSatisfied);
}

TEST(Phenomena, G1bIntermediateRead) {
  History h = HistoryBuilder()
                  .begin(1).write(1, 0).write(1, 0).commit(1, 10)
                  .begin(2).read(TxnId{2}, kX, Version{TxnId{1}, 1}).commit(2, 20)
                  .build();
  const Phenomena p = detect(h);
  EXPECT_TRUE(p.g1b);
  EXPECT_FALSE(p.g1a);
  EXPECT_EQ(satisfies(p, IsolationLevel::kReadCommitted), Verdict::kViolated);
}

TEST(Phenomena, G1cCircularInformationFlow) {
  // T1 reads T2's y; T2 reads T1's x: wr cycle.
  History h = HistoryBuilder()
                  .begin(1).write(1, 0).read(1, 1, 2).commit(1, 10)
                  .begin(2).write(2, 1).read(2, 0, 1).commit(2, 20)
                  .build();
  const Phenomena p = detect(h);
  EXPECT_TRUE(p.g1c);
  EXPECT_FALSE(p.g0);
  EXPECT_EQ(satisfies(p, IsolationLevel::kReadCommitted), Verdict::kViolated);
  EXPECT_EQ(satisfies(p, IsolationLevel::kReadUncommitted), Verdict::kSatisfied);
}

TEST(Phenomena, WriteSkewIsG2NotGSingle) {
  History h = HistoryBuilder()
                  .begin(1, 0).read(1, 0, 0).read(1, 1, 0).write(1, 0).commit(1, 10)
                  .begin(2, 1).read(2, 0, 0).read(2, 1, 0).write(2, 1).commit(2, 11)
                  .build();
  const Phenomena p = detect(h);
  EXPECT_TRUE(p.g2);
  EXPECT_FALSE(p.g_single);  // the only cycle has two anti-dependency edges
  EXPECT_FALSE(p.g1());
  EXPECT_EQ(satisfies(p, IsolationLevel::kSerializable), Verdict::kViolated);
  EXPECT_EQ(satisfies(p, IsolationLevel::kPSI), Verdict::kSatisfied);
  ASSERT_TRUE(p.g_si_a.has_value());
  EXPECT_FALSE(*p.g_si_a);
  EXPECT_FALSE(*p.g_si_b);
  EXPECT_EQ(satisfies(p, IsolationLevel::kAnsiSI), Verdict::kSatisfied);
}

TEST(Phenomena, LostUpdateIsGSingle) {
  // Both read x=⊥ and write x: T2 --rw--> T1? No — T2's stale read
  // anti-depends on the *first* installer T1, and T1 --ww--> T2 closes a
  // cycle with exactly one anti-dependency edge.
  History h = HistoryBuilder()
                  .begin(1, 0).read(1, 0, 0).write(1, 0).commit(1, 10)
                  .begin(2, 1).read(2, 0, 0).write(2, 0).commit(2, 11)
                  .build();
  const Phenomena p = detect(h);
  EXPECT_TRUE(p.g_single);
  EXPECT_TRUE(p.g2);
  EXPECT_EQ(satisfies(p, IsolationLevel::kPSI), Verdict::kViolated);
  EXPECT_EQ(satisfies(p, IsolationLevel::kAnsiSI), Verdict::kViolated);
  EXPECT_EQ(satisfies(p, IsolationLevel::kReadCommitted), Verdict::kSatisfied);
}

TEST(Phenomena, FracturedRead) {
  History h = HistoryBuilder()
                  .begin(1).write(1, 0).write(1, 1).commit(1, 10)
                  .begin(2).read(2, 0, 1).read(2, 1, 0).commit(2, 20)
                  .build();
  const Phenomena p = detect(h);
  EXPECT_TRUE(p.fractured);
  EXPECT_FALSE(p.g1());
  EXPECT_EQ(satisfies(p, IsolationLevel::kReadAtomic), Verdict::kViolated);
  EXPECT_EQ(satisfies(p, IsolationLevel::kReadCommitted), Verdict::kSatisfied);
}

TEST(Phenomena, RealTimeCycleForStrictSer) {
  // T1 reads T2's write although T2 starts after T1 commits: wr edge T2→T1
  // plus real-time edge T1→T2 form a cycle. (This history is G1-free only
  // in the Adya sense if the read is of an installed version — it is.)
  History h = HistoryBuilder()
                  .begin(1, 0).read(1, 0, 2).commit(1, 10)
                  .begin(2, 20).write(2, 0).commit(2, 30)
                  .build();
  const Phenomena p = detect(h);
  ASSERT_TRUE(p.rt_cycle.has_value());
  EXPECT_TRUE(*p.rt_cycle);
  EXPECT_EQ(satisfies(p, IsolationLevel::kStrictSerializable), Verdict::kViolated);
  EXPECT_EQ(satisfies(p, IsolationLevel::kSerializable), Verdict::kSatisfied);
}

TEST(Phenomena, TimestamplessHistoriesMakeTimedLevelsInapplicable) {
  History h = HistoryBuilder().begin(1).write(1, 0).commit(1).build();
  const Phenomena p = detect(h);
  EXPECT_FALSE(p.g_si_a.has_value());
  EXPECT_EQ(satisfies(p, IsolationLevel::kAdyaSI), Verdict::kInapplicable);
  EXPECT_EQ(satisfies(p, IsolationLevel::kStrictSerializable), Verdict::kInapplicable);
  EXPECT_EQ(satisfies(p, IsolationLevel::kSessionSI), Verdict::kInapplicable);
}

TEST(Explain, NamesPhenomenonAndCycle) {
  // Lost update: G-Single cycle T2 -rw-> T1 -ww-> T2.
  History h = HistoryBuilder()
                  .begin(1, 0).read(1, 0, 0).write(1, 0).commit(1, 10)
                  .begin(2, 1).read(2, 0, 0).write(2, 0).commit(2, 11)
                  .build();
  const std::string psi = explain_violation(h, IsolationLevel::kPSI);
  EXPECT_NE(psi.find("G-Single"), std::string::npos) << psi;
  EXPECT_NE(psi.find("T1"), std::string::npos);
  EXPECT_NE(psi.find("T2"), std::string::npos);
  const std::string ser = explain_violation(h, IsolationLevel::kSerializable);
  EXPECT_NE(ser.find("G2"), std::string::npos) << ser;
  // Satisfied levels yield an empty explanation.
  EXPECT_TRUE(explain_violation(h, IsolationLevel::kReadCommitted).empty());
}

TEST(Explain, DirtyAndIntermediateReads) {
  History dirty = HistoryBuilder()
                      .begin(1).write(1, 0).abort(1)
                      .begin(2).read(2, 0, 1).commit(2)
                      .build();
  EXPECT_NE(explain_violation(dirty, IsolationLevel::kReadCommitted).find("G1a"),
            std::string::npos);

  History mid = HistoryBuilder()
                    .begin(1).write(1, 0).write(1, 0).commit(1, 10)
                    .begin(2).read(TxnId{2}, kX, Version{TxnId{1}, 1}).commit(2, 20)
                    .build();
  EXPECT_NE(explain_violation(mid, IsolationLevel::kSerializable).find("G1b"),
            std::string::npos);
}

TEST(Dsg, FindCycleWithExactlyOneAntiDependency) {
  History h = HistoryBuilder()
                  .begin(1, 0).read(1, 0, 0).write(1, 0).commit(1, 10)
                  .begin(2, 1).read(2, 0, 0).write(2, 0).commit(2, 11)
                  .build();
  const Lifted l(h);
  Dsg g(l.ch, l.io);
  const std::vector<TxnId> cycle = g.find_cycle_with_exactly_one(kRW, kDependency);
  ASSERT_EQ(cycle.size(), 2u);
  // The rw edge T2 -rw-> T1 leads; T1 -ww-> T2 closes.
  EXPECT_EQ(cycle[0], TxnId{2});
  EXPECT_EQ(cycle[1], TxnId{1});
  // No such cycle among dependencies alone.
  EXPECT_TRUE(g.find_cycle_with_exactly_one(kWR, kWR).empty());
}

// --- Component prefilter vs the per-edge search ------------------------------

/// The per-edge search cycle_with_exactly_one / find_cycle_with_exactly_one
/// ran before the strongly-connected-component prefilter: one unconfined BFS
/// per `single` edge, over edges in `others`. Kept here as the oracle.
struct PerEdgeSearch {
  const Dsg& g;
  std::vector<std::vector<std::size_t>> out;  // edge indices by source, in edge order

  explicit PerEdgeSearch(const Dsg& dsg) : g(dsg), out(dsg.node_count()) {
    for (std::size_t i = 0; i < g.edges().size(); ++i) {
      out[g.edges()[i].from].push_back(i);
    }
  }

  /// BFS parents from `from` (-1 = unreached), stopping once `to` is reached.
  std::vector<std::ptrdiff_t> bfs(std::size_t from, std::size_t to,
                                  std::uint8_t mask) const {
    std::vector<std::ptrdiff_t> parent(g.node_count(), -1);
    std::deque<std::size_t> queue{from};
    parent[from] = static_cast<std::ptrdiff_t>(from);
    while (!queue.empty() && parent[to] == -1) {
      const std::size_t u = queue.front();
      queue.pop_front();
      for (std::size_t ei : out[u]) {
        const Edge& e = g.edges()[ei];
        if (!(e.kind & mask) || parent[e.to] != -1) continue;
        parent[e.to] = static_cast<std::ptrdiff_t>(u);
        if (e.to == to) break;
        queue.push_back(e.to);
      }
    }
    return parent;
  }

  std::vector<TxnId> find(EdgeKind single, std::uint8_t others) const {
    for (const Edge& start : g.edges()) {
      if (start.kind != single) continue;
      const std::vector<std::ptrdiff_t> parent = bfs(start.to, start.from, others);
      if (parent[start.from] == -1) continue;
      // Time-chain nodes are not transactions: a cycle lists only the
      // transactions it passes through.
      std::vector<TxnId> cycle;
      for (std::size_t node = start.from; node != start.to;
           node = static_cast<std::size_t>(parent[node])) {
        if (!g.is_time_node(node)) cycle.push_back(g.id_of(node));
      }
      cycle.push_back(g.id_of(start.to));
      std::reverse(cycle.begin(), cycle.end());
      std::rotate(cycle.begin(),
                  std::find(cycle.begin(), cycle.end(), g.id_of(start.from)),
                  cycle.end());
      return cycle;
    }
    return {};
  }
};

/// A random committed history: each transaction writes up to two keys and
/// reads up to one to three versions, by seed (⊥ or any installer, in any
/// real-time order),
/// with a random install order per key and overlapping start/commit points,
/// so the DSG and SSG carry ww, wr, rw and sd edges in every pattern.
History random_history(std::uint64_t seed, std::size_t n, std::size_t keys) {
  std::mt19937_64 rng(seed);
  std::vector<std::vector<std::uint64_t>> writes(n + 1), writers(keys);
  for (std::uint64_t i = 1; i <= n; ++i) {
    for (std::uint64_t w = rng() % 3; w > 0; --w) {
      const std::uint64_t k = rng() % keys;
      if (std::find(writes[i].begin(), writes[i].end(), k) != writes[i].end()) continue;
      writes[i].push_back(k);
      writers[k].push_back(i);
    }
  }
  HistoryBuilder b;
  for (std::uint64_t i = 1; i <= n; ++i) {
    const auto start = static_cast<Timestamp>(rng() % (4 * n));
    b.begin(TxnId{i}, start);
    for (std::uint64_t r = rng() % (2 + seed % 3); r > 0; --r) {
      const std::uint64_t k = rng() % keys;
      const std::size_t pick = rng() % (writers[k].size() + 1);
      const std::uint64_t w = pick == 0 ? 0 : writers[k][pick - 1];
      if (w != i) b.read(i, k, w);
    }
    for (std::uint64_t k : writes[i]) b.write(i, k);
    b.commit(TxnId{i}, start + 1 + static_cast<Timestamp>(rng() % n));
  }
  for (std::uint64_t k = 0; k < keys; ++k) {
    if (writers[k].empty()) continue;
    std::shuffle(writers[k].begin(), writers[k].end(), rng);
    std::vector<TxnId> order;
    for (std::uint64_t w : writers[k]) order.push_back(TxnId{w});
    b.order(Key{k}, std::move(order));
  }
  return b.build();
}

TEST(Dsg, ComponentPrefilterMatchesPerEdgeSearch) {
  // G2, G-Single and G-SIb masks: the boolean test and the witness cycle
  // (first closing edge, BFS path) must equal the per-edge search exactly.
  struct Shape {
    const char* name;
    std::uint8_t others;
    bool ssg;
  };
  const Shape shapes[] = {{"G2", kAllDsg, false},
                          {"G-Single", kDependency, false},
                          {"G-SIb", kDependency | kSD, true}};
  std::map<std::string, std::pair<int, int>> seen;  // (with cycle, without)
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const History h = random_history(seed, 3 + seed % 22, 2 + seed % 5);
    const Lifted l(h);
    const Dsg dsg(l.ch, l.io);
    Dsg ssg = dsg;
    ASSERT_TRUE(ssg.add_start_edges(l.ch));
    for (const Shape& sh : shapes) {
      const Dsg& g = sh.ssg ? ssg : dsg;
      const PerEdgeSearch oracle(g);
      const std::vector<TxnId> want = oracle.find(kRW, sh.others);
      ASSERT_EQ(g.find_cycle_with_exactly_one(kRW, sh.others), want)
          << sh.name << " seed " << seed;
      ASSERT_EQ(g.cycle_with_exactly_one(kRW, sh.others), !want.empty())
          << sh.name << " seed " << seed;
      (want.empty() ? seen[sh.name].second : seen[sh.name].first)++;
    }
  }
  for (const Shape& sh : shapes) {
    EXPECT_GT(seen[sh.name].first, 20) << sh.name << " " << seen[sh.name].second;
    EXPECT_GT(seen[sh.name].second, 20) << sh.name << " " << seen[sh.name].first;
  }
}

// --- Time chain: start-dependency / real-time edges in O(n) ------------------

/// Is transaction node `to` reachable from transaction node `from` over the
/// edges in `mask` (time nodes included)?
bool reaches(const Dsg& g, std::size_t from, std::size_t to, std::uint8_t mask) {
  std::vector<char> seen(g.node_count(), 0);
  std::vector<std::size_t> stack;
  for (const Arc& a : g.out_edges(from)) {
    if ((a.kind & mask) != 0 && !seen[a.to]) seen[a.to] = 1, stack.push_back(a.to);
  }
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    if (u == to) return true;
    for (const Arc& a : g.out_edges(u)) {
      if ((a.kind & mask) != 0 && !seen[a.to]) seen[a.to] = 1, stack.push_back(a.to);
    }
  }
  return false;
}

/// Observations compiled with no version order beyond single writers.
struct Compiled {
  explicit Compiled(std::vector<model::Transaction> t)
      : txns(std::move(t)), ch(txns), io(compile_install_orders(ch, nullptr)) {}
  model::TransactionSet txns;
  model::CompiledHistory ch;
  InstallOrders io;
};

TEST(TimeChain, EqualCommitAndStartGiveNoPath) {
  // commit(T1) == start(T2): not real-time ordered, in either edge kind.
  const Compiled c({model::TxnBuilder(1).write(0).at(0, 5).build(),
                    model::TxnBuilder(2).write(1).at(5, 9).build(),
                    model::TxnBuilder(3).write(2).at(6, 7).build()});
  for (bool sd : {true, false}) {
    Dsg g(c.ch, c.io);
    ASSERT_TRUE(sd ? g.add_start_edges(c.ch) : g.add_realtime_edges(c.ch));
    const std::uint8_t kind = sd ? kSD : kRT;
    EXPECT_FALSE(reaches(g, 0, 1, kind));  // 5 < 5 is false
    EXPECT_TRUE(reaches(g, 0, 2, kind));   // 5 < 6
    EXPECT_FALSE(reaches(g, 1, 2, kind));  // 9 < 6 is false
    EXPECT_FALSE(reaches(g, 2, 1, kind));  // 7 < 5 is false
    EXPECT_EQ(g.size(), 3u);
    EXPECT_GT(g.node_count(), g.size());
  }
}

TEST(TimeChain, PointTransactionDoesNotReachItself) {
  // start == commit is allowed and must not close a self-loop a → c_a ⇝ s_a → a.
  const Compiled c({model::TxnBuilder(1).write(0).at(4, 4).build(),
                    model::TxnBuilder(2).write(1).at(4, 4).build(),
                    model::TxnBuilder(3).read(Key{0}, TxnId{0}).at(3, 8).build()});
  Dsg g(c.ch, c.io);
  ASSERT_TRUE(g.add_realtime_edges(c.ch));
  for (std::size_t v = 0; v < g.size(); ++v) {
    EXPECT_FALSE(reaches(g, v, v, kRT)) << v;
  }
  EXPECT_FALSE(g.has_cycle(kRT));
  EXPECT_TRUE(g.find_cycle(kRT).empty());
}

TEST(TimeChain, PartialTimestampsAddNothing) {
  const Compiled c({model::TxnBuilder(1).write(0).at(0, 1).build(),
                    model::TxnBuilder(2).write(1).build()});
  Dsg g(c.ch, c.io);
  const std::size_t edges = g.edges().size(), nodes = g.node_count();
  EXPECT_FALSE(g.add_start_edges(c.ch));
  EXPECT_FALSE(g.add_realtime_edges(c.ch));
  EXPECT_EQ(g.edges().size(), edges);
  EXPECT_EQ(g.node_count(), nodes);
}

TEST(TimeChain, ReachabilityIsTheRealTimeOrderInLinearEdges) {
  // Over the chain's edges alone, a reaches b exactly when commit(a) <
  // start(b) — the pairwise relation — with O(n) edges instead of its pairs.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const History h = random_history(seed, 3 + seed % 30, 2 + seed % 4);
    const Lifted l(h);
    Dsg g(l.ch, l.io);
    const std::size_t before = g.edges().size();
    ASSERT_TRUE(g.add_start_edges(l.ch));
    EXPECT_LE(g.edges().size() - before, 3 * g.size()) << seed;
    for (std::size_t a = 0; a < g.size(); ++a) {
      for (std::size_t b = 0; b < g.size(); ++b) {
        const auto da = static_cast<model::TxnIdx>(a), db = static_cast<model::TxnIdx>(b);
        EXPECT_EQ(reaches(g, a, b, kSD), l.ch.commit_ts(da) < l.ch.start_ts(db))
            << "seed " << seed << ": " << a << " -> " << b;
      }
    }
  }
}

TEST(Differential, PhenomenaAndExplanationsMatchThePairwiseOracle) {
  // Every Phenomena field (the timed ones included) equals the pairwise
  // oracle's; every explanation names the oracle's phenomenon, and its cycle
  // lists transactions only and holds in the oracle's pairwise graph. Byte
  // equality of cycles is not required: the two graphs order edges apart.
  std::map<std::string, int> named;
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    const History h = random_history(seed, 3 + seed % 22, 2 + seed % 5);
    const Lifted l(h);
    const Phenomena p = l.detect();
    const Phenomena want = pairwise::detect(h);
    ASSERT_EQ(p.to_string(), want.to_string()) << seed;
    ASSERT_EQ(p.g_si_a, want.g_si_a) << seed;
    ASSERT_EQ(p.g_si_b, want.g_si_b) << seed;
    ASSERT_EQ(p.rt_cycle, want.rt_cycle) << seed;
    for (IsolationLevel level : ct::kAllLevels) {
      ASSERT_EQ(satisfies(detect(l.ch, l.io, level), level), satisfies(want, level))
          << seed << " " << ct::name_of(level);
      const std::string got = l.explain(level);
      const std::string ref = pairwise::explain_violation(h, level);
      ASSERT_EQ(got.empty(), ref.empty()) << seed << " " << ct::name_of(level);
      if (got.empty()) continue;
      const std::string phenomenon = pairwise::phenomenon_of(got);
      ASSERT_EQ(phenomenon, pairwise::phenomenon_of(ref)) << got << " | " << ref;
      ++named[phenomenon];
      std::vector<TxnId> cycle;
      ASSERT_NO_THROW(cycle = pairwise::cycle_of(got)) << got;
      if (pairwise::cycle_of(ref).empty()) {
        EXPECT_TRUE(cycle.empty()) << got;
        continue;
      }
      EXPECT_TRUE(pairwise::cycle_holds(h, phenomenon, cycle))
          << "seed " << seed << " " << ct::name_of(level) << ": " << got;
    }
  }
  // The battery reaches every cycle-bearing explanation.
  for (const char* name : {"G1c (circular information flow)",
                           "G-Single (single anti-dependency cycle)",
                           "G-SIb (missed effects)", "G2 (anti-dependency cycle)",
                           "real-time violation"}) {
    EXPECT_GT(named[name], 0) << name;
  }
}

TEST(Differential, GSIbAndRealTimeCyclesCrossTheChainAsRealPairs) {
  // Write skew with T2 starting after T1 commits on one key: the SSG cycle
  // T1 -rw-> T2 ⇝ ... must render as transaction ids, each hop a DSG edge
  // or commit < start, with exactly one rw edge for G-SIb.
  const History h = HistoryBuilder()
                        .begin(1, 0).read(1, 0, 0).write(1, 1).commit(1, 10)
                        .begin(2, 20).read(2, 1, 0).write(2, 0).commit(2, 30)
                        .build();
  const Lifted l(h);
  const std::string si = l.explain(IsolationLevel::kAnsiSI);
  ASSERT_EQ(pairwise::phenomenon_of(si), "G-SIb (missed effects)") << si;
  EXPECT_TRUE(pairwise::cycle_holds(h, "G-SIb", pairwise::cycle_of(si))) << si;
  EXPECT_EQ(pairwise::cycle_of(si).size(), 2u) << si;
  const std::string rt = l.explain(IsolationLevel::kStrictSerializable);
  EXPECT_TRUE(pairwise::cycle_holds(h, pairwise::phenomenon_of(rt),
                                    pairwise::cycle_of(rt)))
      << rt;
}

// --- Version-order input contract ---------------------------------------------

TEST(History, RejectsWriterRepeatedInVersionOrder) {
  // A writer installs one version per key; a repeat used to read as a G1c
  // cycle T1 -> T2 -> T1. Both the History and compiled paths reject it
  // with the same message.
  const std::string want = repeated_installer_message(kX, TxnId{1});
  try {
    HistoryBuilder()
        .begin(1).write(1, 0).commit(1)
        .begin(2).write(2, 0).commit(2)
        .order(kX, {TxnId{1}, TxnId{2}, TxnId{1}})
        .build();
    FAIL() << "repeat accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(e.what(), want);
  }

  const model::TransactionSet obs{{model::TxnBuilder(1).write(0).build(),
                                   model::TxnBuilder(2).write(0).build()}};
  const std::unordered_map<Key, std::vector<TxnId>> vo{
      {kX, {TxnId{1}, TxnId{2}, TxnId{1}}}};
  const model::CompiledHistory ch(obs);
  for (auto path : {+[](const model::TransactionSet& t, const model::CompiledHistory& c,
                        const std::unordered_map<Key, std::vector<TxnId>>& v) {
                      (void)t;
                      compile_install_orders(c, &v);
                    },
                    +[](const model::TransactionSet& t, const model::CompiledHistory& c,
                        const std::unordered_map<Key, std::vector<TxnId>>& v) {
                      (void)c;
                      pairwise::from_observations(t, v);
                    }}) {
    try {
      path(obs, ch, vo);
      FAIL() << "repeat accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), want);
    }
  }
}

TEST(Observations, RoundTripCommittedReadsWrites) {
  History h = HistoryBuilder()
                  .begin(1, 0).write(1, 0).commit(1, 10)
                  .begin(2, 11).read(2, 0, 1).write(2, 1).commit(2, 20)
                  .build();
  model::TransactionSet obs = to_observations(h);
  ASSERT_EQ(obs.size(), 2u);
  const model::Transaction& t2 = obs.by_id(TxnId{2});
  ASSERT_EQ(t2.ops().size(), 2u);
  EXPECT_TRUE(t2.ops()[0].is_read());
  EXPECT_EQ(t2.ops()[0].value.writer, TxnId{1});
  EXPECT_EQ(t2.start_ts(), 11);
  EXPECT_EQ(t2.commit_ts(), 20);
}

TEST(Observations, IntermediateWritesCollapseAndPhantomReads) {
  History h = HistoryBuilder()
                  .begin(1).write(1, 0).write(1, 0).commit(1, 10)
                  .begin(2).read(TxnId{2}, kX, Version{TxnId{1}, 1}).commit(2, 20)
                  .build();
  model::TransactionSet obs = to_observations(h);
  EXPECT_EQ(obs.by_id(TxnId{1}).ops().size(), 1u);  // one final write
  const model::Operation& read = obs.by_id(TxnId{2}).ops()[0];
  EXPECT_TRUE(read.value.phantom);
}

TEST(Observations, AbortedReadsKeepDanglingWriter) {
  History h = HistoryBuilder()
                  .begin(1).write(1, 0).abort(1)
                  .begin(2).read(2, 0, 1).commit(2)
                  .build();
  model::TransactionSet obs = to_observations(h);
  EXPECT_EQ(obs.size(), 1u);
  EXPECT_FALSE(obs.contains(TxnId{1}));
  EXPECT_EQ(obs.by_id(TxnId{2}).ops()[0].value.writer, TxnId{1});
}

TEST(Observations, OwnReadsDropped) {
  History h = HistoryBuilder()
                  .begin(1).write(1, 0).read(1, 0, 1).commit(1)
                  .build();
  model::TransactionSet obs = to_observations(h);
  ASSERT_EQ(obs.by_id(TxnId{1}).ops().size(), 1u);
  EXPECT_TRUE(obs.by_id(TxnId{1}).ops()[0].is_write());
}

TEST(Observations, FromObservationsInvertsToObservations) {
  History h = HistoryBuilder()
                  .begin(1, 0).write(1, 0).commit(1, 10)
                  .begin(2, 12).read(2, 0, 1).write(2, 0).commit(2, 20)
                  .build();
  model::TransactionSet obs = to_observations(h);
  History h2 = pairwise::from_observations(obs, h.version_order());
  const Phenomena p1 = detect(h);
  const Phenomena p2 = detect(h2);
  for (IsolationLevel l : ct::kAllLevels) {
    EXPECT_EQ(satisfies(p1, l), satisfies(p2, l)) << ct::name_of(l);
  }
}

TEST(Observations, FromObservationsRejectsAmbiguousMultiWriterKeys) {
  model::TransactionSet obs{{model::TxnBuilder(1).write(0).build(),
                             model::TxnBuilder(2).write(0).build()}};
  EXPECT_THROW(pairwise::from_observations(obs, {}), std::invalid_argument);
  const model::CompiledHistory ch(obs);
  EXPECT_THROW(compile_install_orders(ch, nullptr), std::invalid_argument);
}

TEST(Observations, FromObservationsPhantomBecomesG1b) {
  model::TransactionSet obs{
      {model::TxnBuilder(1).write(0).build(),
       model::TxnBuilder(2).read_intermediate(Key{0}, TxnId{1}).build()}};
  History h = pairwise::from_observations(obs, {});
  EXPECT_TRUE(detect(h).g1b);
}

TEST(Observations, FromObservationsDanglingWriterBecomesG1a) {
  model::TransactionSet obs{{model::TxnBuilder(2).read(0, 77).build()}};
  History h = pairwise::from_observations(obs, {});
  EXPECT_TRUE(detect(h).g1a);
}

}  // namespace
}  // namespace crooks::adya
