// Constructive graph engine: the ⇐ directions of the equivalence theorems,
// turned into an algorithm.
//
// Timed SI family (ANSI / Session / Strong SI): the C-ORD clause forces any
// witness execution to apply transactions in real-time commit order, so the
// commit-timestamp-sorted order is the *only* candidate — testing it decides
// satisfiability outright (Theorems 7–9's constructions).
//
// Untimed levels with an authoritative version order: intern the order
// against the compiled history, detect phenomena (the theorems' ⇒
// contrapositive gives unsatisfiability), and on the absence of phenomena
// construct the witness by topologically sorting the serialization graph with
// exactly the edge set each theorem's ⇐ proof uses (A.2, A.4, A.5, B.2, E.2).
//
// The engine runs entirely on model::CompiledHistory — phenomena, graph
// edges, explanations, commit-order candidates and witness verification all
// share the one compiled form (the TransactionSet overloads compile once and
// delegate), and one Dsg per check.
//
// Everything found is re-verified against the canonical commit tests before
// being reported — the engine never returns an unchecked witness.
#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>
#include <tuple>

#include "adya/graph.hpp"
#include "adya/phenomena.hpp"
#include "checker/checker.hpp"
#include "checker/engine_obs.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace crooks::checker {

namespace {

using ct::IsolationLevel;
using model::CompiledHistory;
using model::TxnIdx;

/// Effort accounting for the graph engine, mirroring the exhaustive engine's
/// local-tally-then-flush discipline: nodes = transactions commit-tested plus
/// topo queue pops, edges = DSG edges walked. Accumulated locally during one
/// check and copied into CheckResult / the registry by the check_graph
/// wrapper.
struct GraphEffort {
  std::uint64_t nodes = 0;
  std::uint64_t edges = 0;
};

/// Kahn topological sort over the DSG edges selected by `mask`, breaking
/// ties toward smaller commit timestamp then smaller id (deterministic,
/// and commit order is the natural witness). Requires a Dsg built from `ch`
/// (node i == dense index i). Time-chain nodes are popped as soon as they
/// are ready, ahead of any transaction, so a transaction becomes ready at
/// exactly the step it would under the pairwise real-time edges: the order
/// is the one the pairwise graph yields. Empty result on a cycle.
std::vector<TxnId> topo_order(const adya::Dsg& dsg, std::uint8_t mask,
                              const CompiledHistory& ch, GraphEffort& eff) {
  const std::size_t n = dsg.size();
  std::vector<std::size_t> indegree(dsg.node_count(), 0);
  for (const adya::Edge& e : dsg.edges()) {
    if (!(e.kind & mask)) continue;
    ++indegree[e.to];
    ++eff.edges;
  }

  // Min-heap on (commit_ts, id); the keys ride in the heap entries so a
  // comparison never reaches back into the history's columns.
  using Ready = std::tuple<Timestamp, TxnId, std::size_t>;
  std::priority_queue<Ready, std::vector<Ready>, std::greater<>> ready;
  std::vector<std::size_t> time_ready;
  auto push = [&](std::size_t v) {
    if (dsg.is_time_node(v)) {
      time_ready.push_back(v);
      return;
    }
    const auto d = static_cast<TxnIdx>(v);
    ready.emplace(ch.commit_ts(d), ch.id_of(d), v);
  };
  for (std::size_t i = 0; i < dsg.node_count(); ++i) {
    if (indegree[i] == 0) push(i);
  }

  std::vector<TxnId> order;
  order.reserve(n);
  while (!time_ready.empty() || !ready.empty()) {
    std::size_t u;
    if (!time_ready.empty()) {
      u = time_ready.back();
      time_ready.pop_back();
    } else {
      u = std::get<2>(ready.top());
      ready.pop();
      ++eff.nodes;
      order.push_back(dsg.id_of(u));
    }
    for (const adya::Arc& e : dsg.out_edges(u)) {
      if ((e.kind & mask) != 0 && --indegree[e.to] == 0) push(e.to);
    }
  }
  if (order.size() != n) {
    if (obs::Trace::active()) {
      obs::Trace::event("graph.cycle",
                        obs::TraceFields()
                            .add("sorted", static_cast<std::uint64_t>(order.size()))
                            .add("n", static_cast<std::uint64_t>(n)));
    }
    return {};  // cycle
  }
  return order;
}

/// Edge set each level's constructive proof sorts by.
std::uint8_t witness_mask(IsolationLevel level) {
  switch (level) {
    case IsolationLevel::kReadUncommitted: return adya::kWW;
    case IsolationLevel::kReadCommitted:
    case IsolationLevel::kReadAtomic:
    case IsolationLevel::kPSI: return adya::kDependency;
    case IsolationLevel::kSerializable: return adya::kAllDsg;
    case IsolationLevel::kStrictSerializable: return adya::kAllDsg | adya::kRT;
    default: return 0;
  }
}

CheckResult verified_sat(IsolationLevel level, const CompiledHistory& ch,
                         std::vector<TxnId> order, std::string how,
                         GraphEffort& eff) {
  model::Execution e(ch.txns(), std::move(order));
  eff.nodes += ch.size();  // one commit test per transaction
  if (ct::ExecutionVerdict v = verify_witness(level, ch, e); !v.ok) {
    return {Outcome::kUnknown, std::nullopt,
            "internal: constructed witness failed verification (" + v.explanation + ")",
            0};
  }
  return {Outcome::kSatisfiable, std::move(e), std::move(how), 0};
}

/// The commit-timestamp-sorted execution; nullopt when timestamps are
/// missing or commit timestamps collide.
std::optional<std::vector<TxnId>> commit_sorted(const CompiledHistory& ch) {
  const std::size_t n = ch.size();
  std::vector<TxnIdx> ds(n);
  std::iota(ds.begin(), ds.end(), TxnIdx{0});
  for (TxnIdx d = 0; d < n; ++d) {
    if (ch.commit_ts(d) == kNoTimestamp) return std::nullopt;
  }
  std::sort(ds.begin(), ds.end(), [&](TxnIdx a, TxnIdx b) {
    if (ch.commit_ts(a) != ch.commit_ts(b)) return ch.commit_ts(a) < ch.commit_ts(b);
    return a < b;  // collision → rejected below; keep the sort a total order
  });
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (ch.commit_ts(ds[i]) == ch.commit_ts(ds[i + 1])) return std::nullopt;
  }
  std::vector<TxnId> order;
  order.reserve(n);
  for (TxnIdx d : ds) order.push_back(ch.id_of(d));
  return order;
}

/// The engine body. Fills `eff`; the public wrapper below copies the effort
/// into the result, stamps the engine name, attaches the refutation
/// diagnosis and reports to the metrics/trace layers.
CheckResult check_graph_impl(IsolationLevel level, const CompiledHistory& ch,
                             const CheckOptions& opts, GraphEffort& eff) {
  // Timestamp-requiring levels are unsatisfiable as soon as one transaction
  // is outside the time oracle (same convention as the exhaustive engine's
  // precheck). Gating here keeps the heuristic path below from "verifying"
  // an SSER candidate whose real-time clauses hold only vacuously because
  // the missing timestamps make every real-time predecessor set empty.
  if (ct::requires_timestamps(level)) {
    for (TxnIdx d = 0; d < ch.size(); ++d) {
      if (!ch.has_timestamps(d)) {
        CheckResult r{Outcome::kUnsatisfiable, std::nullopt,
                      std::string(ct::name_of(level)) +
                          " requires the time oracle; no timestamps on " +
                          crooks::to_string(ch.id_of(d)),
                      0};
        ReadDiagnosis diag;
        diag.txn = ch.id_of(d);
        diag.clause = r.detail;
        diag.candidate_execution = "time-oracle precheck (no candidate needed)";
        r.diagnosis = std::move(diag);
        return r;
      }
    }
  }

  // --- Timed SI family: C-ORD pins the execution to commit order. ---------
  if (level == IsolationLevel::kAnsiSI || level == IsolationLevel::kSessionSI ||
      level == IsolationLevel::kStrongSI) {
    auto order = commit_sorted(ch);
    if (!order.has_value()) {
      return {Outcome::kUnsatisfiable, std::nullopt,
              "C-ORD needs distinct commit timestamps", 0};
    }
    model::Execution e(ch.txns(), std::move(*order));
    eff.nodes += ch.size();
    ct::ExecutionVerdict v = verify_witness(level, ch, e);
    if (v.ok) {
      return {Outcome::kSatisfiable, std::move(e),
              "commit test passes on the commit-order execution (the only "
              "order satisfying C-ORD)",
              0};
    }
    return {Outcome::kUnsatisfiable, std::nullopt,
            "C-ORD pins the execution to commit-timestamp order, on which: " +
                v.explanation,
            0};
  }

  // --- Untimed levels with an authoritative version order: phenomena. -----
  if (opts.version_order != nullptr && level != IsolationLevel::kAdyaSI) {
    const adya::InstallOrders io = adya::compile_install_orders(ch, opts.version_order);
    // Level-scoped detection: asking about a weak level must not build the
    // SI-family start/real-time edge sets, which are Θ(n²) on serial
    // histories. Every untimed level consults a DSG phenomenon, so the
    // graph is built once here and shared with the witness sort below.
    adya::Dsg dsg(ch, io);
    const adya::Phenomena p = adya::detect(ch, io, level, &dsg);
    const adya::Verdict verdict = adya::satisfies(p, level);
    if (verdict == adya::Verdict::kViolated) {
      return {Outcome::kUnsatisfiable, std::nullopt,
              "under the system's install order: " +
                  adya::explain_violation(ch, level, dsg, p),
              0};
    }
    if (verdict == adya::Verdict::kSatisfied) {
      std::uint8_t mask = witness_mask(level);
      if (level == IsolationLevel::kStrictSerializable) {
        if (!dsg.add_realtime_edges(ch)) {
          return {Outcome::kUnsatisfiable, std::nullopt,
                  "StrictSerializable requires the time oracle", 0};
        }
      }
      std::vector<TxnId> order = topo_order(dsg, mask, ch, eff);
      if (!order.empty()) {
        return verified_sat(level, ch, std::move(order),
                            "witness from topological sort of the serialization "
                            "graph (no phenomena under the install order)",
                            eff);
      }
      return {Outcome::kUnknown, std::nullopt,
              "internal: phenomena absent but serialization graph cyclic", 0};
    }
    // kInapplicable (e.g. SSER without timestamps): fall through.
  }

  // --- Heuristic: try natural candidate orders, verify each. --------------
  std::vector<std::pair<std::string, std::vector<TxnId>>> candidates;
  if (auto cs = commit_sorted(ch); cs.has_value()) {
    candidates.emplace_back("commit-timestamp order", std::move(*cs));
  }
  {
    // Dependency topological order using the observations' wr edges plus
    // whatever ww edges a version order pins (if none: single-writer keys).
    try {
      const adya::InstallOrders io =
          adya::compile_install_orders(ch, opts.version_order);
      adya::Dsg dsg(ch, io);
      std::vector<TxnId> order =
          topo_order(dsg, level == IsolationLevel::kSerializable ||
                              level == IsolationLevel::kStrictSerializable
                          ? adya::kAllDsg
                          : adya::kDependency,
                     ch, eff);
      if (!order.empty()) candidates.emplace_back("dependency topological order", order);
    } catch (const std::invalid_argument&) {
      // multi-writer keys without version order: no dependency candidate
    }
  }

  for (auto& [how, order] : candidates) {
    model::Execution e(ch.txns(), std::move(order));
    eff.nodes += ch.size();
    if (verify_witness(level, ch, e).ok) {
      CheckResult r{Outcome::kSatisfiable, std::move(e),
                    "heuristic: " + how + " verified", 0};
      r.engine = "heuristic";
      return r;
    }
  }
  CheckResult r{Outcome::kUnknown, std::nullopt,
                "no candidate order verified; graph engine is incomplete here", 0};
  r.engine = "heuristic";
  return r;
}

/// Mixed-level graph engine. Three tiers, all per-transaction-verified:
///
///  * every level present in the timed SI family → C-ORD holds at *every*
///    placement, so the commit-sorted order is still the only candidate and
///    testing it (each transaction at its own level) is decisive;
///  * refutation at the meet of the present levels — each transaction's own
///    level is at least as strong as the meet (see ct::meet_of), so CT_{A(T)}
///    implies CT_meet transaction by transaction and "no execution satisfies
///    the meet uniformly" refutes the mix. A meet-level *witness* proves
///    nothing by itself and is demoted to a candidate;
///  * heuristic candidate orders verified against the per-transaction tests.
CheckResult check_graph_impl(const ct::LevelAssignment& levels,
                             const CompiledHistory& ch, const CheckOptions& opts,
                             GraphEffort& eff) {
  // Per-transaction timestamp precheck: only a transaction whose own level
  // is timed needs the oracle (same convention as the exhaustive engine).
  for (TxnIdx d = 0; d < ch.size(); ++d) {
    const IsolationLevel lvl = levels.of(d);
    if (!ct::requires_timestamps(lvl) || ch.has_timestamps(d)) continue;
    CheckResult r{Outcome::kUnsatisfiable, std::nullopt,
                  std::string(ct::name_of(lvl)) +
                      " requires the time oracle; no timestamps on " +
                      crooks::to_string(ch.id_of(d)),
                  0};
    ReadDiagnosis diag;
    diag.txn = ch.id_of(d);
    diag.clause = r.detail;
    diag.candidate_execution = "time-oracle precheck (no candidate needed)";
    diag.level = lvl;
    r.diagnosis = std::move(diag);
    return r;
  }

  if (levels.all_in({IsolationLevel::kAnsiSI, IsolationLevel::kSessionSI,
                     IsolationLevel::kStrongSI})) {
    auto order = commit_sorted(ch);
    if (!order.has_value()) {
      return {Outcome::kUnsatisfiable, std::nullopt,
              "C-ORD needs distinct commit timestamps", 0};
    }
    model::Execution e(ch.txns(), std::move(*order));
    eff.nodes += ch.size();
    ct::ExecutionVerdict v = verify_witness(levels, ch, e);
    if (v.ok) {
      return {Outcome::kSatisfiable, std::move(e),
              "per-transaction commit tests pass on the commit-order execution "
              "(every level present pins C-ORD)",
              0};
    }
    return {Outcome::kUnsatisfiable, std::nullopt,
            "C-ORD pins the execution to commit-timestamp order, on which: " +
                v.explanation,
            0};
  }

  // Meet-level tier. Genuinely mixed non-timed-SI assignments always meet at
  // an untimed level (no timed level sits below an untimed one in the
  // lattice), so this never trips the meet's own timestamp precheck.
  const IsolationLevel meet = levels.meet();
  CheckResult at_meet = check_graph(meet, ch, opts);
  eff.nodes += at_meet.nodes_explored;
  eff.edges += at_meet.edges_visited;
  if (at_meet.outcome == Outcome::kUnsatisfiable) {
    return {Outcome::kUnsatisfiable, std::nullopt,
            "refuted at the meet level " + std::string(ct::name_of(meet)) +
                " (every transaction's own level is at least as strong): " +
                at_meet.detail,
            0};
  }
  if (at_meet.outcome == Outcome::kSatisfiable && at_meet.witness.has_value()) {
    eff.nodes += ch.size();
    model::Execution e = *std::move(at_meet.witness);
    if (verify_witness(levels, ch, e).ok) {
      return {Outcome::kSatisfiable, std::move(e),
              "meet-level (" + std::string(ct::name_of(meet)) +
                  ") witness verified against the per-transaction commit tests",
              0};
    }
  }

  // Heuristic tier: natural candidate orders, each verified per transaction.
  std::vector<std::pair<std::string, std::vector<TxnId>>> candidates;
  if (auto cs = commit_sorted(ch); cs.has_value()) {
    candidates.emplace_back("commit-timestamp order", std::move(*cs));
  }
  try {
    const adya::InstallOrders io =
        adya::compile_install_orders(ch, opts.version_order);
    adya::Dsg dsg(ch, io);
    const std::uint8_t mask =
        levels.present(IsolationLevel::kSerializable) ||
                levels.present(IsolationLevel::kStrictSerializable)
            ? adya::kAllDsg
            : adya::kDependency;
    std::vector<TxnId> order = topo_order(dsg, mask, ch, eff);
    if (!order.empty()) candidates.emplace_back("dependency topological order", order);
  } catch (const std::invalid_argument&) {
    // multi-writer keys without version order: no dependency candidate
  }
  for (auto& [how, order] : candidates) {
    model::Execution e(ch.txns(), std::move(order));
    eff.nodes += ch.size();
    if (verify_witness(levels, ch, e).ok) {
      CheckResult r{Outcome::kSatisfiable, std::move(e),
                    "heuristic: " + how + " verified", 0};
      r.engine = "heuristic";
      return r;
    }
  }
  CheckResult r{Outcome::kUnknown, std::nullopt,
                "no candidate order verified; graph engine is incomplete for "
                "this level mix",
                0};
  r.engine = "heuristic";
  return r;
}

}  // namespace

CheckResult check_graph(IsolationLevel level, const CompiledHistory& ch,
                        const CheckOptions& opts) {
  if (ch.size() == 0) {
    return {Outcome::kSatisfiable, model::Execution::identity(ch.txns()), "empty set", 0};
  }
  if (auto refused = engine_obs::refuse_retired(ch)) return *std::move(refused);
  static obs::Histogram& graph_latency = engine_obs::check_latency("graph");
  static obs::Counter& edges_total = obs::Registry::global().counter(
      "crooks_graph_edges_visited_total",
      "Serialization-graph edges walked by the graph engine");
  obs::TraceSpan span("engine.graph");
  obs::ScopedTimer timer(graph_latency);
  GraphEffort eff;
  CheckResult result = check_graph_impl(level, ch, opts, eff);
  result.nodes_explored = eff.nodes;
  result.edges_visited = eff.edges;
  if (result.engine.empty()) result.engine = "graph";
  if (result.unsatisfiable() && !result.diagnosis) {
    result.diagnosis = explain_refutation(level, ch);
  }
  if (obs::enabled()) {
    engine_obs::checks_counter(result.engine, result.outcome).inc();
    if (eff.edges != 0) edges_total.inc(eff.edges);
  }
  span.field("level", ct::name_of(level))
      .field("n", static_cast<std::uint64_t>(ch.size()))
      .field("engine", result.engine)
      .field("nodes", eff.nodes)
      .field("edges", eff.edges)
      .field("outcome", engine_obs::outcome_word(result.outcome));
  return result;
}

CheckResult check_graph(IsolationLevel level, const model::TransactionSet& txns,
                        const CheckOptions& opts) {
  const CompiledHistory ch(txns);
  return check_graph(level, ch, opts);
}

CheckResult check_graph(const ct::LevelAssignment& levels, const CompiledHistory& ch,
                        const CheckOptions& opts) {
  if (levels.is_uniform()) return check_graph(levels.fallback(), ch, opts);
  if (ch.size() == 0) {
    return {Outcome::kSatisfiable, model::Execution::identity(ch.txns()), "empty set", 0};
  }
  if (auto refused = engine_obs::refuse_retired(ch)) return *std::move(refused);
  static obs::Histogram& graph_latency = engine_obs::check_latency("graph");
  obs::TraceSpan span("engine.graph");
  obs::ScopedTimer timer(graph_latency);
  GraphEffort eff;
  CheckResult result = check_graph_impl(levels, ch, opts, eff);
  result.nodes_explored = eff.nodes;
  result.edges_visited = eff.edges;
  if (result.engine.empty()) result.engine = "graph";
  if (result.unsatisfiable() && !result.diagnosis) {
    result.diagnosis = explain_refutation(levels, ch);
  }
  if (obs::enabled()) {
    engine_obs::checks_counter(result.engine, result.outcome).inc();
  }
  span.field("level", levels.describe())
      .field("n", static_cast<std::uint64_t>(ch.size()))
      .field("engine", result.engine)
      .field("nodes", eff.nodes)
      .field("edges", eff.edges)
      .field("outcome", engine_obs::outcome_word(result.outcome));
  return result;
}

namespace {

CheckResult check_dispatch(IsolationLevel level, const CompiledHistory& ch,
                           const CheckOptions& opts) {
  // Explicit engine selection bypasses the tiering and reports the chosen
  // engine's verdict as-is (possibly kUnknown — forcing is honest, never a
  // silent substitution).
  switch (opts.engine) {
    case EngineSelect::kDirect: return check_direct(level, ch, opts);
    case EngineSelect::kGraph: return check_graph(level, ch, opts);
    case EngineSelect::kExhaustive: return check_exhaustive(level, ch, opts);
    case EngineSelect::kAuto: break;
  }

  // Direct tier first: near-linear single-pass decision for the weak levels.
  // Complete for RC/RA; kUnknown only on an oversized undecided PSI instance,
  // which falls through to the complete engines below.
  if (direct_eligible(level)) {
    CheckResult r = check_direct(level, ch, opts);
    if (r.outcome != Outcome::kUnknown) return r;
  }

  // Complete graph decisions next (polynomial).
  const bool timed_pinned = level == IsolationLevel::kAnsiSI ||
                            level == IsolationLevel::kSessionSI ||
                            level == IsolationLevel::kStrongSI;
  const bool vo_complete =
      opts.version_order != nullptr &&
      (level == IsolationLevel::kReadUncommitted ||
       level == IsolationLevel::kReadCommitted ||
       level == IsolationLevel::kReadAtomic || level == IsolationLevel::kPSI ||
       level == IsolationLevel::kSerializable ||
       level == IsolationLevel::kStrictSerializable);

  if (timed_pinned || vo_complete) {
    CheckResult r = check_graph(level, ch, opts);
    if (r.outcome != Outcome::kUnknown) return r;
  }
  if (ch.size() <= opts.exhaustive_threshold) {
    return check_exhaustive(level, ch, opts);
  }
  CheckResult r = check_graph(level, ch, opts);
  if (r.outcome != Outcome::kUnknown) return r;

  // Hierarchy inference for the one large-instance gap: timestamp-free
  // Adya SI has no complete polynomial procedure here, but the lattice is
  // sound in both directions — a serializable witness also witnesses SI
  // (SER ⇒ AdyaSI), and an unsatisfiable PSI refutes SI (AdyaSI ⇒ PSI).
  if (level == IsolationLevel::kAdyaSI) {
    CheckResult ser = check_graph(IsolationLevel::kSerializable, ch, opts);
    if (ser.outcome == Outcome::kSatisfiable &&
        verify_witness(level, ch, *ser.witness).ok) {
      ser.detail += " (serializable witness also satisfies CT_SI)";
      ser.engine = "hierarchy";
      return ser;
    }
    CheckResult psi = check_graph(IsolationLevel::kPSI, ch, opts);
    if (psi.outcome == Outcome::kUnsatisfiable) {
      psi.detail = "refuted via the hierarchy (AdyaSI ⇒ PSI): " + psi.detail;
      psi.engine = "hierarchy";
      return psi;
    }
  }

  // Last resort: bounded exhaustive search may still find a witness quickly
  // (the candidate ordering starts from commit order).
  return check_exhaustive(level, ch, opts);
}

/// Mixed-level tiering. Same shape as the global-level dispatch: direct when
/// every level present is direct-eligible, the decisive graph path when the
/// whole assignment pins C-ORD, then the complete exhaustive search (bounded
/// by the threshold), with the graph engine's meet-refutation/heuristic tier
/// covering large instances before the final exhaustive resort.
CheckResult check_dispatch(const ct::LevelAssignment& levels,
                           const CompiledHistory& ch, const CheckOptions& opts) {
  switch (opts.engine) {
    case EngineSelect::kDirect: return check_direct(levels, ch, opts);
    case EngineSelect::kGraph: return check_graph(levels, ch, opts);
    case EngineSelect::kExhaustive: return check_exhaustive(levels, ch, opts);
    case EngineSelect::kAuto: break;
  }

  if (direct_eligible(levels)) {
    CheckResult r = check_direct(levels, ch, opts);
    if (r.outcome != Outcome::kUnknown) return r;
  }

  if (levels.all_in({IsolationLevel::kAnsiSI, IsolationLevel::kSessionSI,
                     IsolationLevel::kStrongSI})) {
    CheckResult r = check_graph(levels, ch, opts);
    if (r.outcome != Outcome::kUnknown) return r;
  }

  if (ch.size() <= opts.exhaustive_threshold) {
    return check_exhaustive(levels, ch, opts);
  }
  CheckResult r = check_graph(levels, ch, opts);
  if (r.outcome != Outcome::kUnknown) return r;
  return check_exhaustive(levels, ch, opts);
}

}  // namespace

CheckResult check(IsolationLevel level, const CompiledHistory& ch,
                  const CheckOptions& opts) {
  if (auto refused = engine_obs::refuse_retired(ch)) return *std::move(refused);
  obs::TraceSpan span("check.dispatch");
  CheckResult result = check_dispatch(level, ch, opts);
  span.field("level", ct::name_of(level))
      .field("n", static_cast<std::uint64_t>(ch.size()))
      .field("engine", result.engine)
      .field("outcome", engine_obs::outcome_word(result.outcome));
  return result;
}

CheckResult check(IsolationLevel level, const model::TransactionSet& txns,
                  const CheckOptions& opts) {
  const CompiledHistory ch(txns);
  return check(level, ch, opts);
}

CheckResult check(const ct::LevelAssignment& levels, const CompiledHistory& ch,
                  const CheckOptions& opts) {
  // A uniform assignment IS the global-level question; delegating keeps the
  // two APIs verdict-, witness- and diagnosis-identical by construction.
  if (levels.is_uniform()) return check(levels.fallback(), ch, opts);
  if (auto refused = engine_obs::refuse_retired(ch)) return *std::move(refused);
  obs::TraceSpan span("check.dispatch");
  CheckResult result = check_dispatch(levels, ch, opts);
  span.field("level", levels.describe())
      .field("n", static_cast<std::uint64_t>(ch.size()))
      .field("engine", result.engine)
      .field("outcome", engine_obs::outcome_word(result.outcome));
  return result;
}

CheckResult check(const ct::LevelAssignment& levels, const model::TransactionSet& txns,
                  const CheckOptions& opts) {
  const CompiledHistory ch(txns);
  return check(levels, ch, opts);
}

}  // namespace crooks::checker
