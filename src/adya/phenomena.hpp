// Adya's phenomena (Definition A.7) and per-level history verdicts
// (Definition A.8), plus Bailis's fractured reads (Appendix B), computed on
// the compiled form: one Adya implementation, shared by the graph engine,
// the report and the explanations.
//
// Verdicts are computed with respect to the history's recorded version order
// and (where applicable) its recorded start/commit points. This matches how
// the equivalence theorems instantiate both (e.g. Theorem 1's ⇒ direction
// instantiates << from the execution order). A store's Adya History reaches
// them by projection: to_observations(h), compiled, with
// compile_install_orders(ch, &h.version_order()).
#pragma once

#include <optional>
#include <string>

#include "adya/graph.hpp"
#include "committest/levels.hpp"

namespace crooks::adya {

struct Phenomena {
  bool g0 = false;        // write cycles
  bool g1a = false;       // dirty (aborted) reads
  bool g1b = false;       // intermediate reads
  bool g1c = false;       // circular information flow
  bool g2 = false;        // anti-dependency cycles
  bool g_single = false;  // single anti-dependency cycles
  bool fractured = false; // fractured reads (read atomic)
  std::optional<bool> g_si_a;  // interference   (needs timestamps)
  std::optional<bool> g_si_b;  // missed effects (needs timestamps)
  std::optional<bool> rt_cycle;  // DSG ∪ real-time edges cyclic (strict ser)

  bool g1() const { return g1a || g1b || g1c; }

  std::string to_string() const;
};

/// Every phenomenon. G1a, G1b and fractured reads fall out of the
/// precomputed per-op flags (a dirty read *is* an unknown-writer op; an
/// intermediate read *is* a phantom or writer-misses-key op); the graph
/// phenomena reuse one Dsg, copied — not rebuilt — for the timestamped
/// variants, whose start / real-time edges are a linear time chain.
Phenomena detect(const model::CompiledHistory& ch, const InstallOrders& io);

/// Level-scoped variant: computes only the phenomena satisfies(p, level)
/// consults and leaves the rest at their defaults (asking about Read
/// Committed builds no time chain and runs no fractured-read scan). The
/// full detect() above is the reference the tests pin this against. A
/// caller that already holds Dsg(ch, io) passes it as `dsg` and it is not
/// built again (the graph engine sorts its witness over the same graph).
Phenomena detect(const model::CompiledHistory& ch, const InstallOrders& io,
                 ct::IsolationLevel level, const Dsg* dsg = nullptr);

enum class Verdict {
  kSatisfied,
  kViolated,
  kInapplicable,  // the level's phenomena need data the history lacks
                  // (timestamps), or the level has no Adya-style definition
};

/// Does the history satisfy the isolation level, per the history-based
/// definitions the paper proves equivalent to its commit tests?
///   RU: ¬G0                      (Theorem 4)
///   RC: ¬G1                      (Theorem 3)
///   RA: ¬G1 ∧ ¬fractured         (Theorem 6)
///   PSI/PL-2+: ¬G1 ∧ ¬G-Single   (Theorem 10)
///   ANSI SI: ¬G1 ∧ ¬G-SI with the history's real start/commit points
///            (Theorem 2's construction, instantiated at the recorded times)
///   SER: ¬G1 ∧ ¬G2               (Theorem 1)
///   SSER: SER ∧ no DSG∪RT cycle
/// Adya SI (timestamp-free) existentially quantifies the start/commit
/// points, and Session/Strong SI have no phenomena-style definition in
/// Adya's framework; those are decided by the state-based checker instead.
Verdict satisfies(const Phenomena& p, ct::IsolationLevel level);

/// Phenomenon-level diagnosis for a violated level, including a concrete
/// conflict cycle when one exists (e.g. "G-Single (single anti-dependency
/// cycle): T3 -> T5 -> T3"). Empty when the history satisfies the level (or
/// the level is inapplicable). Computes only the level's phenomena, on
/// `dsg` when the caller already built Dsg(ch, io). A cycle lists
/// transactions only; consecutive ones are joined by a DSG edge or, where
/// the cycle crosses the time chain, satisfy commit < start.
std::string explain_violation(const model::CompiledHistory& ch, const InstallOrders& io,
                              ct::IsolationLevel level, const Dsg* dsg = nullptr);

/// The same, for a caller that already holds Dsg(ch, io) and the level's
/// phenomena `p` = detect(ch, io, level, &g): nothing is detected again.
std::string explain_violation(const model::CompiledHistory& ch, ct::IsolationLevel level,
                              const Dsg& g, const Phenomena& p);

}  // namespace crooks::adya
