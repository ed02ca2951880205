#include "adya/phenomena.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace crooks::adya {

namespace {

// Fractured reads (Appendix B.1): T reads x written (finally) by T_i; T_i
// also finally wrote y; T reads a version of y strictly older than T_i's.
bool detect_fractured(const model::CompiledHistory& ch, const InstallOrders& io) {
  for (model::TxnIdx d = 0; d < ch.size(); ++d) {
    const model::OpsView ops = ch.ops(d);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const std::uint8_t m1 = ops.flags(i);
      if ((m1 & (model::kOpWrite | model::kOpInitWriter | model::kOpSelfWriter |
                 model::kOpUnknownWriter)) != 0) {
        continue;
      }
      if ((m1 & (model::kOpPhantom | model::kOpWriterMissesKey)) != 0) {
        continue;  // r1 must observe the writer's final version
      }
      const model::TxnIdx wi = ops.writer(i);
      for (std::size_t j = 0; j < ops.size(); ++j) {
        const std::uint8_t m2 = ops.flags(j);
        if ((m2 & (model::kOpWrite | model::kOpSelfWriter)) != 0) continue;
        const std::ptrdiff_t wi_pos = io.rank_of(ch, wi, ops.key(j));
        if (wi_pos < 0) continue;  // T_i does not write y
        // Install position of r2's observed writer: -1 for ⊥, skip if absent.
        std::ptrdiff_t read_pos = -1;
        if ((m2 & model::kOpInitWriter) == 0) {
          if ((m2 & model::kOpUnknownWriter) != 0) continue;
          read_pos = io.rank_of(ch, ops.writer(j), ops.key(j));
          if (read_pos < 0) continue;
        }
        if (read_pos < wi_pos) return true;
      }
    }
  }
  return false;
}

/// Which phenomena a level's verdict actually consults (the clauses of
/// satisfies(p, level)). Everything defaults off; detect_scoped() skips the
/// machinery behind anything not requested.
struct Needs {
  bool g0 = false;
  bool g1 = false;        // g1a + g1b + g1c
  bool g2 = false;
  bool g_single = false;
  bool fractured = false;
  bool si = false;        // g_si_a + g_si_b (start-dependency edges)
  bool rt = false;        // rt_cycle (real-time edges)
};

Needs needs_of(ct::IsolationLevel level) {
  using L = ct::IsolationLevel;
  Needs n;
  switch (level) {
    case L::kReadUncommitted:
      n.g0 = true;
      break;
    case L::kReadCommitted:
      n.g1 = true;
      break;
    case L::kReadAtomic:
      n.g1 = n.fractured = true;
      break;
    case L::kPSI:
      n.g1 = n.g_single = true;
      break;
    case L::kAnsiSI:
      n.g1 = n.si = true;
      break;
    case L::kSerializable:
      n.g1 = n.g2 = true;
      break;
    case L::kStrictSerializable:
      n.g1 = n.g2 = n.rt = true;
      break;
    case L::kAdyaSI:
    case L::kSessionSI:
    case L::kStrongSI:
      break;  // kInapplicable: no phenomena consulted
  }
  return n;
}

Phenomena detect_scoped(const model::CompiledHistory& ch, const InstallOrders& io,
                        const Needs& want, const Dsg* prebuilt) {
  Phenomena p;

  // G1a / G1b are single flag tests: a dirty read *is* an unknown-writer op,
  // an intermediate read *is* a phantom or writer-misses-key op.
  if (want.g1) {
    for (model::TxnIdx d = 0; d < ch.size(); ++d) {
      const model::OpsView cops = ch.ops(d);
      for (std::size_t i = 0; i < cops.size(); ++i) {
        const std::uint8_t m = cops.flags(i);
        if ((m & (model::kOpWrite | model::kOpInitWriter | model::kOpSelfWriter)) != 0) {
          continue;
        }
        if ((m & model::kOpUnknownWriter) != 0) {
          p.g1a = true;
        } else if ((m & (model::kOpPhantom | model::kOpWriterMissesKey)) != 0) {
          p.g1b = true;
        }
      }
    }
  }
  if (want.fractured) p.fractured = detect_fractured(ch, io);

  const bool want_dsg = want.g0 || want.g1 || want.g2 || want.g_single ||
                        want.si || want.rt;
  if (!want_dsg) return p;

  std::optional<Dsg> built;
  const Dsg& dsg = prebuilt != nullptr ? *prebuilt : built.emplace(ch, io);
  if (want.g0) p.g0 = dsg.has_cycle(kWW);
  if (want.g1) p.g1c = dsg.has_cycle(kDependency);
  // G2 = some cycle contains an anti-dependency edge ⟺ some rw edge (u,v)
  // is closed by a path v →* u over arbitrary DSG edges. With the path
  // restricted to dependency edges the cycle has *exactly* one rw: G-Single.
  if (want.g2) p.g2 = dsg.cycle_with_exactly_one(kRW, kAllDsg);
  if (want.g_single) p.g_single = dsg.cycle_with_exactly_one(kRW, kDependency);

  if (want.si) {
    Dsg ssg = dsg;  // start / real-time edges are additive: copy, don't rebuild
    if (ssg.add_start_edges(ch)) {
      // G-SIa: a ww/wr edge without a corresponding start-dependency edge.
      bool sia = false;
      for (const Edge& e : ssg.edges()) {
        if (e.kind != kWW && e.kind != kWR) continue;
        if (!(ch.commit_ts(static_cast<model::TxnIdx>(e.from)) <
              ch.start_ts(static_cast<model::TxnIdx>(e.to)))) {
          sia = true;
          break;
        }
      }
      p.g_si_a = sia;
      p.g_si_b = ssg.cycle_with_exactly_one(kRW, kDependency | kSD);
    }
  }

  if (want.rt) {
    Dsg rt = dsg;
    if (rt.add_realtime_edges(ch)) {
      p.rt_cycle = rt.has_cycle(kAllDsg | kRT);
    }
  }
  return p;
}

}  // namespace

Phenomena detect(const model::CompiledHistory& ch, const InstallOrders& io) {
  Needs all;
  all.g0 = all.g1 = all.g2 = all.g_single = all.fractured = all.si = all.rt = true;
  return detect_scoped(ch, io, all, nullptr);
}

Phenomena detect(const model::CompiledHistory& ch, const InstallOrders& io,
                 ct::IsolationLevel level, const Dsg* dsg) {
  return detect_scoped(ch, io, needs_of(level), dsg);
}

Verdict satisfies(const Phenomena& p, ct::IsolationLevel level) {
  using L = ct::IsolationLevel;
  switch (level) {
    case L::kReadUncommitted:
      return p.g0 ? Verdict::kViolated : Verdict::kSatisfied;
    case L::kReadCommitted:
      return p.g1() ? Verdict::kViolated : Verdict::kSatisfied;
    case L::kReadAtomic:
      return (p.g1() || p.fractured) ? Verdict::kViolated : Verdict::kSatisfied;
    case L::kPSI:
      return (p.g1() || p.g_single) ? Verdict::kViolated : Verdict::kSatisfied;
    case L::kAdyaSI:
      // Adya's SI quantifies start/commit points existentially ("logical
      // timestamps consistent with the transactions' observations", §5.2);
      // phenomena against the *recorded* points decide ANSI SI instead.
      // Deciding timestamp-free SI is exactly what the state-based checker
      // is for — report inapplicable here.
      return Verdict::kInapplicable;
    case L::kAnsiSI:
      if (!p.g_si_a.has_value()) return Verdict::kInapplicable;
      return (p.g1() || *p.g_si_a || *p.g_si_b) ? Verdict::kViolated
                                                : Verdict::kSatisfied;
    case L::kSerializable:
      return (p.g1() || p.g2) ? Verdict::kViolated : Verdict::kSatisfied;
    case L::kStrictSerializable:
      if (!p.rt_cycle.has_value()) return Verdict::kInapplicable;
      return (p.g1() || p.g2 || *p.rt_cycle) ? Verdict::kViolated
                                             : Verdict::kSatisfied;
    case L::kSessionSI:
    case L::kStrongSI:
      return Verdict::kInapplicable;
  }
  return Verdict::kInapplicable;
}

namespace {

std::string render_cycle(const std::vector<TxnId>& cycle) {
  std::string out;
  for (TxnId id : cycle) out += crooks::to_string(id) + " -> ";
  if (!cycle.empty()) out += crooks::to_string(cycle.front());
  return out;
}

}  // namespace

std::string explain_violation(const model::CompiledHistory& ch, const InstallOrders& io,
                              ct::IsolationLevel level, const Dsg* dsg) {
  std::optional<Dsg> built;
  const Dsg& g = dsg != nullptr ? *dsg : built.emplace(ch, io);
  return explain_violation(ch, level, g, detect(ch, io, level, &g));
}

std::string explain_violation(const model::CompiledHistory& ch, ct::IsolationLevel level,
                              const Dsg& g, const Phenomena& p) {
  if (satisfies(p, level) != Verdict::kViolated) return {};

  using L = ct::IsolationLevel;
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
      Dsg ssg = g;
      ssg.add_start_edges(ch);
      return "G-SIb (missed effects): " +
             render_cycle(ssg.find_cycle_with_exactly_one(kRW, kDependency | kSD));
    }
    case L::kSerializable:
      return "G2 (anti-dependency cycle): " +
             render_cycle(g.find_cycle_with_exactly_one(kRW, kAllDsg));
    case L::kStrictSerializable: {
      if (p.g2) {
        return "G2 (anti-dependency cycle): " +
               render_cycle(g.find_cycle_with_exactly_one(kRW, kAllDsg));
      }
      Dsg rt = g;
      rt.add_realtime_edges(ch);
      return "real-time violation: " + render_cycle(rt.find_cycle(kAllDsg | kRT));
    }
    default:
      return "violated";
  }
}

std::string Phenomena::to_string() const {
  std::string s;
  auto add = [&](const char* name, bool v) {
    if (v) s += s.empty() ? name : std::string(",") + name;
  };
  add("G0", g0);
  add("G1a", g1a);
  add("G1b", g1b);
  add("G1c", g1c);
  add("G2", g2);
  add("G-Single", g_single);
  add("fractured", fractured);
  add("G-SIa", g_si_a.value_or(false));
  add("G-SIb", g_si_b.value_or(false));
  add("RT-cycle", rt_cycle.value_or(false));
  return s.empty() ? "none" : s;
}

}  // namespace crooks::adya
