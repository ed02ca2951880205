// Compiled-form counterparts of the Adya layer: install orders, DSG
// construction and phenomena detection straight from model::CompiledHistory,
// without lifting observations into a History first. The graph engine's hot
// path runs entirely on these; from_observations survives for the cold
// explanation path and the equivalence tests.
#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "adya/graph.hpp"
#include "adya/phenomena.hpp"

namespace crooks::adya {

namespace {

/// Does some read observe `id` as an unknown (non-member) writer? The
/// History path materializes such writers as synthetic *aborted*
/// transactions, which changes which validation error fires.
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
  // still reports first, as the History path does.
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
  // multi-writer key must be covered (from_observations' precondition).
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
  if (!ch.all_timestamped()) return false;
  const model::CompiledHistory::Adjacency& adj = ch.adjacency();
  for (model::TxnIdx b = 0; b < ch.size(); ++b) {
    for (model::TxnIdx a : adj.rt_preds.row(b)) edges_.push_back({a, b, kSD, Key{}});
  }
  index_edges();
  return true;
}

bool Dsg::add_realtime_edges(const model::CompiledHistory& ch) {
  if (!ch.all_timestamped()) return false;
  const model::CompiledHistory::Adjacency& adj = ch.adjacency();
  for (model::TxnIdx b = 0; b < ch.size(); ++b) {
    for (model::TxnIdx a : adj.rt_preds.row(b)) edges_.push_back({a, b, kRT, Key{}});
  }
  index_edges();
  return true;
}

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

}  // namespace

namespace {

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

}  // namespace crooks::adya
