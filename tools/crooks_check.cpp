// crooks-check: audit client observations for isolation violations.
//
//   crooks-check [OPTIONS] [FILE]
//
// Reads observations (see src/report/serialize.hpp for the format) from FILE
// or stdin and prints an isolation audit. Exit status: 0 when the requested
// level (or, by default, the weakest level ReadUncommitted) is satisfied,
// 1 on violation, 2 on usage/parse errors — including malformed or unknown
// isolation-level names, whether in --level/--levels or in the input's
// `level=` annotations (the error names every valid spelling).
//
// When the input carries `level=` annotations (or a `default-level`
// directive), or --levels is given, the single-verdict mode audits the
// history as a MIXED assignment: each transaction at its own level,
// unannotated ones at --level (else the file's default-level, else
// ReadUncommitted).
//
// Options:
//   --level=NAME     verdict/exit status for one level (e.g. Serializable;
//                    canonical names or the RU/RC/RA/SI/SER/SSER aliases).
//                    In mixed mode this is the default for unannotated txns.
//   --levels=ID=LEVEL[,ID=LEVEL...]
//                    per-transaction overrides by transaction id (as in the
//                    file format's `txn ID`, optionally T-prefixed), applied
//                    over the input's own level= annotations
//   --engine=NAME    force one engine (direct|graph|exhaustive) instead of the
//                    auto dispatch; the verdict is that engine's answer as-is,
//                    which may be UNDECIDED for levels it cannot decide
//   --threads=N      checker worker threads (0 = all cores, 1 = sequential)
//   --quiet          print only the verdict line
//   --follow         streaming audit: tail FILE (required), feeding each batch
//                    of appended transaction blocks to the incremental online
//                    checker and printing per-batch latency/verdict counters.
//                    The verdict judges the file's apply order itself (no `vo`
//                    lines allowed; offline mode owns the ∃e question).
//   --poll-ms=N      [follow] sleep between polls at end-of-file (default 50)
//   --idle-exit-ms=N [follow] exit after N ms without new input (default 0 =
//                    tail forever)
//   --max-blocks=N   [follow] exit after N audited batches (default 0 = no cap)
//   --window=N       [follow] bounded-memory audit: keep at most N transactions
//                    resident; the checker folds everything older into a
//                    summarized base and reclaims its memory, so the monitor
//                    can tail a stream forever. Verdicts are one-sided: a
//                    violation is never invented, and one is missed only when
//                    its witness reaches past the fold watermark (counted in
//                    crooks_online_past_window_* metrics)
//   --window-bytes=B [follow] same, but bound the resident-memory estimate in
//                    bytes; combines with --window (tighter limit wins)
//   --ingest-threads=N  [follow] executor of the ingest pipeline
//                    (checker::ShardedOnlineChecker). 0 (default) runs it
//                    inline on the reader thread; N >= 1 has N
//                    session-sharded workers decode transaction blocks in
//                    parallel while a merge thread runs the one
//                    authoritative checker, overlapping parse with check.
//                    Verdicts, witnesses, counters and forensics output are
//                    byte-identical at every N; only wall-clock changes
//   --metrics[=FILE] after the audit, dump the metrics registry in Prometheus
//                    text exposition format to FILE (stdout if omitted)
//   --metrics-json=FILE  same scrape as one JSON object
//   --metrics-every=N    [follow] print a `metrics {...}` JSON snapshot line
//                    every N audited batches
//   --forensics      violation forensics: aggregate every violation witness
//                    into the canonical pattern table and print the
//                    "violation forensics" section. Offline, the observations
//                    are replayed through the same OnlineChecker + Collector
//                    machinery --follow runs, so the table is byte-identical
//                    to a streaming audit of the same log. Under --follow,
//                    also prints a `forensics {...}` snapshot line alongside
//                    every metrics snapshot and on each level's death.
//                    Does not change the exit status.
//   --forensics-json=FILE  write the pattern table as one JSON object
//                    (implies --forensics); deterministic byte-for-byte for a
//                    given log across offline/--follow and thread counts
//   --trace=FILE     write JSONL trace spans/events (compile, extend, engine
//                    dispatch, search, online ingest) to FILE
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "forensics/collector.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "report/forensics_render.hpp"
#include "report/report.hpp"
#include "report/stream_audit.hpp"

using namespace crooks;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: crooks-check [--level=NAME] [--levels=ID=LEVEL,...]\n"
               "                    [--engine=NAME] [--threads=N]\n"
               "                    [--quiet] [--metrics[=FILE]] [--metrics-json=FILE]\n"
               "                    [--forensics] [--forensics-json=FILE]\n"
               "                    [--trace=FILE] [FILE]\n"
               "       crooks-check --follow [--level=NAME] [--quiet]\n"
               "                    [--poll-ms=N] [--idle-exit-ms=N] [--max-blocks=N]\n"
               "                    [--window=N] [--window-bytes=B]\n"
               "                    [--ingest-threads=N] [--metrics-every=N] [--forensics]\n"
               "                    [--forensics-json=FILE] FILE\n"
               "levels:");
  for (ct::IsolationLevel l : ct::kAllLevels) {
    std::fprintf(stderr, " %s", std::string(ct::name_of(l)).c_str());
  }
  std::fprintf(stderr, "\nengines: direct graph exhaustive\n");
  return 2;
}

std::optional<checker::EngineSelect> engine_by_name(const std::string& name) {
  if (name == "direct") return checker::EngineSelect::kDirect;
  if (name == "graph") return checker::EngineSelect::kGraph;
  if (name == "exhaustive") return checker::EngineSelect::kExhaustive;
  return std::nullopt;
}

/// Parse "ID=LEVEL[,ID=LEVEL...]" (ids as in the file format's `txn ID`,
/// optionally T-prefixed). Returns false after printing a specific error —
/// unknown level names list every valid spelling.
bool parse_levels_flag(const std::string& spec,
                       std::unordered_map<TxnId, ct::IsolationLevel>& out) {
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string item =
        spec.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0 || eq + 1 == item.size()) {
      std::fprintf(stderr, "malformed --levels entry '%s' (expected ID=LEVEL)\n",
                   item.c_str());
      return false;
    }
    std::string id_str = item.substr(0, eq);
    if (id_str[0] == 'T' || id_str[0] == 't') id_str.erase(0, 1);
    if (id_str.empty() ||
        id_str.find_first_not_of("0123456789") != std::string::npos ||
        id_str == "0") {
      std::fprintf(stderr,
                   "bad transaction id '%s' in --levels (positive integer, "
                   "optionally T-prefixed)\n",
                   item.substr(0, eq).c_str());
      return false;
    }
    const std::string level_str = item.substr(eq + 1);
    const auto lvl = ct::level_from_name(level_str);
    if (!lvl.has_value()) {
      std::fprintf(stderr, "unknown level '%s' in --levels; valid levels: %s\n",
                   level_str.c_str(), std::string(ct::kValidLevelNames).c_str());
      return false;
    }
    out[TxnId{std::stoull(id_str)}] = *lvl;
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return true;
}

bool parse_count(const std::string& value, std::size_t& out) {
  if (value.empty() || value.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  try {
    out = static_cast<std::size_t>(std::stoul(value));
  } catch (const std::exception&) {  // out of range
    return false;
  }
  return true;
}

/// Write the forensics JSON export; returns false after printing an error.
bool write_forensics_json(const std::string& path,
                          const forensics::PatternTable& table) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot open forensics file '%s'\n", path.c_str());
    return false;
  }
  out << report::forensics_json(table);
  return true;
}

/// Streaming audit of `file`, printing one line per audited batch plus an
/// announcement whenever a level records its first violation. Exit status
/// follows the requested level (default ReadUncommitted) at exit time.
int run_follow(const std::string& file, ct::IsolationLevel verdict_level,
               const report::StreamAuditOptions& base_opts, bool quiet,
               bool forensics, const std::string& forensics_json_file) {
  std::ifstream in(file);
  if (!in) {
    std::fprintf(stderr, "cannot open '%s'\n", file.c_str());
    return 2;
  }

  // The collector hooks the streaming checker's violation events: witnesses
  // are extracted at event time, while the failing transaction is resident.
  forensics::Collector collector;
  report::StreamAuditOptions opts = base_opts;
  if (forensics) {
    opts.on_checker = [&](checker::OnlineChecker& chk) { collector.attach(chk); };
  }

  const report::StreamAuditResult r = report::stream_audit(
      in, opts, [&](const report::StreamBlockReport& rep) {
        if (!quiet) {
          const double per_sec =
              rep.seconds > 0 ? static_cast<double>(rep.transactions) / rep.seconds
                              : 0.0;
          std::printf("block %llu: +%zu txns (%zu dup) in %.3f ms (%.0f txns/s), "
                      "%zu txns total, %zu/%zu levels alive",
                      static_cast<unsigned long long>(rep.block),
                      rep.transactions, rep.duplicates, rep.seconds * 1e3,
                      per_sec, rep.checker->size(),
                      rep.checker->surviving_levels().size(),
                      ct::kAllLevels.size());
          if (opts.window_txns != 0 || opts.window_bytes != 0) {
            std::printf(", watermark %llu, %zu resident",
                        static_cast<unsigned long long>(rep.watermark),
                        rep.resident_txns);
          }
          std::printf("\n");
        }
        for (ct::IsolationLevel dead : rep.died) {
          const auto& st = rep.checker->status(dead);
          std::printf("VIOLATION %s at txn %s: %s\n",
                      std::string(ct::name_of(dead)).c_str(),
                      st.first_violation.has_value()
                          ? crooks::to_string(*st.first_violation).c_str()
                          : "?",
                      st.explanation.c_str());
        }
        if (!rep.metrics_snapshot.empty()) {
          std::printf("metrics %s\n", rep.metrics_snapshot.c_str());
        }
        // Periodic pattern snapshots: alongside every metrics snapshot, and
        // whenever a level records its first violation (the moment an
        // operator wants the shape that killed it).
        if (forensics && (!rep.metrics_snapshot.empty() || !rep.died.empty())) {
          std::printf("forensics %s", report::forensics_json(collector.table()).c_str());
        }
        std::fflush(stdout);
        return true;
      });

  if (!r.error.empty()) {
    std::fprintf(stderr, "stream error: %s\n", r.error.c_str());
    return 2;
  }
  std::printf("audited %llu blocks, %zu transactions (%zu duplicates); "
              "surviving:",
              static_cast<unsigned long long>(r.blocks), r.transactions,
              r.duplicates);
  for (ct::IsolationLevel l : r.surviving) {
    std::printf(" %s", std::string(ct::name_of(l)).c_str());
  }
  std::printf("\n");
  // Checker totals for the whole run — the counters an operator needs to
  // judge how much a windowed audit may have under-reported.
  const checker::OnlineChecker::Stats& st = r.checker_stats;
  std::printf("checker stats: %llu compiled appends, %llu duplicates ignored, "
              "%llu retired (%llu ops reclaimed, %llu folds), "
              "%llu past-window reads, %llu past-window checks\n",
              static_cast<unsigned long long>(st.compiled_appends),
              static_cast<unsigned long long>(st.duplicates_ignored),
              static_cast<unsigned long long>(st.retired_txns),
              static_cast<unsigned long long>(st.retired_ops),
              static_cast<unsigned long long>(st.window_folds),
              static_cast<unsigned long long>(st.past_window_reads),
              static_cast<unsigned long long>(st.past_window_checks));
  if (forensics) {
    std::printf("%s", report::render_forensics(collector.table()).c_str());
    if (!forensics_json_file.empty() &&
        !write_forensics_json(forensics_json_file, collector.table())) {
      return 2;
    }
  }
  const auto it = r.statuses.find(verdict_level);
  return it != r.statuses.end() && it->second.ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<ct::IsolationLevel> requested;
  std::unordered_map<TxnId, ct::IsolationLevel> level_overrides;
  checker::EngineSelect engine = checker::EngineSelect::kAuto;
  bool quiet = false;
  bool follow = false;
  bool metrics = false;
  bool forensics = false;
  std::string forensics_json_file;  // empty = no JSON export
  std::string metrics_file;         // empty = stdout
  std::string metrics_json_file;    // empty = no JSON dump
  std::string trace_file;
  std::size_t threads = 0;  // 0 = hardware_concurrency
  report::StreamAuditOptions follow_opts;
  std::string file;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::size_t count = 0;
    if (arg.rfind("--level=", 0) == 0) {
      requested = ct::level_from_name(arg.substr(8));
      if (!requested.has_value()) {
        std::fprintf(stderr, "unknown level '%s'; valid levels: %s\n",
                     arg.substr(8).c_str(),
                     std::string(ct::kValidLevelNames).c_str());
        return usage();
      }
    } else if (arg.rfind("--levels=", 0) == 0) {
      if (!parse_levels_flag(arg.substr(9), level_overrides)) return usage();
    } else if (arg.rfind("--engine=", 0) == 0) {
      const auto sel = engine_by_name(arg.substr(9));
      if (!sel.has_value()) {
        std::fprintf(stderr, "unknown engine '%s'\n", arg.substr(9).c_str());
        return usage();
      }
      engine = *sel;
    } else if (arg.rfind("--threads=", 0) == 0 ||
               (arg == "--threads" && i + 1 < argc)) {
      const std::string value = arg == "--threads" ? argv[++i] : arg.substr(10);
      if (!parse_count(value, threads)) {
        std::fprintf(stderr, "bad thread count '%s'\n", value.c_str());
        return usage();
      }
    } else if (arg == "--follow") {
      follow = true;
    } else if (arg.rfind("--poll-ms=", 0) == 0) {
      if (!parse_count(arg.substr(10), count)) return usage();
      follow_opts.poll_ms = static_cast<int>(count);
    } else if (arg.rfind("--idle-exit-ms=", 0) == 0) {
      if (!parse_count(arg.substr(15), count)) return usage();
      follow_opts.idle_exit_ms = static_cast<int>(count);
    } else if (arg.rfind("--max-blocks=", 0) == 0) {
      if (!parse_count(arg.substr(13), count)) return usage();
      follow_opts.max_blocks = count;
    } else if (arg.rfind("--window=", 0) == 0) {
      if (!parse_count(arg.substr(9), count) || count == 0) return usage();
      follow_opts.window_txns = count;
    } else if (arg.rfind("--window-bytes=", 0) == 0) {
      if (!parse_count(arg.substr(15), count) || count == 0) return usage();
      follow_opts.window_bytes = count;
    } else if (arg.rfind("--ingest-threads=", 0) == 0) {
      if (!parse_count(arg.substr(17), count)) return usage();
      follow_opts.ingest_threads = count;
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg.rfind("--metrics=", 0) == 0) {
      metrics = true;
      metrics_file = arg.substr(10);
    } else if (arg.rfind("--metrics-json=", 0) == 0) {
      metrics_json_file = arg.substr(15);
    } else if (arg.rfind("--metrics-every=", 0) == 0) {
      if (!parse_count(arg.substr(16), count)) return usage();
      follow_opts.metrics_every = count;
    } else if (arg == "--forensics") {
      forensics = true;
    } else if (arg.rfind("--forensics-json=", 0) == 0) {
      forensics = true;
      forensics_json_file = arg.substr(17);
      if (forensics_json_file.empty()) return usage();
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_file = arg.substr(8);
      if (trace_file.empty()) return usage();
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      return usage();
    } else if (arg != "-" && !arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage();
    } else if (file.empty()) {
      file = arg;
    } else {
      return usage();
    }
  }

  if (!trace_file.empty() && !obs::Trace::open(trace_file)) {
    std::fprintf(stderr, "cannot open trace file '%s'\n", trace_file.c_str());
    return 2;
  }

  // Scrape the registry and close the trace sink on every exit path past
  // argument parsing, so `--metrics --level=X violating.txt` still dumps
  // metrics alongside its exit status 1.
  const auto finish = [&](int rc) {
    if (metrics) {
      const std::string text = obs::Registry::global().prometheus_text();
      if (metrics_file.empty()) {
        std::fputs(text.c_str(), stdout);
      } else if (std::ofstream out(metrics_file); out) {
        out << text;
      } else {
        std::fprintf(stderr, "cannot open metrics file '%s'\n", metrics_file.c_str());
        if (rc == 0) rc = 2;
      }
    }
    if (!metrics_json_file.empty()) {
      if (std::ofstream out(metrics_json_file); out) {
        out << obs::Registry::global().json() << "\n";
      } else {
        std::fprintf(stderr, "cannot open metrics file '%s'\n",
                     metrics_json_file.c_str());
        if (rc == 0) rc = 2;
      }
    }
    obs::Trace::close();
    return rc;
  };

  if (follow) {
    if (file.empty() || file == "-") {
      std::fprintf(stderr, "--follow requires a FILE (stdin cannot be tailed)\n");
      return finish(usage());
    }
    const ct::IsolationLevel verdict_level =
        requested.value_or(ct::IsolationLevel::kReadUncommitted);
    return finish(run_follow(file, verdict_level, follow_opts, quiet, forensics,
                             forensics_json_file));
  }

  report::Observations obs;
  try {
    if (file.empty() || file == "-") {
      obs = report::parse_observations(std::cin);
    } else {
      std::ifstream in(file);
      if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", file.c_str());
        return finish(2);
      }
      obs = report::parse_observations(in);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "parse error: %s\n", e.what());
    return finish(2);
  }

  checker::CheckOptions opts;
  opts.threads = threads;
  opts.engine = engine;
  if (obs.has_version_order()) opts.version_order = &obs.version_order;

  // --levels overrides or in-file level information switch the single-verdict
  // mode to a mixed per-transaction assignment; a plain --level on an
  // unannotated file is the exact global-level check as before.
  const bool mixed = !level_overrides.empty() || obs.has_level_annotations();
  if (requested.has_value() || mixed) {
    const ct::IsolationLevel fallback =
        requested.has_value()
            ? *requested
            : obs.default_level.value_or(ct::IsolationLevel::kReadUncommitted);
    checker::CheckResult r;
    std::string label{ct::name_of(fallback)};
    if (mixed) {
      // Dense compile order == declaration order, so the column is built
      // straight off the transaction set.
      std::vector<ct::IsolationLevel> column;
      column.reserve(obs.txns.size());
      std::unordered_map<TxnId, std::size_t> dense;
      for (const model::Transaction& t : obs.txns) {
        dense.emplace(t.id(), column.size());
        column.push_back(t.level().value_or(fallback));
      }
      for (const auto& [id, lvl] : level_overrides) {
        const auto it = dense.find(id);
        if (it == dense.end()) {
          std::fprintf(stderr, "--levels names unknown transaction %s\n",
                       crooks::to_string(id).c_str());
          return finish(2);
        }
        column[it->second] = lvl;
      }
      ct::LevelAssignment assignment(fallback, std::move(column));
      label = assignment.describe();
      r = checker::check(assignment, obs.txns, opts);
    } else {
      r = checker::check(fallback, obs.txns, opts);
    }
    std::printf("%s: %s\n", label.c_str(),
                r.satisfiable()     ? "SATISFIABLE"
                : r.unsatisfiable() ? "UNSATISFIABLE"
                                    : "UNDECIDED");
    if (!quiet && !r.detail.empty()) std::printf("%s\n", r.detail.c_str());
    if (!quiet && r.diagnosis.has_value()) {
      std::printf("%s", report::render_counterexample(*r.diagnosis).c_str());
    }
    if (forensics) {
      // Same replay --follow would do over this log; the verdict above is
      // unchanged by it.
      checker::OnlineChecker replay;
      forensics::Collector collector;
      collector.attach(replay);
      replay.append_all(obs.txns);
      if (!quiet) {
        std::printf("%s", report::render_forensics(collector.table()).c_str());
      }
      if (!forensics_json_file.empty() &&
          !write_forensics_json(forensics_json_file, collector.table())) {
        return finish(2);
      }
    }
    return finish(r.satisfiable() ? 0 : 1);
  }

  if (forensics) {
    const report::ForensicsAudit fa = report::audit_with_forensics(obs, opts);
    if (quiet) {
      std::printf("strongest: %s\n",
                  fa.base.strongest.has_value()
                      ? std::string(ct::name_of(*fa.base.strongest)).c_str()
                      : "none");
    } else {
      std::printf("%s", fa.base.text.c_str());
    }
    if (!forensics_json_file.empty() &&
        !write_forensics_json(forensics_json_file, fa.table)) {
      return finish(2);
    }
    return finish(fa.base.strongest.has_value() ? 0 : 1);
  }

  const report::AuditResult a = report::audit(obs, opts);
  if (quiet) {
    std::printf("strongest: %s\n",
                a.strongest.has_value() ? std::string(ct::name_of(*a.strongest)).c_str()
                                        : "none");
  } else {
    std::printf("%s", a.text.c_str());
  }
  return finish(a.strongest.has_value() ? 0 : 1);
}
