// See stream_audit.hpp. The loop deals with two realities of tailing a file
// another process writes: reads can catch the writer mid-line (a line without
// its newline yet — buffered in `partial` and completed on a later poll), and
// mid-block (a `txn` opened but its `end` not yet written — complete blocks
// are batched, the open one waits).
//
// The stream is consumed in three stages:
//   stage 1  Splitter — cuts the byte stream into complete RawBlocks and
//            owns ALL parser state that crosses block boundaries (the
//            `default-level` directive, the open-block accumulator, stream-
//            level errors). Downstream decoding is stateless per block.
//   stage 2  decode_block — RawBlock -> transactions via parse_observations,
//            with the directive applied to unannotated transactions. Pure:
//            safe to run on any thread.
//   stage 3  OnlineChecker::append_all per batch.
// This file is stage 1 and the read loop; it hands every batch (an epoch) to
// checker::ShardedOnlineChecker, which runs stages 2 and 3 inline on this
// thread (ingest_threads == 0) or on its shard and merge threads. The error
// contract — "first error in line order wins, and an error drops its whole
// batch" — lives there, once, for both executors.
#include "report/stream_audit.hpp"

#include <chrono>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "checker/sharded_online.hpp"
#include "obs/metrics.hpp"
#include "report/serialize.hpp"
#include "report/tokenizer.hpp"

namespace crooks::report {

namespace {

using Clock = std::chrono::steady_clock;

/// The follow-mode series: per-batch counters the CLI's human-format lines
/// are derived from (StreamBlockReport carries the same numbers — the
/// metrics layer is the source of truth, the printf renderer one consumer).
struct FollowMetrics {
  obs::Counter& batches;
  obs::Counter& txns;
  obs::Counter& duplicates;
  obs::Histogram& batch_seconds;
  obs::Gauge& levels_alive;

  static FollowMetrics& get() {
    static FollowMetrics m = [] {
      obs::Registry& r = obs::Registry::global();
      return FollowMetrics{
          r.counter("crooks_follow_batches_total",
                    "Non-empty batches audited by the streaming monitor"),
          r.counter("crooks_follow_txns_total",
                    "Transactions accepted by the streaming monitor"),
          r.counter("crooks_follow_duplicates_total",
                    "Duplicate transactions ignored by the streaming monitor"),
          r.histogram("crooks_follow_batch_seconds",
                      "append_all latency per audited batch"),
          r.gauge("crooks_follow_levels_alive",
                  "Tracked isolation levels not yet violated")};
    }();
    return m;
  }
};

/// Shard routing key of a block: the `session=` value on its `txn` header
/// line, 0 when absent or malformed (a malformed attribute routes anywhere —
/// the shard's parse produces the very same error message regardless).
std::uint64_t route_of(std::string_view txn_line) {
  LineTokens tokens(txn_line);
  for (std::string_view tok = tokens.next(); !tok.empty(); tok = tokens.next()) {
    if (tok.rfind("session=", 0) != 0) continue;
    std::uint32_t session = 0;
    return read_number(tok.substr(8), session) == std::errc() ? session : 0;
  }
  return 0;
}

/// Stage 2: decode one complete block. Pure — no shared state — so shard
/// workers may run it concurrently.
checker::DecodedBlock decode_block(const checker::RawBlock& block) {
  checker::DecodedBlock out;
  out.error_line = block.first_line;
  Observations obs;
  try {
    obs = parse_observations(block.text);
  } catch (const std::exception& e) {
    out.error = "block starting at line " + std::to_string(block.first_line) +
                ": " + e.what();
    return out;
  }
  out.txns.reserve(obs.txns.size());
  for (const model::Transaction& t : obs.txns) {
    if (block.default_level.has_value() && !t.level().has_value()) {
      // The directive in force when the block completed becomes the
      // transaction's level, exactly as an offline parse of the whole file
      // would assign it.
      out.txns.emplace_back(t.id(), t.ops(), t.session(), t.site(),
                            t.start_ts(), t.commit_ts(), block.default_level);
    } else {
      out.txns.push_back(t);
    }
  }
  return out;
}

/// Stage 1: line stream -> complete RawBlocks. Owns every piece of parser
/// state that crosses block boundaries; shard workers never touch it.
struct Splitter {
  std::vector<checker::RawBlock> pending;  // complete blocks since last flush
  std::optional<ct::IsolationLevel> default_level;
  std::uint64_t line_no = 0;
  bool in_block = false;

  // Stream-level error (a stage-1 fact, distinct from a block parse error).
  std::uint64_t error_line = 0;
  std::string error;  // formatted "line N: why"

  std::string open_block_;
  std::uint64_t open_block_line_ = 0;
  std::uint64_t open_route_ = 0;

  /// Consume one complete line; false on a stream-level error.
  bool consume(const std::string& line) {
    ++line_no;
    const std::string_view tok = LineTokens(line).next();
    if (in_block) {
      if (tok == "txn") return fail("'txn' inside an unfinished block");
      if (tok == "vo") return fail("'vo' inside an unfinished block");
      open_block_ += line;
      open_block_ += '\n';
      if (tok == "end") {
        in_block = false;
        pending.push_back(checker::RawBlock{std::move(open_block_),
                                            open_block_line_, open_route_,
                                            default_level});
        open_block_.clear();
      }
      return true;
    }
    if (tok.empty()) return true;  // blank or comment-only
    if (tok == "vo") {
      return fail(
          "version order ('vo') is not allowed in streaming mode: the "
          "monitor judges the apply order itself; use an offline check "
          "for the ∃e question");
    }
    if (tok == "default-level") {
      // Hoisted directive handling: resolved here, once, and stamped onto
      // every later block — the per-block decoders stay stateless.
      LineTokens toks(line);
      toks.next();  // "default-level"
      const std::string_view name = toks.next();
      if (name.empty() || !toks.next().empty()) {
        return fail("default-level needs: default-level <name>");
      }
      const auto level = ct::level_from_name(name);
      if (!level.has_value()) {
        return fail("unknown isolation level '" + std::string(name) +
                    "' (valid: " + std::string(ct::kValidLevelNames) + ")");
      }
      default_level = *level;
      return true;
    }
    if (tok != "txn") return fail("expected 'txn', got '" + std::string(tok) + "'");
    in_block = true;
    open_block_line_ = line_no;
    open_route_ = route_of(line);
    open_block_ = line;
    open_block_ += '\n';
    return true;
  }

  bool fail(std::string why) {
    error_line = line_no;
    error = "line " + std::to_string(line_no) + ": " + why;
    return false;
  }
};

}  // namespace

StreamAuditResult stream_audit(
    std::istream& in, const StreamAuditOptions& opts,
    const std::function<bool(const StreamBlockReport&)>& on_block) {
  checker::ShardedOnlineChecker::Options pipe_opts;
  pipe_opts.shards = opts.ingest_threads;
  pipe_opts.levels = opts.levels;
  pipe_opts.window = {opts.window_txns, opts.window_bytes};
  pipe_opts.decoder = decode_block;
  pipe_opts.on_checker = opts.on_checker;

  // Per-epoch adapter, invoked sequentially (inline, or on the merge thread).
  auto on_epoch = [&](const checker::ShardedOnlineChecker::EpochReport& er) {
    StreamBlockReport rep;
    rep.block = er.epoch;
    rep.transactions = er.transactions;
    rep.duplicates = er.duplicates;
    rep.seconds = er.seconds;
    rep.died = er.died;
    rep.checker = er.checker;
    rep.watermark = er.watermark;
    rep.resident_txns = er.resident_txns;
    rep.resident_ops = er.resident_ops;
    if (obs::enabled()) {
      FollowMetrics& m = FollowMetrics::get();
      m.batches.inc();
      m.txns.inc(er.transactions);
      m.duplicates.inc(er.duplicates);
      m.batch_seconds.observe(er.seconds);
      m.levels_alive.set(
          static_cast<std::int64_t>(er.checker->surviving_levels().size()));
    }
    if (opts.metrics_every != 0 && er.epoch % opts.metrics_every == 0) {
      rep.metrics_snapshot = obs::Registry::global().json();
    }
    bool keep = !on_block || on_block(rep);
    if (opts.max_blocks != 0 && er.epoch >= opts.max_blocks) keep = false;
    return keep;
  };
  checker::ShardedOnlineChecker pipeline(std::move(pipe_opts), on_epoch);

  Splitter splitter;
  std::string partial;  // line fragment read before its newline
  std::string line;
  std::uint64_t submitted = 0;
  bool failed = false;
  Clock::time_point last_input = Clock::now();

  for (;;) {
    if (std::getline(in, line)) {
      last_input = Clock::now();
      if (in.eof()) {
        // The writer hasn't finished this line yet; hold it for later polls.
        partial += line;
        continue;
      }
      if (!splitter.consume(partial + line)) {
        failed = true;
        break;
      }
      partial.clear();
      continue;
    }
    // Caught up with the stream: submit everything complete, then poll.
    if (opts.max_blocks != 0 && submitted + 1 >= opts.max_blocks &&
        splitter.in_block && !partial.empty() && LineTokens(partial).next() == "end") {
      // This epoch is the last one --max-blocks allows, and the open block's
      // `end` already arrived minus its newline. The idle-exit path below
      // would treat such a fragment as the complete final line, but
      // max_blocks ends the loop first — so the fully-delivered block would
      // silently never be audited. Complete it here instead, so it joins the
      // final epoch (`end` as a complete line cannot be a stream error).
      splitter.consume(partial);
      partial.clear();
    }
    if (!splitter.pending.empty()) {
      ++submitted;
      const bool accepted = pipeline.submit(std::move(splitter.pending));
      splitter.pending.clear();
      if (!accepted) break;
    }
    if (pipeline.stopped()) break;
    if (opts.max_blocks != 0 && submitted >= opts.max_blocks) break;
    if (opts.idle_exit_ms > 0 &&
        Clock::now() - last_input >= std::chrono::milliseconds(opts.idle_exit_ms)) {
      break;
    }
    in.clear();
    std::this_thread::sleep_for(std::chrono::milliseconds(opts.poll_ms));
  }
  if (!failed && !pipeline.stopped() && !partial.empty()) {
    // The writer exited without a trailing newline (idle-exit fired with a
    // buffered fragment): treat the fragment as the complete final line so a
    // block whose `end` lacks the newline is still audited.
    if (!splitter.consume(partial)) failed = true;
    partial.clear();
  }
  if (failed) {
    // Validate-only epoch: pending blocks are decoded so an earlier block's
    // parse error wins over the stream error, but never appended.
    pipeline.submit_error(std::move(splitter.pending), splitter.error_line,
                          splitter.error);
  } else if (!splitter.pending.empty()) {
    pipeline.submit(std::move(splitter.pending));
  }

  const checker::ShardedOnlineChecker::Result& fin = pipeline.finish();
  StreamAuditResult result;
  result.blocks = fin.epochs;
  result.transactions = fin.transactions;
  result.duplicates = fin.duplicates;
  result.error = fin.error;

  const checker::OnlineChecker& chk = pipeline.checker();
  result.surviving = chk.surviving_levels();
  for (ct::IsolationLevel level : opts.levels) {
    result.statuses.emplace(level, chk.status(level));
  }
  result.checker_stats = chk.stats();
  return result;
}

}  // namespace crooks::report
