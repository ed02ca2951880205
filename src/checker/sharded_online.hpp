// The streaming monitor's ingest pipeline, with an inline or a threaded
// executor.
//
// Every `crooks-check --follow` batch goes through this class: stage 1
// (report::stream_audit, on the caller's thread) splits the raw byte stream
// into complete transaction blocks, resolves the `default-level` directive,
// and submits one EPOCH (= one flush batch) at a time. The epoch's blocks are
// then decoded (stage 2) and appended to the ONE authoritative OnlineChecker
// (stage 3) by process_epoch — the single place where errors are reconciled,
// append_all runs and the per-batch report is built. Options::shards picks
// the executor:
//
//   shards == 0  inline: submit() decodes the epoch's blocks in stream order
//                and runs process_epoch on the calling thread. No threads, no
//                rings, no `crooks_ingest_*` series — the plain serial
//                monitor, doing exactly the serial work and nothing more.
//   shards >= 1  threaded: blocks are routed by session to N shard workers
//                that decode in parallel (the expensive, embarrassingly
//                parallel part: tokenizing and building Transactions costs
//                microseconds, appending tens of nanoseconds); a merge thread
//                reassembles each epoch in stream order and runs the same
//                process_epoch.
//
// Admissibility is deliberately NOT sharded: PREREAD, the RA fracture
// comparison, per-key timelines and the PSI PREC closure are all properties
// of the global apply-order prefix, so a session-local verdict would be
// unsound. Keeping one authoritative checker makes the strict contract hold
// by construction: verdicts, first-violation witnesses, Stats totals and
// forensics JSON are byte-identical at every shard count (0 included) and
// under windowing — threads change wall-clock only.
//
// Threaded transport is the bounded Vyukov MpmcQueue
// (common/thread_pool.hpp): a full ring blocks the producer (backpressure),
// so a slow merge stage throttles the shards and the shards throttle stage 1
// — nothing is ever dropped, and crooks_ingest_ring_dropped_total exists
// purely as a tripwire asserting so. The merge stage buffers shard results
// until every shard has reported an epoch and processes epochs strictly in
// submission order.
//
// Errors reconcile to one rule under both executors: the first error in LINE
// order wins, and an epoch with any error is discarded whole.
//
// The block decoder is injected (`BlockDecoder`) rather than calling
// report::parse_observations directly: the checker library stays independent
// of the report/serialization layer, the differential tests can wrap any
// decoder, and a future ingest adapter (e.g. Elle/Jepsen EDN histories) plugs
// in a different decoder without touching the pipeline.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "checker/online.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace crooks::checker {

/// One complete `txn … end` block as cut from the raw stream by stage 1.
struct RawBlock {
  std::string text;           ///< the block's lines, newline-terminated
  std::uint64_t first_line = 0;  ///< absolute line number of its `txn` line
  /// Shard routing key (the session id of the block's transaction; 0 when
  /// sessionless or unparsable — a malformed block may route anywhere, its
  /// decode error is identical on every shard).
  std::uint64_t route = 0;
  /// The `default-level` directive in force when the block completed; the
  /// decoder applies it to unannotated transactions. Resolved by stage 1 so
  /// shard workers never share parser state.
  std::optional<ct::IsolationLevel> default_level;
};

/// A decoded block, or a decode failure. The pipeline uses the same shape
/// for a whole decoded epoch (its blocks' transactions in stream order, or
/// its first failure in line order).
struct DecodedBlock {
  std::vector<model::Transaction> txns;
  /// Non-empty on failure: the fully formatted error message (the pipeline
  /// reports it verbatim). error_line orders concurrent failures — the
  /// smallest line wins.
  std::string error;
  std::uint64_t error_line = 0;
};

using BlockDecoder = std::function<DecodedBlock(const RawBlock&)>;

class ShardedOnlineChecker {
 public:
  struct Options {
    /// Decode shard workers (stage 2). 0 runs the pipeline inline on the
    /// submitting thread; one shard already pipelines decode against check
    /// on separate threads.
    std::size_t shards = 2;
    /// Epochs stage 1 may run ahead of the merge stage before submit()
    /// blocks (per-shard input-ring capacity; unused inline).
    std::size_t max_inflight_epochs = 4;
    /// Levels the authoritative checker tracks.
    std::vector<ct::IsolationLevel> levels = {ct::kAllLevels.begin(),
                                              ct::kAllLevels.end()};
    /// Bounded-memory window, applied to the authoritative checker.
    OnlineChecker::WindowOptions window{};
    /// REQUIRED: turns a RawBlock into transactions (on a shard worker, or
    /// inline). Must be thread-safe for concurrent calls on distinct blocks.
    BlockDecoder decoder;
    /// Invoked once on the freshly constructed checker before any thread
    /// starts (the forensics Collector attaches here).
    std::function<void(OnlineChecker&)> on_checker;
  };

  /// One appended epoch, reported after its append_all. Mirrors
  /// report::StreamBlockReport's checker-derived fields.
  struct EpochReport {
    std::uint64_t epoch = 0;       ///< 1-based batch number
    std::size_t transactions = 0;  ///< accepted by the checker
    std::size_t duplicates = 0;
    double seconds = 0;  ///< append_all latency
    std::vector<ct::IsolationLevel> died;
    const OnlineChecker* checker = nullptr;
    std::uint64_t watermark = 0;
    std::size_t resident_txns = 0;
    std::size_t resident_ops = 0;
  };
  /// Runs on the merge thread (inline: inside submit(), on the submitting
  /// thread); calls are strictly sequential, in epoch order. Returning false
  /// stops the pipeline after this epoch (later epochs are discarded).
  using EpochCallback = std::function<bool(const EpochReport&)>;

  ShardedOnlineChecker(Options opts, EpochCallback on_epoch = {});
  ~ShardedOnlineChecker();  // finish()es if the caller did not

  ShardedOnlineChecker(const ShardedOnlineChecker&) = delete;
  ShardedOnlineChecker& operator=(const ShardedOnlineChecker&) = delete;

  /// Submit one epoch of complete blocks (stage 1's flush boundary, so batch
  /// numbering and metrics totals line up at every shard count). Threaded,
  /// blocks are partitioned by `route` across the shard rings; inline, the
  /// epoch is decoded and processed before submit() returns. An empty vector
  /// is a no-op. Returns false once the pipeline has stopped (error or
  /// callback), in which case the epoch is discarded. Single-producer: one
  /// thread submits.
  bool submit(std::vector<RawBlock> blocks);

  /// Stage 1 hit a stream-level error at `line` (a `vo` line, a `txn` inside
  /// an unfinished block, an unknown directive …). The pending blocks are
  /// decoded for validation but never appended; the reported error is the
  /// first in line order among their decode errors and this one (an earlier
  /// block's parse error precedes a later stream error). Stops the pipeline.
  bool submit_error(std::vector<RawBlock> pending, std::uint64_t line,
                    std::string message);

  /// True once an error or a false-returning callback stopped the pipeline.
  /// Stage 1 polls this to stop reading input early.
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  struct Result {
    std::uint64_t epochs = 0;  ///< appended epochs
    std::size_t transactions = 0;
    std::size_t duplicates = 0;
    std::string error;  ///< first error in line order; empty on clean exit
  };

  /// Drain the pipeline and join all threads (inline: nothing to drain).
  /// Idempotent; after it returns the checker is quiescent and may be read
  /// from the calling thread.
  const Result& finish();

  /// The authoritative checker. Threaded, only the merge thread touches it
  /// while the pipeline runs; call finish() first (or read from the epoch
  /// callback).
  const OnlineChecker& checker() const { return chk_; }

  std::size_t shards() const { return in_.size(); }

 private:
  /// kValidateOnly epochs come from submit_error: decoded, never appended.
  enum class EpochKind : std::uint8_t { kAppend, kValidateOnly, kStop };
  struct ShardTask {
    EpochKind kind = EpochKind::kAppend;
    std::uint64_t epoch = 0;
    /// (sequence within epoch, block): sequence restores stream order at
    /// the merge after shards decode out of order.
    std::vector<std::pair<std::uint32_t, RawBlock>> blocks;
  };
  struct ShardResult {
    EpochKind kind = EpochKind::kAppend;
    std::uint64_t epoch = 0;
    std::vector<std::pair<std::uint32_t, model::Transaction>> txns;
    std::string error;
    std::uint64_t error_line = 0;
  };
  /// Per-shard cached metric references (labels are resolved once here, not
  /// per block on the hot path).
  struct ShardMetrics {
    obs::Counter& blocks;
    obs::Counter& appends;
    obs::Counter& submit_stalls;
    obs::Counter& result_stalls;
    obs::Gauge& queue_depth;
    obs::Histogram& decode_seconds;
  };
  /// Merge-stage series; registered only by the threaded executor.
  struct MergeMetrics {
    obs::Counter& epochs;
    obs::Counter& merge_stalls;
    obs::Gauge& merge_depth;
  };

  void start_threads();
  void submit_epoch(std::vector<RawBlock> blocks, EpochKind kind);
  void shard_loop(std::size_t shard);
  void merge_loop();
  /// Threaded: reassemble one epoch's shard results into stream order.
  void merge_epoch(std::vector<std::unique_ptr<ShardResult>> results);
  /// Both executors: reconcile the epoch's error against a stage-1 error,
  /// then append, report and run the callback. `decoded` holds the epoch's
  /// transactions in stream order, or its first decode error in line order.
  void process_epoch(EpochKind kind, std::uint64_t epoch, DecodedBlock decoded);

  Options opts_;
  EpochCallback on_epoch_;
  OnlineChecker chk_;

  std::atomic<bool> stopped_{false};
  std::uint64_t next_epoch_ = 0;  // submit thread only
  // Stage-1 error, written by submit_error BEFORE its epoch is pushed and
  // read by process_epoch AFTER that epoch's results were popped (the ring's
  // release/acquire pair orders the accesses; inline, one thread does both).
  std::uint64_t stage1_error_epoch_ = 0;
  std::uint64_t stage1_error_line_ = 0;
  std::string stage1_error_;

  Result result_;  // process_epoch's thread until finish(), then the caller
  bool finished_ = false;

  // Threaded executor only; all empty inline.
  std::optional<MergeMetrics> merge_metrics_;
  std::vector<std::unique_ptr<MpmcQueue<std::unique_ptr<ShardTask>>>> in_;
  std::unique_ptr<MpmcQueue<std::unique_ptr<ShardResult>>> results_;
  std::vector<ShardMetrics> shard_metrics_;
  std::vector<std::thread> shard_threads_;
  std::thread merge_thread_;
};

}  // namespace crooks::checker
