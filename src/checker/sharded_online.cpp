// See sharded_online.hpp. Threading model of the threaded executor in one
// paragraph: ONE submitter (stage 1) pushes epoch tasks into per-shard
// bounded rings; each shard worker pops, decodes, and pushes a ShardResult
// into the shared result ring; the merge thread buffers results per epoch,
// and once all shards have reported an epoch it reassembles the batch and
// hands it to process_epoch strictly in epoch order. Every cross-thread
// handoff goes through a ring (release on push, acquire on pop), so no other
// synchronization is needed for the task/result payloads; `stopped_` is the
// only shared flag, and `result_` is merge-thread-private until finish()
// joins. The inline executor runs the same process_epoch from submit().
#include "checker/sharded_online.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <span>
#include <utility>

namespace crooks::checker {

namespace {

obs::Labels shard_labels(std::size_t shard) {
  return {{"shard", std::to_string(shard)}};
}

}  // namespace

ShardedOnlineChecker::ShardedOnlineChecker(Options opts, EpochCallback on_epoch)
    : opts_(std::move(opts)), on_epoch_(std::move(on_epoch)), chk_(opts_.levels) {
  chk_.set_window(opts_.window);
  if (opts_.on_checker) opts_.on_checker(chk_);
  if (opts_.shards != 0) start_threads();
}

ShardedOnlineChecker::~ShardedOnlineChecker() { finish(); }

void ShardedOnlineChecker::start_threads() {
  if (opts_.max_inflight_epochs == 0) opts_.max_inflight_epochs = 1;
  obs::Registry& reg = obs::Registry::global();
  merge_metrics_.emplace(MergeMetrics{
      reg.counter("crooks_ingest_epochs_total",
                  "Epochs appended by the pipelined ingest's merge stage"),
      reg.counter("crooks_ingest_merge_stalls_total",
                  "Times the merge stage found its result ring empty and parked"),
      reg.gauge("crooks_ingest_merge_queue_depth",
                "Shard results waiting in the merge stage's ring")});
  // Registered so scrapes show it at 0; nothing increments it.
  reg.counter("crooks_ingest_ring_dropped_total",
              "Blocks or results lost in an ingest ring (tripwire: must be "
              "0; full rings block the producer instead of dropping)");
  // Every shard can have all its in-flight epochs plus its stop marker
  // queued before the merge thread drains any of them.
  results_ = std::make_unique<MpmcQueue<std::unique_ptr<ShardResult>>>(
      opts_.shards * (opts_.max_inflight_epochs + 1));
  in_.reserve(opts_.shards);
  shard_metrics_.reserve(opts_.shards);
  for (std::size_t s = 0; s < opts_.shards; ++s) {
    // +1: the stop task must always fit behind a full complement of epochs.
    in_.push_back(std::make_unique<MpmcQueue<std::unique_ptr<ShardTask>>>(
        opts_.max_inflight_epochs + 1));
    shard_metrics_.push_back(ShardMetrics{
        reg.counter("crooks_ingest_blocks_total",
                    "Raw blocks decoded by an ingest shard", shard_labels(s)),
        reg.counter("crooks_ingest_shard_appends_total",
                    "Transactions decoded and shipped to the merge stage by "
                    "an ingest shard",
                    shard_labels(s)),
        reg.counter("crooks_ingest_submit_stalls_total",
                    "Times stage 1 found this shard's input ring full and "
                    "blocked (backpressure)",
                    shard_labels(s)),
        reg.counter("crooks_ingest_result_stalls_total",
                    "Times this shard found the result ring full and blocked",
                    shard_labels(s)),
        reg.gauge("crooks_ingest_queue_depth",
                  "Epoch tasks waiting in this shard's input ring",
                  shard_labels(s)),
        reg.histogram("crooks_ingest_shard_decode_seconds",
                      "Decode latency of one shard's slice of an epoch "
                      "(occupancy = sum over count)",
                      obs::latency_buckets_seconds(), shard_labels(s))});
  }

  shard_threads_.reserve(opts_.shards);
  for (std::size_t s = 0; s < opts_.shards; ++s) {
    shard_threads_.emplace_back([this, s] { shard_loop(s); });
  }
  merge_thread_ = std::thread([this] { merge_loop(); });
}

void ShardedOnlineChecker::submit_epoch(std::vector<RawBlock> blocks,
                                        EpochKind kind) {
  const std::uint64_t epoch = ++next_epoch_;
  if (opts_.shards == 0) {
    // Inline: decode in stream order (so the first failure is the first in
    // line order) straight into the batch — no routing, no sequence tags.
    DecodedBlock decoded;
    for (const RawBlock& block : blocks) {
      DecodedBlock one = opts_.decoder(block);
      if (!one.error.empty()) {
        decoded.error = std::move(one.error);
        decoded.error_line = one.error_line;
        break;
      }
      for (model::Transaction& t : one.txns) decoded.txns.push_back(std::move(t));
    }
    process_epoch(kind, epoch, std::move(decoded));
    return;
  }
  std::vector<std::unique_ptr<ShardTask>> tasks(opts_.shards);
  for (std::size_t s = 0; s < opts_.shards; ++s) {
    tasks[s] = std::make_unique<ShardTask>();
    tasks[s]->kind = kind;
    tasks[s]->epoch = epoch;
  }
  for (std::uint32_t seq = 0; seq < blocks.size(); ++seq) {
    const std::size_t s = blocks[seq].route % opts_.shards;
    tasks[s]->blocks.emplace_back(seq, std::move(blocks[seq]));
  }
  for (std::size_t s = 0; s < opts_.shards; ++s) {
    if (!in_[s]->try_push_ref(tasks[s])) {
      shard_metrics_[s].submit_stalls.inc();
      in_[s]->push(std::move(tasks[s]));
    }
    shard_metrics_[s].queue_depth.set(
        static_cast<std::int64_t>(in_[s]->approx_size()));
  }
}

bool ShardedOnlineChecker::submit(std::vector<RawBlock> blocks) {
  if (finished_ || stopped()) return false;
  if (blocks.empty()) return true;
  submit_epoch(std::move(blocks), EpochKind::kAppend);
  return true;
}

bool ShardedOnlineChecker::submit_error(std::vector<RawBlock> pending,
                                        std::uint64_t line,
                                        std::string message) {
  if (finished_ || stopped()) return false;
  // Written before the epoch's tasks are pushed; process_epoch reads the
  // fields only after this epoch's results were popped, so the ring's
  // release/acquire chain orders the accesses.
  stage1_error_epoch_ = next_epoch_ + 1;
  stage1_error_line_ = line;
  stage1_error_ = std::move(message);
  submit_epoch(std::move(pending), EpochKind::kValidateOnly);
  return true;
}

void ShardedOnlineChecker::shard_loop(std::size_t shard) {
  ShardMetrics& m = shard_metrics_[shard];
  MpmcQueue<std::unique_ptr<ShardTask>>& in = *in_[shard];
  for (;;) {
    std::unique_ptr<ShardTask> task = in.pop();
    m.queue_depth.set(static_cast<std::int64_t>(in.approx_size()));
    auto result = std::make_unique<ShardResult>();
    result->kind = task->kind;
    result->epoch = task->epoch;
    const bool stop = task->kind == EpochKind::kStop;
    // Once the pipeline stopped, later epochs are discarded by the merge
    // stage whole — skip the decode work, but still report the (empty)
    // result so the merge's per-epoch accounting stays complete.
    if (!stop && !stopped()) {
      const auto t0 = std::chrono::steady_clock::now();
      for (auto& [seq, block] : task->blocks) {
        m.blocks.inc();
        DecodedBlock decoded = opts_.decoder(block);
        if (!decoded.error.empty()) {
          // Blocks within a shard arrive in sequence (= line) order, so the
          // first failure is the shard's minimum; the rest of the slice
          // would be discarded with the epoch anyway.
          result->error = std::move(decoded.error);
          result->error_line = decoded.error_line;
          break;
        }
        for (model::Transaction& t : decoded.txns) {
          result->txns.emplace_back(seq, std::move(t));
        }
      }
      m.appends.inc(result->txns.size());
      if (obs::enabled()) {
        m.decode_seconds.observe(std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() - t0)
                                     .count());
      }
    }
    if (!results_->try_push_ref(result)) {
      m.result_stalls.inc();
      results_->push(std::move(result));
    }
    merge_metrics_->merge_depth.set(
        static_cast<std::int64_t>(results_->approx_size()));
    if (stop) return;
  }
}

void ShardedOnlineChecker::merge_loop() {
  std::map<std::uint64_t, std::vector<std::unique_ptr<ShardResult>>> pending;
  std::uint64_t next = 1;
  std::size_t stops_seen = 0;
  while (stops_seen < opts_.shards) {
    std::unique_ptr<ShardResult> r;
    if (!results_->try_pop(r)) {
      merge_metrics_->merge_stalls.inc();
      r = results_->pop();
    }
    merge_metrics_->merge_depth.set(
        static_cast<std::int64_t>(results_->approx_size()));
    if (r->kind == EpochKind::kStop) {
      ++stops_seen;
      continue;
    }
    std::vector<std::unique_ptr<ShardResult>>& bucket = pending[r->epoch];
    bucket.push_back(std::move(r));
    // Epochs complete out of order; append strictly in submission order.
    for (auto it = pending.find(next);
         it != pending.end() && it->second.size() == opts_.shards;
         it = pending.find(next)) {
      std::vector<std::unique_ptr<ShardResult>> batch = std::move(it->second);
      pending.erase(it);
      ++next;
      merge_epoch(std::move(batch));
    }
  }
  // Every task produced exactly one result and every shard's results precede
  // its stop marker, so nothing incomplete can remain once all stops arrived.
  assert(pending.empty());
}

void ShardedOnlineChecker::merge_epoch(
    std::vector<std::unique_ptr<ShardResult>> results) {
  // Shard decode errors are ordered by the failing block's first line.
  DecodedBlock decoded;
  for (std::unique_ptr<ShardResult>& r : results) {
    if (!r->error.empty() &&
        (decoded.error.empty() || r->error_line < decoded.error_line)) {
      decoded.error = std::move(r->error);
      decoded.error_line = r->error_line;
    }
  }
  if (decoded.error.empty()) {
    // Reassemble stream order: concatenate the shards' (seq, txn) pairs and
    // stable-sort by block sequence (stable keeps a block's transactions in
    // declaration order).
    std::vector<std::pair<std::uint32_t, model::Transaction>> seq_txns;
    std::size_t total = 0;
    for (const std::unique_ptr<ShardResult>& r : results) total += r->txns.size();
    seq_txns.reserve(total);
    for (std::unique_ptr<ShardResult>& r : results) {
      for (auto& st : r->txns) seq_txns.push_back(std::move(st));
    }
    std::stable_sort(seq_txns.begin(), seq_txns.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    decoded.txns.reserve(seq_txns.size());
    for (auto& [seq, txn] : seq_txns) decoded.txns.push_back(std::move(txn));
  }
  process_epoch(results.front()->kind, results.front()->epoch, std::move(decoded));
}

void ShardedOnlineChecker::process_epoch(EpochKind kind, std::uint64_t epoch,
                                         DecodedBlock decoded) {
  if (stopped()) return;  // a stopped pipeline discards later epochs whole

  // Error reconciliation: the first error in LINE order wins — a stage-1
  // stream error (always past every pending block) competes on its own line.
  const bool validate_only = kind == EpochKind::kValidateOnly;
  if (validate_only && epoch == stage1_error_epoch_ &&
      (decoded.error.empty() || stage1_error_line_ < decoded.error_line)) {
    decoded.error = stage1_error_;
  }
  if (!decoded.error.empty()) {
    result_.error = std::move(decoded.error);
    stopped_.store(true, std::memory_order_release);
    return;
  }
  if (validate_only) return;  // decoded clean; nothing is appended after stop
  // A decoder may legitimately produce no transactions: no batch, no report.
  const std::vector<model::Transaction>& batch = decoded.txns;
  if (batch.empty()) return;

  const OnlineChecker::Stats before = chk_.stats();
  const std::vector<ct::IsolationLevel> alive_before = chk_.surviving_levels();
  const auto t0 = std::chrono::steady_clock::now();
  const std::size_t accepted =
      chk_.append_all(std::span<const model::Transaction>(batch));
  const auto t1 = std::chrono::steady_clock::now();

  EpochReport rep;
  rep.epoch = ++result_.epochs;
  rep.transactions = accepted;
  rep.duplicates = chk_.stats().duplicates_ignored - before.duplicates_ignored;
  rep.seconds = std::chrono::duration<double>(t1 - t0).count();
  for (ct::IsolationLevel level : alive_before) {
    if (!chk_.status(level).ok) rep.died.push_back(level);
  }
  rep.checker = &chk_;
  rep.watermark = chk_.watermark();
  rep.resident_txns = chk_.resident_txns();
  rep.resident_ops = chk_.resident_ops();

  result_.transactions += accepted;
  result_.duplicates += rep.duplicates;
  if (merge_metrics_) merge_metrics_->epochs.inc();

  if (on_epoch_ && !on_epoch_(rep)) {
    stopped_.store(true, std::memory_order_release);
  }
}

const ShardedOnlineChecker::Result& ShardedOnlineChecker::finish() {
  if (finished_) return result_;
  finished_ = true;
  if (opts_.shards == 0) return result_;
  for (std::size_t s = 0; s < opts_.shards; ++s) {
    auto stop = std::make_unique<ShardTask>();
    stop->kind = EpochKind::kStop;
    in_[s]->push(std::move(stop));
  }
  for (std::thread& t : shard_threads_) t.join();
  merge_thread_.join();
  return result_;
}

}  // namespace crooks::checker
