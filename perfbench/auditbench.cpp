// auditbench: the end-to-end and layer-by-layer benchmark of the isolation
// auditor.
//
//   auditbench --workload NAME --seed N --seconds S --trace 0|1
//
// One seeded in-process generator feeds two workloads (see README.md):
//
//   follow_tail   serial report::stream_audit catch-up, 200 chunks; its traced
//                 run also runs the same reads through the pipelined ingest
//   offline_ser   parse_observations + check(Serializable) with `vo`
//
// The auditor is driven only through its public calls (stream_audit,
// parse_observations, OnlineChecker::append_all, check, forensics::Collector,
// obs::Registry::global().json()); every layer is timed from outside, around
// those calls. `--trace 0` repeats the workload for S seconds and prints the
// end-to-end metrics; `--trace 1` runs the traced schedule (spans kept in
// memory, leave-one-out level passes, registry scrapes) and prints the
// per-layer metrics. The last stdout line is the result object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every verdict is checked against the generator's expectation; a mismatch
// counts the disagreeing transactions as failed and sets correct=false.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <istream>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bench_env.hpp"
#include "checker/checker.hpp"
#include "checker/online.hpp"
#include "committest/commit_test.hpp"
#include "common/rng.hpp"
#include "forensics/collector.hpp"
#include "model/compiled.hpp"
#include "obs/metrics.hpp"
#include "report/forensics_render.hpp"
#include "report/serialize.hpp"
#include "report/stream_audit.hpp"
#include "workload/workload.hpp"

using namespace crooks;

namespace {

using Clock = std::chrono::steady_clock;
using L = ct::IsolationLevel;
using checker::OnlineChecker;

double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0, 1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

const char* short_name(L level) {
  switch (level) {
    case L::kReadUncommitted: return "RU";
    case L::kReadCommitted: return "RC";
    case L::kReadAtomic: return "RA";
    case L::kPSI: return "PSI";
    case L::kAdyaSI: return "AdyaSI";
    case L::kAnsiSI: return "AnsiSI";
    case L::kSessionSI: return "SessionSI";
    case L::kStrongSI: return "StrongSI";
    case L::kSerializable: return "SER";
    case L::kStrictSerializable: return "SSER";
  }
  return "?";
}

std::vector<L> all_levels() { return {ct::kAllLevels.begin(), ct::kAllLevels.end()}; }

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// Generator parameters: the input properties the auditor's cost depends on.
/// The body is the repository's documented transaction mix, wl::generate_mix;
/// the paper's Figure 5 workload is that mix with 3 reads + 3 writes,
/// uniform over 10,000 keys.
struct Shape {
  std::size_t txns;
  std::size_t keys;      // body key space
  double zipf_theta;     // 0 = uniform
  std::uint32_t sessions;
  std::size_t reads;     // per transaction
  std::size_t writes;    // per transaction
  bool planted;          // plant the anomaly ladder in the last 3%
  bool vo;               // append `vo` lines (offline only)
};

enum class Kind { kFollow, kOffline };

struct Workload {
  const char* name;
  Kind kind;
  Shape shape;
  std::size_t window;  // --window (follow only)
  std::size_t chunks;  // reads the log is offered in
};

/// Ingest threads of the pipelined pass in follow_tail's traced run (reader,
/// two shards and merge: four threads).
constexpr std::size_t kTracedIngestThreads = 2;

constexpr Shape kFollowShape{8000, 10'000, 0.0, 8, 3, 3, true, false};
constexpr Shape kOfflineShape{20000, 1u << 20, 0.0, 8, 3, 3, false, true};

constexpr std::array kWorkloads = {
    Workload{"follow_tail", Kind::kFollow, kFollowShape, 4096, 200},
    Workload{"offline_ser", Kind::kOffline, kOfflineShape, 0, 1},
};

/// One planted anomaly: the transaction whose commit test must fail and the
/// levels that must die there (each still alive when it is planted).
struct Planted {
  const char* kind;
  std::uint64_t victim;
  std::vector<L> kills;
};

/// The generated input: the observation text plus what a correct auditor
/// must say about it.
struct Log {
  std::string text;
  std::vector<std::size_t> block_end;  // offset just past each `end\n`
  std::size_t txns = 0;
  std::vector<Planted> planted;
  std::map<L, std::uint64_t> expected_first;  // levels that must die, and where
};

/// Seeded generator. The body executes wl::generate_mix's intents serially:
/// transactions apply in id order, each read observes the latest committed
/// writer of its key, and timestamps are monotone and non-overlapping, so the
/// body satisfies all ten levels. Anomalies use fresh keys outside the body
/// key space. Transactions are built with model::TxnBuilder and rendered by
/// report::to_text.
class Generator {
 public:
  Generator(const Shape& s, std::uint64_t seed)
      : s_(s), rng_(seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL),
        latest_(s_.keys + 1, 0), next_fresh_(s_.keys + 1) {
    wl::MixOptions mix;
    mix.transactions = s_.txns;
    mix.keys = s_.keys;
    mix.reads_per_txn = s_.reads;
    mix.writes_per_txn = s_.writes;
    mix.zipf_theta = s_.zipf_theta;
    mix.sessions = s_.sessions;
    mix.seed = seed;
    intents_ = wl::generate_mix(mix);
    txns_.reserve(s_.txns);
  }

  Log build() {
    // The ladder: each anomaly kills levels the earlier ones left alive, so
    // every first violation lands at a known id. Planted in the last 3% so
    // the levels do their work on the whole body first.
    static constexpr double kAt[] = {0.970, 0.975, 0.980, 0.985, 0.990};
    std::size_t next_anomaly = 0;
    for (std::size_t next_intent = 0; txns_.size() < s_.txns;) {
      if (s_.planted && next_anomaly < std::size(kAt) &&
          static_cast<double>(txns_.size()) >= kAt[next_anomaly] * static_cast<double>(s_.txns)) {
        plant(next_anomaly++);
        continue;
      }
      body_txn(intents_[next_intent++]);
    }
    for (const Planted& p : log_.planted) {
      for (L level : p.kills) log_.expected_first[level] = p.victim;
    }
    report::Observations obs;
    obs.txns = model::TransactionSet(std::move(txns_));
    obs.version_order = std::move(vo_);
    log_.text = report::to_text(obs);
    // Every transaction block closes with an `end` line; `vo` lines follow.
    for (std::size_t at = log_.text.find("\nend\n"); at != std::string::npos;
         at = log_.text.find("\nend\n", at + 4)) {
      log_.block_end.push_back(at + 5);
    }
    log_.txns = obs.txns.size();
    return std::move(log_);
  }

 private:
  struct Read {
    std::uint64_t key;
    std::uint64_t writer;
  };

  std::uint32_t session() { return static_cast<std::uint32_t>(rng_.below(s_.sessions)); }
  /// Three distinct sessions for an anomaly's participants.
  std::array<std::uint32_t, 3> three_sessions() {
    const std::uint32_t a = session();
    const std::uint32_t b = (a + 1 + static_cast<std::uint32_t>(rng_.below(s_.sessions - 1))) % s_.sessions;
    std::uint32_t c = b;
    while (c == a || c == b) c = session();
    return {a, b, c};
  }
  std::uint64_t fresh_key() { return next_fresh_++; }

  /// One intent of the mix (reads first, distinct keys), applied serially.
  void body_txn(const store::TxnIntent& intent) {
    std::vector<Read> reads;
    std::vector<std::uint64_t> writes;
    for (const store::TxnIntent::Step& step : intent.steps) {
      const std::uint64_t k = step.key.value + 1;  // the mix draws keys from 0
      if (step.is_read) {
        reads.push_back({k, latest_[k]});
      } else {
        writes.push_back(k);
      }
    }
    const auto [start, commit] = serial_ts();
    emit(intent.session.value, start, commit, reads, writes);
  }

  /// Append one transaction; its id is the next apply position.
  std::uint64_t emit(std::uint32_t session, Timestamp start, Timestamp commit,
                     const std::vector<Read>& reads, const std::vector<std::uint64_t>& writes) {
    const std::uint64_t id = txns_.size() + 1;
    model::TxnBuilder b(id);
    b.session(SessionId{session}).at(start, commit);
    for (const Read& r : reads) b.read(r.key, r.writer);
    for (std::uint64_t k : writes) {
      b.write(k);
      if (k < latest_.size()) latest_[k] = id;  // anomaly keys lie beyond
      if (s_.vo) vo_[Key{k}].push_back(TxnId{id});
    }
    txns_.push_back(b.build());
    return id;
  }

  /// Serial timestamps for the next transaction.
  std::pair<Timestamp, Timestamp> serial_ts() {
    const Timestamp a = ++ts_;
    return {a, ++ts_};
  }

  void plant(std::size_t which) {
    const auto [sa, sb, sc] = three_sessions();
    const std::uint64_t x = fresh_key();
    const std::uint64_t y = fresh_key();
    switch (which) {
      case 0: {
        // Write skew: T1 and T2 both read x, y before either writes, and are
        // concurrent in real time. A snapshot exists (SI family holds); the
        // parent state of T2 is not it (SER, SSER die at T2).
        const Timestamp base = ts_;
        emit(sa, base + 1, base + 3, {{x, 0}, {y, 0}}, {x});
        const std::uint64_t t2 = emit(sb, base + 2, base + 4, {{x, 0}, {y, 0}}, {y});
        ts_ = base + 4;
        log_.planted.push_back({"write-skew", t2, {L::kSerializable, L::kStrictSerializable}});
        break;
      }
      case 1: {
        // No complete snapshot, causally unrelated writers: T reads y from W2
        // but x from before W1 (W1 applied first). Every SI variant dies at
        // T; PSI holds because W1 is not in T's causal past.
        auto [a1, c1] = serial_ts();
        emit(sa, a1, c1, {}, {x});
        auto [a2, c2] = serial_ts();
        const std::uint64_t w2 = emit(sb, a2, c2, {}, {y});
        auto [a3, c3] = serial_ts();
        const std::uint64_t t = emit(sc, a3, c3, {{y, w2}, {x, 0}}, {});
        log_.planted.push_back(
            {"non-snapshot", t, {L::kAdyaSI, L::kAnsiSI, L::kSessionSI, L::kStrongSI}});
        break;
      }
      case 2: {
        // Causality violation: R1 read W1's x and wrote y; T reads y from R1
        // but the x W1 overwrote. CAUS-VIS fails (PSI dies at T); nothing is
        // fractured, so RA holds.
        auto [a1, c1] = serial_ts();
        const std::uint64_t w1 = emit(sa, a1, c1, {}, {x});
        auto [a2, c2] = serial_ts();
        const std::uint64_t r1 = emit(sb, a2, c2, {{x, w1}}, {y});
        auto [a3, c3] = serial_ts();
        const std::uint64_t t = emit(sc, a3, c3, {{y, r1}, {x, 0}}, {});
        log_.planted.push_back({"causality", t, {L::kPSI}});
        break;
      }
      case 3: {
        // Fractured read: W writes x and y; T sees W's x but not its y.
        auto [a1, c1] = serial_ts();
        const std::uint64_t w = emit(sa, a1, c1, {}, {x, y});
        auto [a2, c2] = serial_ts();
        const std::uint64_t t = emit(sb, a2, c2, {{x, w}, {y, 0}}, {});
        log_.planted.push_back({"fractured-read", t, {L::kReadAtomic}});
        break;
      }
      case 4: {
        // Read of a value no transaction in the stream wrote: PREREAD fails
        // (RC dies at T). RU is never violated.
        auto [a1, c1] = serial_ts();
        const std::uint64_t t = emit(sa, a1, c1, {{x, kUnknownWriter}}, {});
        log_.planted.push_back({"unknown-writer", t, {L::kReadCommitted}});
        break;
      }
      default:
        break;
    }
  }

  static constexpr std::uint64_t kUnknownWriter = 999'999'999'999ULL;

  Shape s_;
  Rng rng_;
  std::vector<store::TxnIntent> intents_;
  std::vector<model::Transaction> txns_;
  std::unordered_map<Key, std::vector<TxnId>> vo_;  // install order per key
  Log log_;
  std::vector<std::uint64_t> latest_;  // body keys: latest writer id (0 = ⊥)
  std::uint64_t next_fresh_;
  Timestamp ts_ = 0;
};

/// Block index ranges [first, last) of each chunk.
std::vector<std::pair<std::size_t, std::size_t>> chunk_blocks(const Log& log, std::size_t chunks) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  const std::size_t n = log.block_end.size();
  chunks = std::max<std::size_t>(1, std::min(chunks, n));
  for (std::size_t c = 0; c < chunks; ++c) out.emplace_back(c * n / chunks, (c + 1) * n / chunks);
  return out;
}

/// Offsets that end each offered read: `chunks` runs of whole blocks.
std::vector<std::size_t> chunk_cuts(const Log& log, std::size_t chunks) {
  std::vector<std::size_t> cuts;
  for (const auto& [first, last] : chunk_blocks(log, chunks)) cuts.push_back(log.block_end[last - 1]);
  return cuts;
}

std::string_view block_text(const Log& log, std::size_t b) {
  const std::size_t from = b == 0 ? 0 : log.block_end[b - 1];
  return std::string_view(log.text).substr(from, log.block_end[b] - from);
}

// ---------------------------------------------------------------------------
// The in-memory log offered to the reader
// ---------------------------------------------------------------------------

/// Offers the log one chunk per read: after each chunk the reader sees EOF
/// (a caught-up tail), and the next read gets the next chunk — closed-loop
/// catch-up with deterministic batch boundaries. A chunk is offered only
/// while fewer than `kMaxAhead` offered batches await their verdict, so the
/// pipelined reader runs at most that far ahead of the merge stage (the
/// serial path never waits: it reads the next chunk after the verdict).
/// Records when each chunk (and so its last byte) was offered.
class ChunkFeed : public std::streambuf {
 public:
  static constexpr std::size_t kMaxAhead = 4;

  ChunkFeed(const std::string& text, const std::vector<std::size_t>& cuts,
            std::vector<Clock::time_point>& offered)
      : text_(text), cuts_(cuts), offered_(offered) {}

  /// A batch got its verdict (called from on_block, on any thread).
  void verdict() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++verdicts_;
    }
    cv_.notify_one();
  }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (eof_pending_ || next_ >= cuts_.size()) {
      eof_pending_ = false;
      return traits_type::eof();
    }
    {
      // The wait is bounded so that a stalled audit still ends: the
      // verdict gate then fails it on the batch count or the verdicts.
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait_for(lock, std::chrono::seconds(30),
                   [this] { return next_ < verdicts_ + kMaxAhead; });
    }
    const std::size_t from = next_ == 0 ? 0 : cuts_[next_ - 1];
    char* base = const_cast<char*>(text_.data());
    setg(base + from, base + from, base + cuts_[next_]);
    offered_[next_++] = Clock::now();
    eof_pending_ = true;
    return traits_type::to_int_type(*gptr());
  }

 private:
  const std::string& text_;
  const std::vector<std::size_t>& cuts_;
  std::vector<Clock::time_point>& offered_;
  std::size_t next_ = 0;
  bool eof_pending_ = false;
  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t verdicts_ = 0;
};

// ---------------------------------------------------------------------------
// Verdict gate
// ---------------------------------------------------------------------------

/// Transactions whose verdict disagrees with the generator: for each level,
/// the distance between the expected and the actual first violation (a level
/// that dies where it should contributes 0), maxed over levels. An aborted
/// audit, or any past-window evaluation, fails every transaction.
std::size_t follow_disagreement(const Log& log,
                                const std::map<L, OnlineChecker::LevelStatus>& statuses,
                                const OnlineChecker::Stats& stats, std::size_t accepted,
                                const std::string& error) {
  if (!error.empty() || accepted != log.txns) return log.txns;
  if (stats.past_window_reads + stats.past_window_checks != 0) return log.txns;
  std::size_t worst = 0;
  for (L level : ct::kAllLevels) {
    const auto it = statuses.find(level);
    if (it == statuses.end()) return log.txns;
    const auto exp = log.expected_first.find(level);
    const std::uint64_t want = exp == log.expected_first.end() ? log.txns + 1 : exp->second;
    const std::uint64_t got =
        it->second.first_violation.has_value() ? it->second.first_violation->value : log.txns + 1;
    const std::uint64_t d = want > got ? want - got : got - want;
    worst = std::max<std::size_t>(worst, d);
  }
  return worst;
}

/// Everything the sharded path must reproduce byte for byte.
std::string follow_fingerprint(const report::StreamAuditResult& r, const std::string& forensics) {
  std::string out = "blocks=";
  out += std::to_string(r.blocks) + " txns=" + std::to_string(r.transactions);
  out += " dups=" + std::to_string(r.duplicates) + " error=" + r.error + "\n";
  for (const auto& [level, st] : r.statuses) {
    out += short_name(level);
    out += st.ok ? " ok " : " violated ";
    out += st.first_violation ? std::to_string(st.first_violation->value) : "-";
    out += " " + st.explanation + "\n";
  }
  const OnlineChecker::Stats& s = r.checker_stats;
  for (std::uint64_t v : {s.blocks, s.compiled_appends, s.hashed_fallback_appends,
                          s.duplicates_ignored, s.ops_evaluated, s.direct_appends, s.retired_txns,
                          s.retired_ops, s.window_folds, s.past_window_reads, s.past_window_checks}) {
    out += std::to_string(v) + " ";
  }
  return out + "\n" + forensics;
}

// ---------------------------------------------------------------------------
// Registry scrape
// ---------------------------------------------------------------------------

/// Sum over every series of metric family `family` in a Registry::json()
/// scrape. Counters and gauges contribute their value; histograms their
/// `field` ("sum" or "count").
double scrape(const std::string& json, std::string_view family, const char* field = nullptr) {
  double total = 0;
  std::string needle = "\"";
  needle += family;
  for (std::size_t at = json.find(needle); at != std::string::npos;
       at = json.find(needle, at + 1)) {
    const std::size_t after = at + needle.size();
    if (after >= json.size() || (json[after] != '"' && json[after] != '{')) continue;
    std::size_t end = after;  // closing quote of the key, skipping \" escapes
    while (end < json.size() && !(json[end] == '"' && json[end - 1] != '\\')) ++end;
    std::size_t v = end + 2;  // past `":`
    if (v >= json.size()) break;
    if (json[v] == '{') {
      if (field == nullptr) continue;
      const std::size_t close = json.find('}', v);
      std::string key = "\"";
      key += field;
      key += "\":";
      const std::size_t f = json.find(key, v);
      if (f == std::string::npos || f > close) continue;
      v = f + key.size();
    }
    total += std::strtod(json.c_str() + v, nullptr);
  }
  return total;
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, const char* unit) {
    metrics.push_back({std::move(name), value, unit});
  }
  void fail(const std::string& why) {
    if (correct) std::fprintf(stderr, "auditbench: check failed: %s\n", why.c_str());
    correct = false;
  }
};

std::string fmt(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[32];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

/// Peak-RSS window: reset the kernel's high-water mark, run, read it back.
/// Falls back to the process-lifetime maximum where the reset is refused.
class PeakRss {
 public:
  PeakRss() {
    std::ofstream clear("/proc/self/clear_refs");
    clear << "5";
    clear.flush();
    reset_ok_ = static_cast<bool>(clear);
  }
  double mb() const {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (reset_ok_ && std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
  }

 private:
  bool reset_ok_ = false;
};

// ---------------------------------------------------------------------------
// Follow workloads: stream_audit
// ---------------------------------------------------------------------------

struct FollowRun {
  double wall = 0;
  std::vector<double> batch_ms;  // offer-of-last-byte → on_block, per batch
  double merge_busy = 0;         // Σ per-batch append_all seconds
  report::StreamAuditResult result;
  std::string forensics;
};

FollowRun run_stream_audit(const Log& log, const std::vector<std::size_t>& cuts,
                           std::size_t window, std::size_t ingest_threads) {
  FollowRun run;
  forensics::Collector collector;
  report::StreamAuditOptions opts;
  opts.poll_ms = 0;
  opts.idle_exit_ms = 60'000;  // a hang guard only: max_blocks ends the audit
  opts.max_blocks = cuts.size();
  opts.window_txns = window;
  opts.ingest_threads = ingest_threads;
  opts.on_checker = [&collector](OnlineChecker& chk) { collector.attach(chk); };

  std::vector<Clock::time_point> offered(cuts.size()), done(cuts.size());
  double busy = 0;
  ChunkFeed feed(log.text, cuts, offered);
  std::istream in(&feed);
  const Clock::time_point t0 = Clock::now();
  run.result = report::stream_audit(in, opts, [&](const report::StreamBlockReport& rep) {
    if (rep.block >= 1 && rep.block <= done.size()) done[rep.block - 1] = Clock::now();
    feed.verdict();
    busy += rep.seconds;
    return true;
  });
  run.wall = secs(t0, Clock::now());
  run.merge_busy = busy;
  const std::size_t batches = std::min<std::size_t>(run.result.blocks, cuts.size());
  for (std::size_t i = 0; i < batches; ++i) run.batch_ms.push_back(1e3 * secs(offered[i], done[i]));
  run.forensics = report::forensics_json(collector.table());
  return run;
}

// ---------------------------------------------------------------------------
// Follow workloads: the loop rebuilt from public calls, for the spans
// ---------------------------------------------------------------------------

/// In-memory span recorder: name, parent, start, end.
class Tracer {
 public:
  int open(const char* name, int parent) {
    spans_.push_back({name, parent, Clock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int i) { spans_[static_cast<std::size_t>(i)].end = Clock::now(); }

  struct Totals {
    std::map<std::string, double> self;  // by span name
    double root_self = 0;                // residual inside the roots
  };
  Totals totals() const {
    std::vector<double> child(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += secs(s.start, s.end);
    }
    Totals t;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double self = secs(spans_[i].start, spans_[i].end) - child[i];
      t.self[spans_[i].name] += self;
      if (spans_[i].parent < 0) t.root_self += self;
    }
    return t;
  }

 private:
  struct Span {
    const char* name;
    int parent;
    Clock::time_point start, end;
  };
  std::vector<Span> spans_;
};

struct PassOut {
  double wall = 0;
  std::map<L, OnlineChecker::LevelStatus> statuses;
  OnlineChecker::Stats stats;
  std::size_t accepted = 0;
  std::uint64_t witnesses = 0;
  std::size_t patterns = 0;
  std::vector<double> fold_ms, plain_ms;  // append_all latency per batch
  std::size_t resident_ops_max = 0;
  std::size_t resident_bytes_max = 0;
};

/// One pass of the follow loop: per chunk, parse each block
/// (parse_observations, as stream_audit's decoder does) and append the batch
/// (OnlineChecker::append_all) with a forensics collector attached. With a
/// tracer, each chunk is a `follow.batch` span with `report.parse` and
/// `online.append_all` children.
PassOut follow_pass(const Log& log, const Workload& w, Tracer* tr) {
  PassOut out;
  forensics::Collector collector;
  OnlineChecker chk(all_levels());
  chk.set_window({w.window, 0});
  collector.attach(chk);
  std::vector<model::Transaction> batch;
  std::string block;
  const Clock::time_point t0 = Clock::now();
  for (const auto& [first, last] : chunk_blocks(log, w.chunks)) {
    const int root = tr ? tr->open("follow.batch", -1) : -1;
    batch.clear();
    const int parse = tr ? tr->open("report.parse", root) : -1;
    for (std::size_t b = first; b < last; ++b) {
      block.assign(block_text(log, b));
      report::Observations obs = report::parse_observations(block);
      for (const model::Transaction& t : obs.txns) batch.push_back(t);
    }
    if (tr) tr->close(parse);
    const std::uint64_t folds = chk.stats().window_folds;
    const int append = tr ? tr->open("online.append_all", root) : -1;
    const Clock::time_point a0 = Clock::now();
    out.accepted += chk.append_all(std::span<const model::Transaction>(batch));
    const double ms = 1e3 * secs(a0, Clock::now());
    if (tr) tr->close(append);
    (chk.stats().window_folds != folds ? out.fold_ms : out.plain_ms).push_back(ms);
    out.resident_ops_max = std::max(out.resident_ops_max, chk.resident_ops());
    out.resident_bytes_max = std::max(out.resident_bytes_max, chk.resident_bytes());
    if (tr) tr->close(root);
  }
  out.wall = secs(t0, Clock::now());
  for (L level : ct::kAllLevels) out.statuses.emplace(level, chk.status(level));
  out.stats = chk.stats();
  out.witnesses = collector.table().witnesses();
  out.patterns = collector.table().size();
  chk.set_violation_hook(nullptr);
  return out;
}

using Batches = std::vector<std::vector<model::Transaction>>;

/// Decoded batches of the first `blocks` blocks, cut like the workload's
/// reads (for the append-only passes).
Batches decode_batches(const Log& log, std::size_t chunks, std::size_t blocks) {
  Batches out;
  for (const auto& [first, last] : chunk_blocks(log, chunks)) {
    if (first >= blocks) break;
    const std::size_t end = std::min(last, blocks);
    const std::size_t from = first == 0 ? 0 : log.block_end[first - 1];
    report::Observations obs =
        report::parse_observations(log.text.substr(from, log.block_end[end - 1] - from));
    out.emplace_back(obs.txns.begin(), obs.txns.end());
  }
  return out;
}

/// Σ append_all seconds over the batches, tracking `levels`.
double append_pass(const Batches& batches, const std::vector<L>& levels, std::size_t window) {
  forensics::Collector collector;
  OnlineChecker chk(levels);
  chk.set_window({window, 0});
  collector.attach(chk);
  const Clock::time_point t0 = Clock::now();
  for (const auto& b : batches) chk.append_all(std::span<const model::Transaction>(b));
  const double s = secs(t0, Clock::now());
  chk.set_violation_hook(nullptr);
  return s;
}

// ---------------------------------------------------------------------------
// Offline workload
// ---------------------------------------------------------------------------

struct OfflinePass {
  double wall = 0;
  bool satisfiable = false;
  bool witness_ok = false;
  std::uint64_t nodes = 0, edges = 0;
  std::size_t txns = 0;
};

/// Parse the text, compile it, check it at Serializable with its version
/// order; the witness is re-verified by ct::test_execution outside the
/// timed region when `verify` is set.
OfflinePass offline_pass(const Log& log, Tracer* tr, bool verify) {
  OfflinePass p;
  const Clock::time_point t0 = Clock::now();
  const int root = tr ? tr->open("offline.audit", -1) : -1;
  int s = tr ? tr->open("report.parse", root) : -1;
  report::Observations obs = report::parse_observations(log.text);
  if (tr) tr->close(s);
  s = tr ? tr->open("model.compile", root) : -1;
  model::CompiledHistory ch(obs.txns);
  if (tr) tr->close(s);
  s = tr ? tr->open("check", root) : -1;
  checker::CheckOptions opts;
  opts.version_order = &obs.version_order;
  const checker::CheckResult r = checker::check(L::kSerializable, ch, opts);
  if (tr) tr->close(s);
  if (tr) tr->close(root);
  p.wall = secs(t0, Clock::now());
  p.satisfiable = r.satisfiable() && r.witness.has_value();
  p.nodes = r.nodes_explored;
  p.edges = r.edges_visited;
  p.txns = obs.txns.size();
  if (verify && p.satisfiable) {
    p.witness_ok = ct::test_execution(L::kSerializable, obs.txns, *r.witness).ok;
  }
  return p;
}

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

/// --trace 0: one untimed warm-up, then repeat the workload for `seconds`
/// (at least twice) and report the end-to-end metrics.
void run_untraced(const Workload& w, const Log& log, std::uint64_t seed, double seconds,
                  std::vector<double>& setup, Outcome& out) {
  // Set-up is timed again about this many times, spread over the run like
  // the workload's samples, so that most of the run measures the workload.
  constexpr double kSetupSamples = 8;
  // Each batch's best latency over the timed repetitions, in ms.
  std::vector<double> best(w.chunks, std::numeric_limits<double>::infinity());
  std::vector<double> rss;
  const auto cuts = chunk_cuts(log, w.chunks);
  const Clock::time_point begin = Clock::now();
  for (int rep = -1; rep < 2 || secs(begin, Clock::now()) < seconds; ++rep) {
    const bool warmup = rep < 0;
    if (static_cast<double>(setup.size()) * seconds < kSetupSamples * secs(begin, Clock::now())) {
      // The log is deterministic, so the fresh copy is compared and dropped.
      const Clock::time_point s0 = Clock::now();
      const Log again = Generator(w.shape, seed).build();
      setup.push_back(secs(s0, Clock::now()));
      if (again.text != log.text) out.fail("set-up is not deterministic");
    }
    PeakRss peak;
    if (w.kind == Kind::kFollow) {
      FollowRun run = run_stream_audit(log, cuts, w.window, 0);
      const std::size_t bad = follow_disagreement(log, run.result.statuses, run.result.checker_stats,
                                                  run.result.transactions, run.result.error);
      if (bad != 0) out.fail("follow verdicts disagree with the generator");
      if (run.batch_ms.size() != cuts.size()) out.fail("batch count differs from the reads offered");
      std::fprintf(stderr, "auditbench: %s audit %.3f s, batch p50 %.3f ms, p95 %.3f ms\n",
                   warmup ? "warm-up" : "timed", run.wall, percentile(run.batch_ms, 0.50),
                   percentile(run.batch_ms, 0.95));
      if (warmup) continue;
      out.attempted += log.txns;
      out.failed += bad;
      for (std::size_t i = 0; i < std::min(best.size(), run.batch_ms.size()); ++i) {
        best[i] = std::min(best[i], run.batch_ms[i]);
      }
    } else {
      const OfflinePass p = offline_pass(log, nullptr, warmup);
      const bool ok = p.satisfiable && p.txns == log.txns && (!warmup || p.witness_ok);
      if (!ok) out.fail("offline Serializable check is not a verified SATISFIABLE");
      std::fprintf(stderr, "auditbench: %s audit %.3f s\n", warmup ? "warm-up" : "timed", p.wall);
      if (warmup) continue;
      out.attempted += log.txns;
      out.failed += ok ? 0 : log.txns;
      best[0] = std::min(best[0], 1e3 * p.wall);  // one batch: the whole log
    }
    rss.push_back(peak.mb());
  }
  // Timings come from each batch's best latency over the run. The shared
  // host slows spells of seconds by up to about 1.7x; noise only adds time,
  // and a run repeats every batch often enough to catch the host's fast
  // state at least once, so the bests spread least from run to run
  // (README.md, Steadiness). txns_per_s is the transactions over the sum of
  // the bests: serial batches follow one another, so the sum is the wall
  // time of a repetition with no slow spell.
  double total_ms = 0;
  for (double ms : best) total_ms += ms;
  out.add("txns_per_s", 1e3 * static_cast<double>(log.txns) / total_ms, "1/s");
  out.add("batch_ms_p50", percentile(best, 0.50), "ms");
  out.add("batch_ms_p95", percentile(best, 0.95), "ms");
  out.add("peak_rss_mb", *std::max_element(rss.begin(), rss.end()), "MB");
}

/// --trace 1: the traced schedule; reports every per-layer metric.
void run_traced(const Workload& w, const Log& log, Outcome& out) {
  obs::Registry& reg = obs::Registry::global();
  const double mb = static_cast<double>(log.text.size()) / (1024.0 * 1024.0);
  const int rounds = w.kind == Kind::kFollow ? 2 : 5;

  // Layer values; those a workload does not exercise stay 0.
  double parse_s = 0, extend_s = 0, extend_calls = 0, compile_s = 0, retired = 0;
  double resident_ops_max = 0, append_s = 0, ops_evaluated = 0, folds = 0;
  double fold_p50 = 0, plain_p50 = 0, past_window = 0, resident_bytes_max = 0;
  double decode_s = 0, merge_busy = 0, submit_stalls = 0, result_stalls = 0, merge_stalls = 0;
  double ring_dropped = 0, speedup = 0, check_s = 0, nodes = 0, edges = 0;
  double witnesses = 0, patterns = 0, overhead = 0, unattributed = 0, growth = 0;
  std::map<L, double> level_s;
  std::size_t batches = 0;
  double conservation = 0;

  if (w.kind == Kind::kFollow) {
    const auto cuts = chunk_cuts(log, w.chunks);
    batches = cuts.size();
    std::vector<double> untraced, traced, v_split, v_append, v_extend, v_unattr, v_cons;
    std::vector<double> serial_wall, piped_wall, v_decode, v_busy;
    PassOut last;
    follow_pass(log, w, nullptr);  // warm-up
    for (int r = 0; r < rounds; ++r) {
      // The serial stream_audit path. Its wall time outside append_all (the
      // Σ of its own per-batch seconds) is the reading, splitting and
      // parsing of the log: the report layer as the operator runs it.
      const FollowRun s = run_stream_audit(log, cuts, w.window, 0);
      serial_wall.push_back(s.wall);
      v_split.push_back(s.wall - s.merge_busy);
      const std::size_t bad_serial = follow_disagreement(
          log, s.result.statuses, s.result.checker_stats, s.result.transactions, s.result.error);
      if (bad_serial != 0) out.fail("serial stream_audit disagrees with the generator");
      out.attempted += log.txns;
      out.failed += bad_serial;

      {
        // The pipeline, against the serial run just made; ingest_* scraped
        // from the registry around the pipelined run.
        reg.reset();
        const FollowRun p = run_stream_audit(log, cuts, w.window, kTracedIngestThreads);
        const std::string scrape_json = reg.json();
        piped_wall.push_back(p.wall);
        v_decode.push_back(scrape(scrape_json, "crooks_ingest_shard_decode_seconds", "sum"));
        v_busy.push_back(p.merge_busy / p.wall);
        submit_stalls = scrape(scrape_json, "crooks_ingest_submit_stalls_total");
        result_stalls = scrape(scrape_json, "crooks_ingest_result_stalls_total");
        merge_stalls = scrape(scrape_json, "crooks_ingest_merge_stalls_total");
        ring_dropped = scrape(scrape_json, "crooks_ingest_ring_dropped_total");
        const bool same = follow_fingerprint(p.result, p.forensics) ==
                          follow_fingerprint(s.result, s.forensics);
        if (!same) out.fail("sharded statuses/Stats/forensics differ from the serial path");
        out.attempted += log.txns;
        out.failed += same ? 0 : log.txns;
      }

      // The follow loop from public calls: untraced (the overhead base),
      // then traced with the registry reset.
      untraced.push_back(follow_pass(log, w, nullptr).wall);
      reg.reset();
      Tracer tr;
      last = follow_pass(log, w, &tr);
      const std::string scrape_json = reg.json();
      traced.push_back(last.wall);
      Tracer::Totals t = tr.totals();
      const double append = t.self["online.append_all"];
      const double extend = scrape(scrape_json, "crooks_compile_extend_seconds", "sum");
      const double ingest = scrape(scrape_json, "crooks_online_block_seconds", "sum");
      v_append.push_back(append);
      v_extend.push_back(extend);
      v_unattr.push_back(t.root_self / last.wall);
      // Conservation: the append time measured from outside, around each
      // append_all call, against the time the program's own series
      // (extend + ingest) account for in the same calls.
      v_cons.push_back(std::abs(append - (extend + ingest)) / append);
      extend_calls = scrape(scrape_json, "crooks_compile_extend_seconds", "count");
      folds = scrape(scrape_json, "crooks_online_window_folds_total");
      retired = scrape(scrape_json, "crooks_compile_retired_txns_total");
      const std::size_t bad = follow_disagreement(log, last.statuses, last.stats, last.accepted, "");
      if (bad != 0) out.fail("traced follow pass disagrees with the generator");
      out.attempted += log.txns;
      out.failed += bad;
    }
    parse_s = median(v_split);
    append_s = median(v_append);
    extend_s = median(v_extend);
    unattributed = median(v_unattr);
    conservation = median(v_cons);
    overhead = median(traced) / median(untraced) - 1;
    resident_ops_max = static_cast<double>(last.resident_ops_max);
    resident_bytes_max = static_cast<double>(last.resident_bytes_max);
    ops_evaluated = static_cast<double>(last.stats.ops_evaluated);
    past_window = static_cast<double>(last.stats.past_window_reads + last.stats.past_window_checks);
    fold_p50 = median(last.fold_ms);
    plain_p50 = median(last.plain_ms);
    witnesses = static_cast<double>(last.witnesses);
    patterns = static_cast<double>(last.patterns);
    decode_s = median(v_decode);
    merge_busy = median(v_busy);
    speedup = median(serial_wall) / median(piped_wall);

    // Leave-one-out level cost, and the growth of the append cost from half
    // the log to all of it (2 = linear), on pre-decoded batches.
    const Batches all = decode_batches(log, w.chunks, log.block_end.size());
    const std::size_t half_chunks = std::max<std::size_t>(1, w.chunks / 2);
    const Batches half =
        decode_batches(log, w.chunks, log.block_end.size() * half_chunks / w.chunks);
    // All-levels passes bracket every leave-one-out pass; each level's cost
    // is measured against the mean of its two neighbours, so slow drift in
    // the host's speed cancels.
    std::vector<double> t_all = {append_pass(all, all_levels(), w.window)};
    for (L level : ct::kAllLevels) {
      std::vector<L> rest;
      for (L other : ct::kAllLevels) {
        if (other != level) rest.push_back(other);
      }
      const double without = append_pass(all, rest, w.window);
      t_all.push_back(append_pass(all, all_levels(), w.window));
      level_s[level] = 0.5 * (t_all[t_all.size() - 2] + t_all.back()) - without;
    }
    growth = median(t_all) / append_pass(half, all_levels(), w.window);
  } else {
    batches = 1;
    std::vector<double> untraced, traced, v_parse, v_compile, v_check, v_unattr, v_cons;
    offline_pass(log, nullptr, false);  // warm-up
    for (int r = 0; r < rounds; ++r) {
      untraced.push_back(offline_pass(log, nullptr, false).wall);
      reg.reset();
      Tracer tr;
      const OfflinePass p = offline_pass(log, &tr, r == 0);
      const std::string scrape_json = reg.json();
      traced.push_back(p.wall);
      Tracer::Totals t = tr.totals();
      v_parse.push_back(t.self["report.parse"]);
      v_compile.push_back(t.self["model.compile"]);
      v_check.push_back(t.self["check"]);
      v_unattr.push_back(t.root_self / p.wall);
      // Conservation: the check span against the engine's own latency series.
      const double engine = scrape(scrape_json, "crooks_check_seconds", "sum");
      v_cons.push_back(std::abs(t.self["check"] - engine) / t.self["check"]);
      nodes = static_cast<double>(p.nodes);
      edges = static_cast<double>(p.edges);
      const bool ok = p.satisfiable && p.txns == log.txns && (r != 0 || p.witness_ok);
      if (!ok) out.fail("offline Serializable check is not a verified SATISFIABLE");
      out.attempted += log.txns;
      out.failed += ok ? 0 : log.txns;
    }
    parse_s = median(v_parse);
    compile_s = median(v_compile);
    check_s = median(v_check);
    unattributed = median(v_unattr);
    conservation = median(v_cons);
    overhead = median(traced) / median(untraced) - 1;
  }
  if (conservation > 0.03) {
    out.fail("the registry's series miss the span-measured time by " + fmt(100 * conservation) +
             "%");
  }

  out.add("report.parse_s", parse_s, "s");
  out.add("report.parse_mb_per_s", parse_s > 0 ? mb / parse_s : 0, "MB/s");
  out.add("report.batches", static_cast<double>(batches), "count");
  out.add("model.extend_s", extend_s, "s");
  out.add("model.extend_calls", extend_calls, "count");
  out.add("model.compile_s", compile_s, "s");
  out.add("model.retired_txns", retired, "count");
  out.add("model.resident_ops_max", resident_ops_max, "count");
  out.add("online.append_s", append_s, "s");
  out.add("online.evaluate_s", append_s > 0 ? append_s - extend_s : 0, "s");
  out.add("online.ops_evaluated", ops_evaluated, "count");
  out.add("online.ops_per_txn", ops_evaluated / static_cast<double>(log.txns), "count");
  out.add("online.window_folds", folds, "count");
  out.add("online.fold_batch_ms_p50", fold_p50, "ms");
  out.add("online.plain_batch_ms_p50", plain_p50, "ms");
  out.add("online.past_window_events", past_window, "count");
  out.add("online.resident_bytes_max", resident_bytes_max, "B");
  for (L level : ct::kAllLevels) {
    out.add(std::string("online.level_s.") + short_name(level), level_s[level], "s");
  }
  out.add("online.growth_x2", growth, "x");
  out.add("ingest.decode_s", decode_s, "s");
  out.add("ingest.merge_busy_frac", merge_busy, "frac");
  out.add("ingest.submit_stalls", submit_stalls, "count");
  out.add("ingest.result_stalls", result_stalls, "count");
  out.add("ingest.merge_stalls", merge_stalls, "count");
  out.add("ingest.ring_dropped", ring_dropped, "count");
  out.add("ingest.speedup_vs_serial", speedup, "x");
  out.add("check.s", check_s, "s");
  out.add("check.nodes_explored", nodes, "count");
  out.add("check.edges_visited", edges, "count");
  out.add("forensics.witnesses", witnesses, "count");
  out.add("forensics.patterns", patterns, "count");
  out.add("trace.overhead_frac", overhead, "frac");
  out.add("trace.unattributed_frac", unattributed, "frac");
  out.add("trace.conservation_err", conservation, "frac");
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::string_view(v) == "1";
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload.empty() || !(a.seconds > 0)) return std::nullopt;
  return a;
}

}  // namespace

#ifdef __clang__
constexpr const char* kCompiler = "clang " __VERSION__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: auditbench --workload NAME --seed N --seconds S --trace 0|1\n");
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (args->workload == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "auditbench: unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  if (!benchx::optimized_build()) {
    std::fprintf(stderr, "auditbench: refusing to measure a '%s' build\n", CROOKS_BUILD_TYPE);
    return 3;
  }

  // Set-up: generate and render the input. The untraced run times it again
  // before every repetition and reports the median.
  const Clock::time_point t0 = Clock::now();
  const Log log = Generator(w->shape, args->seed).build();
  std::vector<double> setup = {secs(t0, Clock::now())};
  for (const Planted& p : log.planted) {
    std::string kills;
    for (L level : p.kills) kills += std::string(" ") + short_name(level);
    std::fprintf(stderr, "auditbench: planted %s at T%llu, kills%s\n", p.kind,
                 static_cast<unsigned long long>(p.victim), kills.c_str());
  }

  const unsigned cpus = std::thread::hardware_concurrency();
  std::printf(
      "{\"stamp\": {\"host_cpus\": %u, \"compiler\": \"%s\", \"build_type\": \"%s\", "
      "\"workload\": \"%s\", \"seed\": %llu, \"txns\": %zu, \"sessions\": %u, \"keys\": %zu, "
      "\"zipf_theta\": %s, \"reads\": %zu, \"writes\": %zu, \"window\": %zu, \"chunks\": %zu, \"traced_ingest_threads\": %zu, "
      "\"log_mb\": %s}}\n",
      cpus, kCompiler, CROOKS_BUILD_TYPE, w->name, static_cast<unsigned long long>(args->seed),
      log.txns, w->shape.sessions, w->shape.keys, fmt(w->shape.zipf_theta).c_str(), w->shape.reads,
      w->shape.writes, w->window,
      w->chunks, w->kind == Kind::kFollow ? kTracedIngestThreads : 0,
      fmt(static_cast<double>(log.text.size()) / (1024.0 * 1024.0)).c_str());

  Outcome out;
  if (args->trace) {
    run_traced(*w, log, out);
    out.add("failed_frac",
            out.attempted == 0 ? 0 : static_cast<double>(out.failed) / static_cast<double>(out.attempted),
            "frac");
    out.add("host_cpus", cpus, "count");
  } else {
    run_untraced(*w, log, args->seed, args->seconds, setup, out);
    out.add("setup_s", median(setup), "s");
  }
  if (out.attempted == 0) out.attempted = 1, out.failed = 1, out.correct = false;

  std::string line = "{\"correct\": " + std::string(out.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    line += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + fmt(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
