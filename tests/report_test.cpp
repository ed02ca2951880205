// Serialization round-trips, parser error handling, and audit rendering.
// The input-contract tests run each document both through the offline parser
// and through report::stream_audit at ingest_threads 0 and 2: the two readers
// share one tokenizer and one numeric reader, and must agree line by line.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "report/report.hpp"
#include "report/serialize.hpp"
#include "report/stream_audit.hpp"

namespace crooks::report {
namespace {

const char* kWriteSkew = R"(
# write skew
txn 1 start=0 commit=10
  read 0 0
  read 1 0
  write 0
end
txn 2 start=1 commit=11
  read 0 0
  read 1 0
  write 1
end
vo 0 1
vo 1 2
)";

TEST(Serialize, ParsesWellFormedInput) {
  const Observations obs = parse_observations(kWriteSkew);
  ASSERT_EQ(obs.txns.size(), 2u);
  const model::Transaction& t1 = obs.txns.by_id(TxnId{1});
  EXPECT_EQ(t1.ops().size(), 3u);
  EXPECT_EQ(t1.start_ts(), 0);
  EXPECT_EQ(t1.commit_ts(), 10);
  EXPECT_TRUE(t1.ops()[0].is_read());
  EXPECT_TRUE(t1.ops()[0].value.is_initial());
  EXPECT_TRUE(t1.ops()[2].is_write());
  ASSERT_TRUE(obs.has_version_order());
  EXPECT_EQ(obs.version_order.at(Key{0}).front(), TxnId{1});
}

TEST(Serialize, ParsesAttributes) {
  const Observations obs = parse_observations(
      "txn 7 session=3 site=2 start=-5 commit=9\n  write 1\nend\n");
  const model::Transaction& t = obs.txns.by_id(TxnId{7});
  EXPECT_EQ(t.session(), SessionId{3});
  EXPECT_EQ(t.site(), SiteId{2});
  EXPECT_EQ(t.start_ts(), -5);
  EXPECT_EQ(t.commit_ts(), 9);
}

TEST(Serialize, ParsesPhantomReads) {
  const Observations obs =
      parse_observations("txn 1\n  read 4 9 phantom\nend\n");
  EXPECT_TRUE(obs.txns.by_id(TxnId{1}).ops()[0].value.phantom);
}

TEST(Serialize, RoundTripExact) {
  const Observations a = parse_observations(kWriteSkew);
  const Observations b = parse_observations(to_text(a));
  ASSERT_EQ(a.txns.size(), b.txns.size());
  for (const model::Transaction& t : a.txns) {
    const model::Transaction& u = b.txns.by_id(t.id());
    EXPECT_EQ(t.session(), u.session());
    EXPECT_EQ(t.site(), u.site());
    EXPECT_EQ(t.start_ts(), u.start_ts());
    EXPECT_EQ(t.commit_ts(), u.commit_ts());
    ASSERT_EQ(t.ops().size(), u.ops().size());
    for (std::size_t i = 0; i < t.ops().size(); ++i) EXPECT_EQ(t.ops()[i], u.ops()[i]);
  }
  EXPECT_EQ(a.version_order, b.version_order);
}

TEST(Serialize, ErrorsCarryLineNumbers) {
  auto expect_error = [](const char* text, const char* needle) {
    try {
      parse_observations(text);
      FAIL() << "expected parse error for: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("line"), std::string::npos) << e.what();
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  expect_error("read 1 2\n", "outside a transaction");
  expect_error("txn 1\ntxn 2\n", "another transaction is open");
  expect_error("txn 1\n  write 3\n", "unterminated");
  expect_error("txn 1\n  read 3\nend\n", "read needs");
  expect_error("txn 1 bogus=1\nend\n", "unknown attribute");
  expect_error("frobnicate\n", "unknown directive");
  expect_error("txn x\nend\n", "bad txn id");
}

/// The error of an offline parse of `text`, empty when it parses.
std::string offline_error(const std::string& text) {
  try {
    parse_observations(text);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

StreamAuditResult follow(const std::string& text, std::size_t ingest_threads) {
  std::istringstream in(text);
  StreamAuditOptions opts;
  opts.poll_ms = 1;
  opts.idle_exit_ms = 1;
  opts.ingest_threads = ingest_threads;
  return stream_audit(in, opts);
}

const std::size_t kIngestThreads[] = {0, 2};

/// `doc` (a single block starting at line 1) is rejected with exactly
/// `message` offline, and with the same message under --follow.
void expect_rejected(const std::string& doc, const std::string& message) {
  EXPECT_EQ(offline_error(doc), message) << doc;
  for (std::size_t threads : kIngestThreads) {
    const StreamAuditResult r = follow(doc, threads);
    EXPECT_EQ(r.error, "block starting at line 1: " + message)
        << doc << " threads " << threads;
    EXPECT_EQ(r.transactions, 0u) << doc << " threads " << threads;
  }
}

/// `doc` parses offline and is fully audited under --follow.
void expect_accepted(const std::string& doc) {
  const std::string error = offline_error(doc);
  EXPECT_TRUE(error.empty()) << doc << ": " << error;
  for (std::size_t threads : kIngestThreads) {
    const StreamAuditResult r = follow(doc, threads);
    EXPECT_TRUE(r.error.empty()) << doc << " threads " << threads << ": " << r.error;
    EXPECT_EQ(r.transactions, parse_observations(doc).txns.size())
        << doc << " threads " << threads;
  }
}

TEST(InputContract, RejectsSignOnUnsignedField) {
  // Was accepted as id 2^64-1 and reported SATISFIABLE.
  expect_rejected("txn -1\nend\n", "line 1: bad txn id: '-1'");
  expect_rejected("txn +1\nend\n", "line 1: bad txn id: '+1'");
  expect_rejected("txn 1\n  write -3\nend\n", "line 2: bad key: '-3'");
  expect_accepted("txn 18446744073709551615\n  write 0\nend\n");
}

TEST(InputContract, RejectsSessionAndSiteOverflow) {
  // Were truncated to 32 bits: session=4294967296 silently became session 0.
  expect_rejected("txn 1 session=4294967296\nend\n",
                  "line 1: out-of-range session: '4294967296'");
  expect_rejected("txn 1 site=4294967296\nend\n",
                  "line 1: out-of-range site: '4294967296'");
  expect_accepted("txn 1 session=4294967294 site=4294967295\n  write 0\nend\n");
}

TEST(InputContract, RejectsNoSessionSentinel) {
  // Equal to kNoSession: the session's guarantees were silently dropped.
  expect_rejected("txn 1 session=4294967295\nend\n",
                  "line 1: reserved session: '4294967295' (the sentinel for "
                  "an absent session)");
}

TEST(InputContract, RejectsNoTimestampSentinel) {
  // Equal to kNoTimestamp: the transaction silently lost its timestamp.
  expect_rejected("txn 1 start=-9223372036854775808\nend\n",
                  "line 1: reserved start: '-9223372036854775808' (the "
                  "sentinel for an absent start)");
  expect_rejected("txn 1 commit=-9223372036854775808\nend\n",
                  "line 1: reserved commit: '-9223372036854775808' (the "
                  "sentinel for an absent commit)");
  expect_accepted(
      "txn 1 start=-9223372036854775807 commit=9223372036854775807\n"
      "  write 0\nend\n");
}

TEST(InputContract, RejectsReservedTxnZero) {
  // Id 0 is the initial-state writer. It used to be rejected only when the
  // transaction set was built, and the offline message carried no line.
  expect_rejected("txn 0\n  write 0\nend\n",
                  "line 1: reserved txn id: '0' (the writer of the initial state)");
  expect_rejected("txn 00 session=2\nend\n",
                  "line 1: reserved txn id: '00' (the writer of the initial state)");
}

TEST(InputContract, RejectsStartAfterCommit) {
  // Was accepted, and the transaction real-time-preceded itself: a lone
  // write was reported as a StrongSI violation.
  expect_rejected("txn 1 start=5 commit=2\n  write 1\nend\n",
                  "line 1: start=5 is after commit=2");
  expect_rejected("txn 1 commit=2 start=3\n  write 1\nend\n",
                  "line 1: start=3 is after commit=2");
  expect_accepted("txn 1 start=4 commit=4\n  write 1\nend\n");
  expect_accepted("txn 1 start=5\n  write 1\nend\ntxn 2 commit=2\n  write 1\nend\n");
}

TEST(InputContract, RejectsWriterRepeatedInVersionOrder) {
  // A repeat used to be read as a cycle: `vo 5 1 2 1` made two plain writes
  // an UNSATISFIABLE G1c T1 -> T2 -> T1. Offline only: `--follow` rejects
  // every `vo` line, so this is not a Rejected-input table row.
  const std::string writes = "txn 1\n  write 5\nend\ntxn 2\n  write 5\nend\n";
  auto rejected = [&](const std::string& vo_lines, const std::string& want) {
    try {
      parse_observations(writes + vo_lines);
      ADD_FAILURE() << vo_lines << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()), want) << vo_lines;
    }
  };
  rejected("vo 5 1 2 1\n", "line 7: vo lists T1 twice for k5");
  rejected("vo 5 2 2\n", "line 7: vo lists T2 twice for k5");
  // A repeat across two lines for the same key names the second line.
  rejected("vo 5 1\nvo 5 2\n\nvo 5 1\n", "line 10: vo lists T1 twice for k5");
  rejected("vo 5\nvo 5 1 1\n", "line 8: vo lists T1 twice for k5");
  // Continuation lines and the same id on other keys are fine.
  const Observations ok = parse_observations(writes + "vo 5 1\nvo 5 2\nvo 6 1 2\n");
  EXPECT_EQ(ok.version_order.at(Key{5}), (std::vector<TxnId>{TxnId{1}, TxnId{2}}));
}

TEST(InputContract, RejectedInputTableMatchesParser) {
  // Every row of the "Rejected input" table in the format doc: the input
  // line (closed with `end`) must be rejected with exactly the listed error.
  std::ifstream doc(CROOKS_DOCS_DIR "/observation-format.md");
  ASSERT_TRUE(doc.good());
  std::vector<std::pair<std::string, std::string>> rows;
  std::string line;
  bool in_section = false;
  while (std::getline(doc, line)) {
    if (line.rfind("## ", 0) == 0) in_section = line == "## Rejected input";
    if (!in_section || line.rfind("| `", 0) != 0) continue;
    // | `input` | `error` | why |
    const std::size_t a = line.find('`') + 1;
    const std::size_t a_end = line.find('`', a);
    const std::size_t b = line.find('`', a_end + 1) + 1;
    const std::size_t b_end = line.find('`', b);
    rows.emplace_back(line.substr(a, a_end - a), line.substr(b, b_end - b));
  }
  ASSERT_EQ(rows.size(), 8u);
  for (const auto& [input, error] : rows) expect_rejected(input + "\nend\n", error);
}

TEST(InputContract, CommentRuleIsTheSameOfflineAndUnderFollow) {
  // `#` starts a comment wherever it appears, in both readers. Before one
  // tokenizer served both, `default-level RC#note` passed under --follow but
  // was an unknown level offline, and `write 0#note` was a bad key in both.
  expect_accepted("default-level RC#note\ntxn 1\n  write 0\nend\n");
  EXPECT_EQ(parse_observations("default-level RC#note\n").default_level,
            ct::IsolationLevel::kReadCommitted);
  expect_accepted("txn 1\n  write 0#note\nend\n");
  expect_accepted("txn 1 session=3#note\n  read 0 0 phantom#x\nend#done\n");
  const Observations obs =
      parse_observations("txn 1 session=3#note\n  write 0#note\nend\n");
  EXPECT_EQ(obs.txns.by_id(TxnId{1}).session(), SessionId{3});
  EXPECT_EQ(obs.txns.by_id(TxnId{1}).ops()[0].key, Key{0});
  // The comment does not hide an error in front of it.
  expect_rejected("txn 1\n  write x#note\nend\n", "line 2: bad key: 'x'");
  const std::string bad_level = "default-level bogus#RC\n";
  const std::string message = offline_error(bad_level);
  EXPECT_EQ(message.rfind("line 1: unknown isolation level 'bogus'", 0), 0u)
      << message;
  for (std::size_t threads : kIngestThreads) {
    EXPECT_EQ(follow(bad_level, threads).error, message) << threads;
  }
}

TEST(Serialize, EmptyInputIsEmptyObservationSet) {
  const Observations obs = parse_observations("");
  EXPECT_TRUE(obs.txns.empty());
  EXPECT_FALSE(obs.has_version_order());
}

TEST(Audit, WriteSkewReport) {
  const Observations obs = parse_observations(kWriteSkew);
  const AuditResult a = audit(obs);
  ASSERT_TRUE(a.strongest.has_value());
  EXPECT_EQ(*a.strongest, ct::IsolationLevel::kStrongSI);
  EXPECT_NE(a.text.find("FAIL  Serializable"), std::string::npos);
  EXPECT_NE(a.text.find("PASS  AdyaSI"), std::string::npos);
  EXPECT_NE(a.text.find("strongest level(s) admitted: StrongSI"), std::string::npos);
  EXPECT_NE(a.text.find("witness"), std::string::npos);
}

TEST(Audit, CleanHistoryAdmitsEverything) {
  const Observations obs = parse_observations(
      "txn 1 start=0 commit=1\n  write 0\nend\n"
      "txn 2 start=2 commit=3\n  read 0 1\nend\n");
  const AuditResult a = audit(obs);
  // Both lattice branches top out: the maximal set is {StrongSI, SSER}.
  ASSERT_TRUE(a.strongest.has_value());
  EXPECT_NE(a.text.find("strongest level(s) admitted: StrongSI, StrictSerializable"),
            std::string::npos)
      << a.text;
  for (ct::IsolationLevel l : ct::kAllLevels) {
    EXPECT_EQ(a.text.find(std::string("FAIL  ") + std::string(ct::name_of(l))),
              std::string::npos);
  }
}

TEST(Audit, NamesPhenomenaWhenOrderKnown) {
  const Observations obs = parse_observations(kWriteSkew);
  const AuditResult a = audit(obs);
  EXPECT_NE(a.text.find("phenomena under the install order"), std::string::npos);
  EXPECT_NE(a.text.find("G2"), std::string::npos);
}

TEST(RenderExecution, ShowsStates) {
  const Observations obs = parse_observations(
      "txn 1\n  write 0\nend\ntxn 2\n  read 0 1\n  write 1\nend\n");
  const model::Execution e(obs.txns, {TxnId{1}, TxnId{2}});
  const std::string text = render_execution(obs.txns, e);
  EXPECT_NE(text.find("s0: all keys"), std::string::npos);
  EXPECT_NE(text.find("s1: apply T1"), std::string::npos);
  EXPECT_NE(text.find("k0=T1"), std::string::npos);
  EXPECT_NE(text.find("k1=T2"), std::string::npos);
}

}  // namespace
}  // namespace crooks::report
