// End-to-end integration: store → observations → serialization → parsing →
// audit → verdicts, crossing every module boundary the way a real deployment
// would (dump the commit log, ship it to the auditor, read the report).
#include <gtest/gtest.h>

#include "adya/phenomena.hpp"
#include "common/rng.hpp"
#include "replication/geo_store.hpp"
#include "report/report.hpp"
#include "store/runner.hpp"
#include "workload/workload.hpp"

namespace crooks {
namespace {

TEST(Integration, StoreDumpAuditRoundTrip) {
  // 1. Run a snapshot-isolation store on a contended workload.
  const auto intents = wl::generate_mix({.transactions = 40,
                                         .keys = 6,
                                         .reads_per_txn = 2,
                                         .writes_per_txn = 2,
                                         .sessions = 4,
                                         .seed = 9});
  const store::RunResult run = store::run(
      intents, {.mode = store::CCMode::kSnapshotIsolation, .seed = 2,
                .concurrency = 6, .retries = 3});

  // 2. Dump observations to text, as a real system would.
  const report::Observations dumped{run.observations, run.version_order, std::nullopt};
  const std::string text = report::to_text(dumped);
  ASSERT_FALSE(text.empty());

  // 3. Parse the dump back and audit it.
  const report::Observations parsed = report::parse_observations(text);
  const report::AuditResult audit = report::audit(parsed);

  // 4. The audit confirms the mode's contract (ANSI SI) from text alone.
  ASSERT_TRUE(audit.strongest.has_value());
  EXPECT_TRUE(ct::at_least_as_strong(*audit.strongest, ct::IsolationLevel::kAnsiSI))
      << audit.text;
  EXPECT_NE(audit.text.find("PASS  AnsiSI"), std::string::npos) << audit.text;
}

TEST(Integration, GeoStoreDumpNamesThePsiContract) {
  repl::GeoStore g({.sites = 3, .replication_delay = 5});
  Rng rng(4);
  for (int i = 0; i < 60; ++i) {
    const TxnId t = g.begin(SiteId{static_cast<std::uint32_t>(rng.below(3))});
    std::unordered_set<std::uint64_t> written;
    for (int op = 0; op < 4; ++op) {
      const std::uint64_t k = rng.below(6);
      if (rng.chance(0.5)) {
        g.read(t, Key{k});
      } else if (written.insert(k).second) {
        g.write(t, Key{k});
      }
    }
    if (g.is_active(t)) g.commit(t);
  }

  const report::Observations dumped{g.observations(), g.version_order(), std::nullopt};
  const report::Observations parsed = report::parse_observations(report::to_text(dumped));
  const report::AuditResult audit = report::audit(parsed);
  EXPECT_NE(audit.text.find("PASS  PSI"), std::string::npos) << audit.text;
}

TEST(Integration, InjectedAnomalySurvivesTheFullPipeline) {
  // Hand-inject a fractured read into otherwise clean observations and watch
  // it surface, by name, in the final report.
  const report::Observations obs = report::parse_observations(
      "txn 1 start=0 commit=10\n  write 0\n  write 1\nend\n"
      "txn 2 start=11 commit=20\n  read 0 1\n  read 1 0\nend\n"
      "vo 0 1\nvo 1 1\n");
  const report::AuditResult audit = report::audit(obs);
  EXPECT_NE(audit.text.find("FAIL  ReadAtomic"), std::string::npos) << audit.text;
  EXPECT_NE(audit.text.find("fractured"), std::string::npos) << audit.text;
  EXPECT_NE(audit.text.find("PASS  ReadCommitted"), std::string::npos);
}

TEST(Integration, PhenomenaAndCheckerAgreeAfterSerialization) {
  const auto intents = wl::generate_mix({.transactions = 20,
                                         .keys = 5,
                                         .reads_per_txn = 2,
                                         .writes_per_txn = 2,
                                         .seed = 17});
  const store::RunResult run = store::run(
      intents, {.mode = store::CCMode::kReadCommitted, .seed = 6, .concurrency = 6});
  const report::Observations parsed = report::parse_observations(
      report::to_text({run.observations, run.version_order, std::nullopt}));

  const model::CompiledHistory ch(parsed.txns);
  const adya::Phenomena p =
      adya::detect(ch, adya::compile_install_orders(ch, &parsed.version_order));
  checker::CheckOptions opts;
  opts.version_order = &parsed.version_order;
  for (ct::IsolationLevel level : ct::kAllLevels) {
    const adya::Verdict av = adya::satisfies(p, level);
    if (av == adya::Verdict::kInapplicable) continue;
    const checker::CheckResult cr = checker::check(level, parsed.txns, opts);
    if (cr.outcome == checker::Outcome::kUnknown) continue;
    EXPECT_EQ(av == adya::Verdict::kSatisfied, cr.satisfiable()) << ct::name_of(level);
  }
}

}  // namespace
}  // namespace crooks
