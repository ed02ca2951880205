// Replication simulator: PSI correctness of the simulated system, the
// Figure 5 dependency gap, and the slowdown-cascade behaviour.
#include <gtest/gtest.h>

#include "adya/phenomena.hpp"
#include "replication/simulator.hpp"

namespace crooks::repl {
namespace {

SimOptions small_options(std::uint64_t seed) {
  SimOptions o;
  o.sites = 3;
  o.keys = 200;
  o.transactions = 300;
  o.replication_delay = 30;
  o.seed = seed;
  return o;
}

TEST(Simulator, Deterministic) {
  const SimResult a = simulate(small_options(5));
  const SimResult b = simulate(small_options(5));
  ASSERT_EQ(a.txns.size(), b.txns.size());
  for (std::size_t i = 0; i < a.txns.size(); ++i) {
    EXPECT_EQ(a.txns[i].traditional_deps, b.txns[i].traditional_deps);
    EXPECT_EQ(a.txns[i].client_deps, b.txns[i].client_deps);
    EXPECT_EQ(a.txns[i].traditional_visible, b.txns[i].traditional_visible);
  }
}

TEST(Simulator, CommitsPlusAbortsCoverAllTransactions) {
  const SimOptions o = small_options(7);
  const SimResult r = simulate(o);
  EXPECT_EQ(r.committed + r.ww_aborts, o.transactions);
  EXPECT_GT(r.committed, 0u);
}

/// The simulated system's client observations must satisfy CT_PSI — the
/// commit test audits the simulator exactly as it would audit a real store.
TEST(Simulator, ObservationsSatisfyPsi) {
  const SimResult r = simulate(small_options(3));
  checker::CheckOptions opts;
  opts.version_order = &r.version_order;
  const checker::CheckResult res =
      checker::check(ct::IsolationLevel::kPSI, r.observations, opts);
  ASSERT_NE(res.outcome, checker::Outcome::kUnknown) << res.detail;
  EXPECT_TRUE(res.satisfiable()) << res.detail;
}

/// With three asynchronous sites the observations are generally NOT
/// snapshot-consistent: long forks arise, so serializability fails while
/// PSI holds (the whole point of PSI).
TEST(Simulator, AsynchronyEventuallyViolatesSerializability) {
  bool found = false;
  for (std::uint64_t seed = 1; seed <= 10 && !found; ++seed) {
    SimOptions o = small_options(seed);
    o.keys = 40;  // contention makes forks likely
    const SimResult r = simulate(o);
    const model::CompiledHistory ch(r.observations);
    found = adya::detect(ch, adya::compile_install_orders(ch, &r.version_order)).g2;
  }
  EXPECT_TRUE(found);
}

TEST(Simulator, ClientDepsBoundedByFootprint) {
  const SimOptions o = small_options(11);
  const SimResult r = simulate(o);
  for (const TxnMetrics& t : r.txns) {
    EXPECT_LE(t.client_deps, o.reads_per_txn + o.writes_per_txn);
  }
}

/// Figure 5's headline: the traditional definition creates orders of
/// magnitude more dependencies than the client-centric one.
TEST(Simulator, TraditionalDepsDwarfClientDeps) {
  SimOptions o;
  o.sites = 3;
  o.keys = 10'000;
  o.transactions = 4'000;
  o.replication_delay = 600;
  o.seed = 1;
  const SimResult r = simulate(o);
  const double trad = r.mean_traditional_deps();
  const double cc = r.mean_client_deps();
  EXPECT_GT(cc, 0.0);
  EXPECT_GT(trad / cc, 20.0) << "traditional=" << trad << " client=" << cc;
}

TEST(Simulator, TraditionalDepsGrowWithReplicationLag) {
  SimOptions o = small_options(9);
  o.transactions = 2'000;
  o.keys = 5'000;
  o.replication_delay = 50;
  const double short_lag = simulate(o).mean_traditional_deps();
  o.replication_delay = 500;
  const double long_lag = simulate(o).mean_traditional_deps();
  EXPECT_GT(long_lag, short_lag * 3);
  // Client-centric deps do not care about lag.
  o.replication_delay = 50;
  const double cc_short = simulate(o).mean_client_deps();
  o.replication_delay = 500;
  const double cc_long = simulate(o).mean_client_deps();
  EXPECT_NEAR(cc_short, cc_long, 1.0);
}

/// Slowdown cascade (§5.3): a stalled partition delays *unrelated*
/// transactions under the traditional total-order discipline, but not under
/// the client-centric one.
TEST(Simulator, SlowPartitionCascadesOnlyUnderTraditionalPsi) {
  // The paper's sparse uniform workload (10k keys): client-centric
  // dependencies mostly predate the stall, so almost nothing waits.
  SimOptions o;
  o.sites = 3;
  o.keys = 10'000;
  o.transactions = 4'000;
  o.replication_delay = 20;
  o.partitions = 50;
  o.seed = 4;
  o.slowdown = Slowdown{.partition = 0, .from = 500, .until = 1500,
                        .extra_delay = 3'000};
  const SimResult r = simulate(o);

  const double trad = r.mean_unrelated_latency(/*traditional=*/true);
  const double cc = r.mean_unrelated_latency(/*traditional=*/false);
  // Unrelated transactions stay near the raw replication delay under the
  // client-centric discipline (a small tail is genuinely — transitively —
  // dependent on stalled transactions)...
  EXPECT_LT(cc, 5.0 * static_cast<double>(o.replication_delay));
  // ...but inherit the stall under the traditional one.
  EXPECT_GT(trad, 10.0 * cc) << "traditional=" << trad << " client=" << cc;
}

TEST(Simulator, EmptyMetricsAreZero) {
  SimResult empty;
  EXPECT_EQ(empty.mean_traditional_deps(), 0.0);
  EXPECT_EQ(empty.mean_client_deps(), 0.0);
  EXPECT_EQ(empty.mean_unrelated_latency(true), 0.0);
}

TEST(Simulator, SingleSiteHasNoReplicationLatency) {
  SimOptions o = small_options(1);
  o.sites = 1;
  const SimResult r = simulate(o);
  for (const TxnMetrics& t : r.txns) {
    EXPECT_EQ(t.traditional_visible, t.commit_time);
    EXPECT_EQ(t.client_visible, t.commit_time);
    EXPECT_EQ(t.traditional_deps, 0u);  // everything replicates instantly
  }
  EXPECT_EQ(r.ww_aborts, 0u);  // one site: no somewhere-concurrency
}

TEST(Simulator, SiteLocalWritesEliminateConflicts) {
  SimOptions o = small_options(6);
  o.keys = 60;  // high contention...
  o.transactions = 600;
  const std::size_t with_conflicts = simulate(o).ww_aborts;
  o.site_local_writes = true;  // ...but per-site ownership removes ww races
  EXPECT_EQ(simulate(o).ww_aborts, 0u);
  EXPECT_GT(with_conflicts, 0u);
}

TEST(Simulator, ClientVisibilityNeverExceedsTraditional) {
  SimOptions o = small_options(8);
  o.transactions = 800;
  o.slowdown = Slowdown{.partition = 0, .from = 100, .until = 400, .extra_delay = 500};
  const SimResult r = simulate(o);
  for (const TxnMetrics& t : r.txns) {
    EXPECT_LE(t.client_visible, t.traditional_visible);
    EXPECT_GE(t.client_visible, t.commit_time);
  }
}

TEST(Simulator, NoSlowdownMeansDisciplinesPerformAlike) {
  SimOptions o = small_options(2);
  o.transactions = 1'000;
  o.keys = 2'000;
  const SimResult r = simulate(o);
  const double trad = r.mean_unrelated_latency(true);
  const double cc = r.mean_unrelated_latency(false);
  EXPECT_GE(trad, cc);              // total order can only add waiting
  EXPECT_LT(trad, cc * 1.5 + 10);   // but without stalls it stays close
}

}  // namespace
}  // namespace crooks::repl
