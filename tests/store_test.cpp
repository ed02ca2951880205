// Store semantics per concurrency-control mode, and runner behavior
// (determinism, retries, failure injection, lock waiting).
#include <gtest/gtest.h>

#include "adya/phenomena.hpp"
#include "store/runner.hpp"
#include "store/store.hpp"
#include "workload/workload.hpp"
#include "pairwise_oracle.hpp"

namespace crooks::store {
namespace {

constexpr Key kX{0}, kY{1};

TEST(Store, ReadInitiallyBottom) {
  Store s(CCMode::kReadCommitted);
  const TxnId t = s.begin();
  const ReadResult r = s.read(t, kX);
  EXPECT_EQ(r.status, StepStatus::kOk);
  EXPECT_TRUE(r.value.is_initial());
  EXPECT_EQ(s.commit(t), StepStatus::kOk);
}

TEST(Store, ReadYourOwnWrites) {
  for (CCMode m : {CCMode::kSerial, CCMode::kTwoPhaseLocking, CCMode::kSnapshotIsolation,
                   CCMode::kReadAtomic, CCMode::kReadCommitted, CCMode::kReadUncommitted}) {
    Store s(m);
    const TxnId t = s.begin();
    ASSERT_EQ(s.write(t, kX), StepStatus::kOk);
    const ReadResult r = s.read(t, kX);
    EXPECT_EQ(r.value.writer, t) << name_of(m);
    EXPECT_EQ(s.commit(t), StepStatus::kOk);
  }
}

TEST(Store, RejectsDoubleWrite) {
  Store s(CCMode::kReadCommitted);
  const TxnId t = s.begin();
  ASSERT_EQ(s.write(t, kX), StepStatus::kOk);
  EXPECT_THROW(s.write(t, kX), std::invalid_argument);
}

TEST(Store, CommittedWritesVisibleAfterCommit) {
  Store s(CCMode::kReadCommitted);
  const TxnId t1 = s.begin();
  ASSERT_EQ(s.write(t1, kX), StepStatus::kOk);

  const TxnId t2 = s.begin();
  EXPECT_TRUE(s.read(t2, kX).value.is_initial());  // buffered write invisible
  ASSERT_EQ(s.commit(t1), StepStatus::kOk);
  EXPECT_EQ(s.read(t2, kX).value.writer, t1);      // RC: sees new commits
  ASSERT_EQ(s.commit(t2), StepStatus::kOk);
}

TEST(Store, SnapshotIsolationReadsFromBeginSnapshot) {
  Store s(CCMode::kSnapshotIsolation);
  const TxnId t1 = s.begin();
  ASSERT_EQ(s.write(t1, kX), StepStatus::kOk);
  const TxnId t2 = s.begin();     // snapshot taken before t1 commits
  ASSERT_EQ(s.commit(t1), StepStatus::kOk);
  EXPECT_TRUE(s.read(t2, kX).value.is_initial());  // stale but consistent
  ASSERT_EQ(s.commit(t2), StepStatus::kOk);

  const TxnId t3 = s.begin();     // fresh snapshot
  EXPECT_EQ(s.read(t3, kX).value.writer, t1);
  ASSERT_EQ(s.commit(t3), StepStatus::kOk);
}

TEST(Store, SnapshotIsolationFirstCommitterWins) {
  Store s(CCMode::kSnapshotIsolation);
  const TxnId t1 = s.begin();
  const TxnId t2 = s.begin();
  ASSERT_EQ(s.write(t1, kX), StepStatus::kOk);
  ASSERT_EQ(s.write(t2, kX), StepStatus::kOk);
  EXPECT_EQ(s.commit(t1), StepStatus::kOk);
  EXPECT_EQ(s.commit(t2), StepStatus::kAborted);  // ww conflict
  EXPECT_EQ(s.committed_count(), 1u);
  EXPECT_EQ(s.aborted_count(), 1u);
}

TEST(Store, SnapshotIsolationAllowsWriteSkew) {
  Store s(CCMode::kSnapshotIsolation);
  const TxnId t1 = s.begin();
  const TxnId t2 = s.begin();
  EXPECT_TRUE(s.read(t1, kX).value.is_initial());
  EXPECT_TRUE(s.read(t1, kY).value.is_initial());
  EXPECT_TRUE(s.read(t2, kX).value.is_initial());
  EXPECT_TRUE(s.read(t2, kY).value.is_initial());
  ASSERT_EQ(s.write(t1, kX), StepStatus::kOk);
  ASSERT_EQ(s.write(t2, kY), StepStatus::kOk);
  EXPECT_EQ(s.commit(t1), StepStatus::kOk);
  EXPECT_EQ(s.commit(t2), StepStatus::kOk);  // disjoint write sets: both commit
}

TEST(Store, TwoPhaseLockingBlocksConflictingOlder) {
  Store s(CCMode::kTwoPhaseLocking);
  const TxnId t1 = s.begin();  // older
  const TxnId t2 = s.begin();  // younger
  ASSERT_EQ(s.write(t2, kX), StepStatus::kOk);   // t2 X-locks x
  EXPECT_EQ(s.read(t1, kX).status, StepStatus::kBlocked);  // older waits
  ASSERT_EQ(s.commit(t2), StepStatus::kOk);      // releases the lock
  EXPECT_EQ(s.read(t1, kX).status, StepStatus::kOk);
  EXPECT_EQ(s.commit(t1), StepStatus::kOk);
}

TEST(Store, TwoPhaseLockingYoungerDies) {
  Store s(CCMode::kTwoPhaseLocking);
  const TxnId t1 = s.begin();  // older
  const TxnId t2 = s.begin();  // younger
  ASSERT_EQ(s.write(t1, kX), StepStatus::kOk);
  EXPECT_EQ(s.read(t2, kX).status, StepStatus::kAborted);  // wait-die victim
  EXPECT_FALSE(s.is_active(t2));
  EXPECT_EQ(s.commit(t1), StepStatus::kOk);
}

TEST(Store, TwoPhaseLockingSharedLocksCoexist) {
  Store s(CCMode::kTwoPhaseLocking);
  const TxnId t1 = s.begin();
  const TxnId t2 = s.begin();
  EXPECT_EQ(s.read(t1, kX).status, StepStatus::kOk);
  EXPECT_EQ(s.read(t2, kX).status, StepStatus::kOk);
  EXPECT_EQ(s.commit(t1), StepStatus::kOk);
  EXPECT_EQ(s.commit(t2), StepStatus::kOk);
}

TEST(Store, WoundWaitOlderWoundsYoungerHolder) {
  Store s(CCMode::kWoundWait);
  const TxnId t1 = s.begin();  // older
  const TxnId t2 = s.begin();  // younger
  ASSERT_EQ(s.write(t2, kX), StepStatus::kOk);   // t2 X-locks x
  EXPECT_EQ(s.read(t1, kX).status, StepStatus::kOk);  // t1 wounds t2, reads
  EXPECT_FALSE(s.is_active(t2));                 // t2 is dead
  EXPECT_EQ(s.commit(t1), StepStatus::kOk);
  EXPECT_EQ(s.aborted_count(), 1u);
}

TEST(Store, WoundWaitYoungerWaits) {
  Store s(CCMode::kWoundWait);
  const TxnId t1 = s.begin();  // older
  const TxnId t2 = s.begin();  // younger
  ASSERT_EQ(s.write(t1, kX), StepStatus::kOk);
  EXPECT_EQ(s.read(t2, kX).status, StepStatus::kBlocked);  // younger waits
  EXPECT_TRUE(s.is_active(t2));
  ASSERT_EQ(s.commit(t1), StepStatus::kOk);
  EXPECT_EQ(s.read(t2, kX).value.writer, t1);
  EXPECT_EQ(s.commit(t2), StepStatus::kOk);
}

TEST(Store, WoundWaitWoundsAllConflictingHolders) {
  Store s(CCMode::kWoundWait);
  const TxnId old = s.begin();
  const TxnId y1 = s.begin();
  const TxnId y2 = s.begin();
  EXPECT_EQ(s.read(y1, kX).status, StepStatus::kOk);  // S locks
  EXPECT_EQ(s.read(y2, kX).status, StepStatus::kOk);
  EXPECT_EQ(s.write(old, kX), StepStatus::kOk);  // wounds both S holders
  EXPECT_FALSE(s.is_active(y1));
  EXPECT_FALSE(s.is_active(y2));
  EXPECT_EQ(s.commit(old), StepStatus::kOk);
}

TEST(Runner, WoundWaitMakesProgressUnderContention) {
  const auto intents = wl::generate_mix(
      {.transactions = 80, .keys = 4, .reads_per_txn = 2, .writes_per_txn = 2, .seed = 11});
  const RunResult r = run(intents, {.mode = CCMode::kWoundWait, .seed = 13,
                                    .concurrency = 8, .retries = 500});
  EXPECT_EQ(r.committed, 80u);
}

TEST(Store, ReadUncommittedSeesDirtyWrites) {
  Store s(CCMode::kReadUncommitted);
  const TxnId t1 = s.begin();
  ASSERT_EQ(s.write(t1, kX), StepStatus::kOk);
  const TxnId t2 = s.begin();
  EXPECT_EQ(s.read(t2, kX).value.writer, t1);  // dirty read
  s.abort(t1);                                 // the writer dies
  ASSERT_EQ(s.commit(t2), StepStatus::kOk);
  // The exported history shows G1a.
  EXPECT_TRUE(adya::pairwise::Lifted(s.history()).detect().g1a);
}

TEST(Store, ReadUncommittedAbortedWritesInvisibleToLaterReads) {
  Store s(CCMode::kReadUncommitted);
  const TxnId t1 = s.begin();
  ASSERT_EQ(s.write(t1, kX), StepStatus::kOk);
  s.abort(t1);
  const TxnId t2 = s.begin();
  EXPECT_TRUE(s.read(t2, kX).value.is_initial());
  ASSERT_EQ(s.commit(t2), StepStatus::kOk);
}

TEST(Store, ReadAtomicRepairsFracturedReads) {
  Store s(CCMode::kReadAtomic);
  const TxnId writer = s.begin();
  ASSERT_EQ(s.write(writer, kX), StepStatus::kOk);

  const TxnId reader = s.begin();
  EXPECT_TRUE(s.read(reader, kX).value.is_initial());  // before writer commits

  ASSERT_EQ(s.write(writer, kY), StepStatus::kOk);
  ASSERT_EQ(s.commit(writer), StepStatus::kOk);

  EXPECT_EQ(s.read(reader, kY).value.writer, writer);  // after: fresh y
  ASSERT_EQ(s.commit(reader), StepStatus::kOk);        // repair upgrades x

  const adya::Phenomena p = adya::pairwise::Lifted(s.history()).detect();
  EXPECT_FALSE(p.fractured);
  // The exported observation of the reader has the *repaired* x.
  const model::TransactionSet obs = s.observations();
  EXPECT_EQ(obs.by_id(reader).ops()[0].value.writer, writer);
}

TEST(Store, ReadCommittedDoesFracture) {
  Store s(CCMode::kReadCommitted);
  const TxnId writer = s.begin();
  ASSERT_EQ(s.write(writer, kX), StepStatus::kOk);
  const TxnId reader = s.begin();
  EXPECT_TRUE(s.read(reader, kX).value.is_initial());
  ASSERT_EQ(s.write(writer, kY), StepStatus::kOk);
  ASSERT_EQ(s.commit(writer), StepStatus::kOk);
  EXPECT_EQ(s.read(reader, kY).value.writer, writer);
  ASSERT_EQ(s.commit(reader), StepStatus::kOk);
  EXPECT_TRUE(adya::pairwise::Lifted(s.history()).detect().fractured);
}

TEST(Store, HistoryExportRequiresQuiescence) {
  Store s(CCMode::kReadCommitted);
  const TxnId t = s.begin();
  EXPECT_THROW(s.history(), std::logic_error);
  s.abort(t);
  EXPECT_NO_THROW(s.history());
}

TEST(Store, VersionOrderFollowsCommitOrder) {
  Store s(CCMode::kReadCommitted);
  const TxnId t2 = s.begin();
  const TxnId t1 = s.begin();
  ASSERT_EQ(s.write(t1, kX), StepStatus::kOk);
  ASSERT_EQ(s.write(t2, kX), StepStatus::kOk);
  ASSERT_EQ(s.commit(t1), StepStatus::kOk);  // t1 installs first
  ASSERT_EQ(s.commit(t2), StepStatus::kOk);
  const auto vo = s.version_order();
  ASSERT_EQ(vo.at(kX).size(), 2u);
  EXPECT_EQ(vo.at(kX)[0], t1);
  EXPECT_EQ(vo.at(kX)[1], t2);
}

// ------------------------------------------------------------------ runner

TEST(Runner, DeterministicForSameSeed) {
  const auto intents = wl::generate_mix({.transactions = 40, .keys = 8, .seed = 7});
  RunOptions opts{.mode = CCMode::kSnapshotIsolation, .seed = 3, .concurrency = 6};
  const RunResult a = run(intents, opts);
  const RunResult b = run(intents, opts);
  EXPECT_EQ(a.committed, b.committed);
  EXPECT_EQ(a.aborted, b.aborted);
  ASSERT_EQ(a.observations.size(), b.observations.size());
  for (const model::Transaction& t : a.observations) {
    const model::Transaction& u = b.observations.by_id(t.id());
    ASSERT_EQ(t.ops().size(), u.ops().size());
    for (std::size_t i = 0; i < t.ops().size(); ++i) EXPECT_EQ(t.ops()[i], u.ops()[i]);
  }
}

TEST(Runner, SerialModeCommitsEverything) {
  const auto intents = wl::generate_mix({.transactions = 30, .keys = 4, .seed = 2});
  const RunResult r = run(intents, {.mode = CCMode::kSerial, .seed = 1});
  EXPECT_EQ(r.committed, 30u);
  EXPECT_EQ(r.aborted, 0u);
}

TEST(Runner, SnapshotIsolationAbortsOnContention) {
  // Heavy write contention on a tiny key space: first-committer-wins fires.
  const auto intents = wl::generate_mix(
      {.transactions = 60, .keys = 4, .reads_per_txn = 1, .writes_per_txn = 2, .seed = 5});
  const RunResult r = run(intents, {.mode = CCMode::kSnapshotIsolation, .seed = 9,
                                    .concurrency = 8});
  EXPECT_GT(r.aborted, 0u);
  EXPECT_EQ(r.committed + r.aborted, 60u);
}

TEST(Runner, RetriesReRunAbortedIntents) {
  const auto intents = wl::generate_mix(
      {.transactions = 60, .keys = 4, .reads_per_txn = 1, .writes_per_txn = 2, .seed = 5});
  const RunResult r = run(intents, {.mode = CCMode::kSnapshotIsolation, .seed = 9,
                                    .concurrency = 8, .retries = 20});
  EXPECT_EQ(r.committed, 60u);  // every intent eventually commits
}

TEST(Runner, TwoPhaseLockingMakesProgressUnderContention) {
  const auto intents = wl::generate_mix(
      {.transactions = 80, .keys = 4, .reads_per_txn = 2, .writes_per_txn = 2, .seed = 11});
  // Wait-die under 8-way contention on a 4-key space thrashes by design;
  // with retry-with-original-seniority every intent still gets through.
  const RunResult r = run(intents, {.mode = CCMode::kTwoPhaseLocking, .seed = 13,
                                    .concurrency = 8, .retries = 500});
  EXPECT_EQ(r.committed, 80u);
  EXPECT_GT(r.blocked_steps, 0u);  // some waiting happened
}

TEST(Runner, InjectedAbortsAreRecorded) {
  const auto intents = wl::generate_mix({.transactions = 50, .keys = 16, .seed = 3});
  const RunResult r = run(intents, {.mode = CCMode::kReadCommitted, .seed = 4,
                                    .concurrency = 4, .injected_abort_prob = 0.2});
  EXPECT_GT(r.aborted, 0u);
  EXPECT_LT(r.committed, 50u);
}

TEST(Runner, ObservationsCarrySessionsAndTimestamps) {
  const auto intents = wl::generate_mix(
      {.transactions = 12, .keys = 20, .sessions = 3, .seed = 6});
  const RunResult r = run(intents, {.mode = CCMode::kSerial, .seed = 1});
  for (const model::Transaction& t : r.observations) {
    EXPECT_TRUE(t.has_timestamps());
    EXPECT_NE(t.session(), kNoSession);
  }
}

}  // namespace
}  // namespace crooks::store
