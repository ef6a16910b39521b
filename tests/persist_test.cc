#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/geqo_system.h"
#include "serve/persist/catalog_store.h"
#include "serve/persist/kill_point.h"
#include "serve/persist/manifest.h"
#include "test_util.h"
#include "workload/generator.h"
#include "workload/rewrite.h"
#include "workload/schemas.h"

// Crash-recovery matrix for the LSM-style catalog store. Each scenario
// forks a child that arms a kill point (kill_point.h) and drives the store
// until _exit(137) fires at exactly that write-path boundary, then the
// parent reopens the half-written directory and proves recovery:
//
//   - kills between ops (after each add record, during checkpoint rotation,
//     mid-compaction, pre-manifest-swap, pre-GC) recover to a catalog whose
//     ExportSnapshot bytes are IDENTICAL to an uninterrupted reference;
//   - kills inside a multi-record op (mid-ProbeAdd) recover to the exact
//     durable log prefix: two independent recoveries of the same directory
//     are bit-identical, and the store keeps serving;
//   - a torn log tail is truncated (once), counted, and gone on the next
//     open; recovery itself can be killed and re-run idempotently;
//   - legacy one-shot snapshot files are rejected loudly, as is opening a
//     store with the wrong kind entry point;
//   - concurrent probers, a writer and a background verifier journaling
//     through a store that compacts underneath them reopen to the same
//     entries and class partition.

namespace geqo::serve {
namespace {

namespace fs = std::filesystem;

class PersistTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog(MakeTpchCatalog());
    GeqoSystemOptions options;
    options.model.conv1_size = 8;
    options.model.conv2_size = 8;
    options.model.fc1_size = 8;
    options.model.fc2_size = 4;
    // Wide-open funnel (untrained EMF): probes reach the exact verifier, so
    // the stream below proves equivalences, memoizes verdicts, and unions
    // classes — every record type flows through the log.
    options.pipeline.vmf.radius = 6.0f;
    options.pipeline.emf.threshold = 0.0f;
    system_ = new GeqoSystem(catalog_, options);

    // 8 generated subexpressions + 4 rewrites of the early ones.
    Rng rng(0xD15C);
    QueryGenerator generator(catalog_, GeneratorOptions());
    Rewriter rewriter(catalog_);
    plans_ = new std::vector<PlanPtr>(generator.GenerateMany(8, &rng));
    for (size_t i = 0; i < 4; ++i) {
      auto variant = rewriter.RewriteOnce((*plans_)[i], &rng);
      GEQO_CHECK(variant.ok());
      plans_->push_back(*variant);
    }
  }

  static void TearDownTestSuite() {
    delete plans_;
    delete system_;
    delete catalog_;
    plans_ = nullptr;
    system_ = nullptr;
    catalog_ = nullptr;
  }

  /// A fresh, empty store directory under this process's scratch directory.
  static std::string StoreDir(const std::string& name) {
    const std::string dir = testing::ProcessTempDir() + "/persist_" + name;
    std::error_code ec;
    fs::remove_all(dir, ec);
    return dir;
  }

  static Result<std::unique_ptr<CatalogStore>> OpenSingle(
      const std::string& dir) {
    return system_->OpenCatalogStore(dir, *plans_);
  }

  static Result<std::unique_ptr<CatalogStore>> OpenShardedStore(
      const std::string& dir) {
    ShardedCatalogOptions options;
    options.num_shards = 2;
    options.verifier_threads = 0;  // deferred mode: deterministic streams
    return system_->OpenShardedCatalogStore(dir, *plans_, options);
  }

  static std::string SnapshotBytes(const CatalogStore& store) {
    std::ostringstream out;
    GEQO_CHECK_OK(store.ExportSnapshot(out));
    return out.str();
  }

  /// Forks a child that arms \p kill_point on hit \p hits and runs \p body;
  /// returns the child's exit code (137 when the kill fired, 0 when the
  /// body ran to completion without reaching the armed hit).
  static int RunKilledChild(const char* kill_point, int hits,
                            const std::function<void()>& body) {
    // fork() copies only the calling thread, and the child of a
    // multi-threaded process may make only async-signal-safe calls; TSan
    // kills a child that starts a thread there (a sharded store's
    // compaction worker). So retire the pool's workers for the fork.
    const size_t threads = ThreadPool::GlobalThreads();
    ThreadPool::SetGlobalThreads(1);
    const pid_t pid = fork();
    GEQO_CHECK(pid >= 0);
    if (pid == 0) {
      persist::SetKillPoint(kill_point, hits);
      body();
      std::_Exit(0);
    }
    ThreadPool::SetGlobalThreads(threads);
    int status = 0;
    GEQO_CHECK(waitpid(pid, &status, 0) == pid);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  static Catalog* catalog_;
  static GeqoSystem* system_;
  static std::vector<PlanPtr>* plans_;
};

Catalog* PersistTest::catalog_ = nullptr;
GeqoSystem* PersistTest::system_ = nullptr;
std::vector<PlanPtr>* PersistTest::plans_ = nullptr;

// ---------------------------------------------------------------------------
// Exact recovery at every record boundary: an add-only stream appends one
// record per op, so "killed after record k" is "killed between ops" for all
// k — the recovered + re-applied store must be bit-identical to a store
// that was never interrupted.

TEST_F(PersistTest, SingleAddStreamKilledAfterEveryRecordIsExact) {
  const std::string ref_dir = StoreDir("add_ref");
  std::string ref_bytes;
  {
    auto ref = OpenSingle(ref_dir);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    for (const PlanPtr& plan : *plans_) {
      ASSERT_TRUE((*ref)->catalog()->Add(plan).ok());
    }
    ref_bytes = SnapshotBytes(**ref);
    ASSERT_TRUE((*ref)->Close().ok());
  }

  for (int k = 1;; ++k) {
    const std::string dir = StoreDir("add_kill");
    const int code = RunKilledChild("wal-append", k, [&] {
      auto store = OpenSingle(dir);
      GEQO_CHECK(store.ok());
      for (const PlanPtr& plan : *plans_) {
        GEQO_CHECK((*store)->catalog()->Add(plan).ok());
      }
      GEQO_CHECK_OK((*store)->Close());
    });
    if (code == 0) {
      // Hit k exceeds the stream's record count: the matrix is exhausted.
      ASSERT_GT(k, static_cast<int>(plans_->size()));
      break;
    }
    ASSERT_EQ(code, 137) << "kill after record " << k;

    auto store = OpenSingle(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const size_t recovered = (*store)->catalog()->size();
    EXPECT_EQ(recovered, static_cast<size_t>(k))
        << "every flushed add record must survive the crash";
    for (size_t i = recovered; i < plans_->size(); ++i) {
      ASSERT_TRUE((*store)->catalog()->Add((*plans_)[i]).ok());
    }
    EXPECT_EQ(SnapshotBytes(**store), ref_bytes)
        << "recovery after record " << k
        << " + re-applied tail diverged from the uninterrupted reference";
    ASSERT_TRUE((*store)->Close().ok());
  }
}

TEST_F(PersistTest, ShardedAddStreamKilledAfterEveryRecordIsExact) {
  const std::string ref_dir = StoreDir("shadd_ref");
  std::string ref_bytes;
  {
    auto ref = OpenShardedStore(ref_dir);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    for (const PlanPtr& plan : *plans_) {
      ASSERT_TRUE((*ref)->sharded()->Add(plan).ok());
    }
    ref_bytes = SnapshotBytes(**ref);
    ASSERT_TRUE((*ref)->Close().ok());
  }

  for (int k = 1;; ++k) {
    const std::string dir = StoreDir("shadd_kill");
    const int code = RunKilledChild("wal-append", k, [&] {
      auto store = OpenShardedStore(dir);
      GEQO_CHECK(store.ok());
      for (const PlanPtr& plan : *plans_) {
        GEQO_CHECK((*store)->sharded()->Add(plan).ok());
      }
      GEQO_CHECK_OK((*store)->Close());
    });
    if (code == 0) {
      ASSERT_GT(k, static_cast<int>(plans_->size()));
      break;
    }
    ASSERT_EQ(code, 137) << "kill after record " << k;

    auto store = OpenShardedStore(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    const size_t recovered = (*store)->sharded()->size();
    EXPECT_EQ(recovered, static_cast<size_t>(k));
    for (size_t i = recovered; i < plans_->size(); ++i) {
      ASSERT_TRUE((*store)->sharded()->Add((*plans_)[i]).ok());
    }
    EXPECT_EQ(SnapshotBytes(**store), ref_bytes)
        << "sharded recovery after record " << k << " diverged";
    ASSERT_TRUE((*store)->Close().ok());
  }
}

// ---------------------------------------------------------------------------
// Maintenance kill points: the full probe stream (verdicts, unions, memo)
// lands before the crash, which fires inside Checkpoint / Compact — log
// rotation, the mid-base export, the pre-manifest-swap window, and the
// pre-GC window. All state is durable by then, so recovery must be exact.

TEST_F(PersistTest, MaintenanceKillPointsRecoverBitIdentical) {
  const std::string ref_dir = StoreDir("maint_ref");
  std::string ref_bytes;
  {
    auto ref = OpenSingle(ref_dir);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    for (const PlanPtr& plan : *plans_) {
      ASSERT_TRUE((*ref)->catalog()->ProbeAdd(plan).ok());
    }
    ref_bytes = SnapshotBytes(**ref);
    ASSERT_TRUE((*ref)->Close().ok());
  }

  for (const char* kill_point :
       {"manifest-tmp", "manifest-renamed", "compact-mid-base",
        "compact-pre-manifest", "compact-pre-gc"}) {
    const std::string dir = StoreDir("maint_kill");
    const int code = RunKilledChild("noop", 1, [&] {
      auto store = OpenSingle(dir);
      GEQO_CHECK(store.ok());
      for (const PlanPtr& plan : *plans_) {
        GEQO_CHECK((*store)->catalog()->ProbeAdd(plan).ok());
      }
      // Arm only now: Open's own rotation writes the manifest too, and the
      // crash under test is the one during maintenance.
      persist::SetKillPoint(kill_point);
      GEQO_CHECK_OK((*store)->Checkpoint());
      GEQO_CHECK_OK((*store)->Compact());
      GEQO_CHECK_OK((*store)->Close());
    });
    ASSERT_EQ(code, 137) << kill_point << " never fired";

    auto store = OpenSingle(dir);
    ASSERT_TRUE(store.ok())
        << kill_point << ": " << store.status().ToString();
    EXPECT_EQ(SnapshotBytes(**store), ref_bytes)
        << "crash at " << kill_point << " lost or invented state";
    // The recovered store keeps serving and checkpointing.
    ASSERT_TRUE((*store)->Checkpoint().ok()) << kill_point;
    ASSERT_TRUE((*store)->Compact().ok()) << kill_point;
    EXPECT_EQ(SnapshotBytes(**store), ref_bytes) << kill_point;
    ASSERT_TRUE((*store)->Close().ok()) << kill_point;
  }
}

TEST_F(PersistTest, ShardedCheckpointKillRecoversPendingTail) {
  const std::string ref_dir = StoreDir("shmaint_ref");
  std::string ref_bytes;
  size_t ref_pending = 0;
  {
    auto ref = OpenShardedStore(ref_dir);
    ASSERT_TRUE(ref.ok()) << ref.status().ToString();
    for (const PlanPtr& plan : *plans_) {
      ASSERT_TRUE((*ref)->sharded()->ProbeAdd(plan).ok());
    }
    ref_pending = (*ref)->sharded()->PendingVerifications();
    ref_bytes = SnapshotBytes(**ref);
    ASSERT_TRUE((*ref)->Close().ok());
  }
  // Deferred mode plus rewrites guarantees a non-empty pending tail, so the
  // crash window covers pending re-logging at rotation.
  ASSERT_GT(ref_pending, 0u);

  for (const char* kill_point : {"manifest-tmp", "manifest-renamed"}) {
    const std::string dir = StoreDir("shmaint_kill");
    const int code = RunKilledChild("noop", 1, [&] {
      auto store = OpenShardedStore(dir);
      GEQO_CHECK(store.ok());
      for (const PlanPtr& plan : *plans_) {
        GEQO_CHECK((*store)->sharded()->ProbeAdd(plan).ok());
      }
      persist::SetKillPoint(kill_point);
      GEQO_CHECK_OK((*store)->Checkpoint());
      GEQO_CHECK_OK((*store)->Close());
    });
    ASSERT_EQ(code, 137) << kill_point << " never fired";

    auto store = OpenShardedStore(dir);
    ASSERT_TRUE(store.ok())
        << kill_point << ": " << store.status().ToString();
    EXPECT_EQ((*store)->sharded()->PendingVerifications(), ref_pending)
        << kill_point << " dropped or duplicated pending verifications";
    EXPECT_EQ(SnapshotBytes(**store), ref_bytes) << kill_point;
    ASSERT_TRUE((*store)->Close().ok());
  }
}

// ---------------------------------------------------------------------------
// Kills inside a multi-record op (mid-ProbeAdd): the durable prefix is a
// legal catalog state, and recovering it must be deterministic — two
// independent recoveries of copies of the same crashed directory agree to
// the byte, and the recovered store still serves.

TEST_F(PersistTest, MidProbeKillsRecoverDeterministically) {
  for (const int k : {2, 5, 9, 14}) {
    const std::string dir = StoreDir("midprobe_kill");
    const int code = RunKilledChild("wal-append", k, [&] {
      auto store = OpenSingle(dir);
      GEQO_CHECK(store.ok());
      for (const PlanPtr& plan : *plans_) {
        GEQO_CHECK((*store)->catalog()->ProbeAdd(plan).ok());
      }
      GEQO_CHECK_OK((*store)->Close());
    });
    ASSERT_EQ(code, 137) << "probe stream appended fewer than " << k
                         << " records";

    // Copy the crashed directory BEFORE recovery mutates it (rotation,
    // truncation), then recover both copies independently.
    const std::string twin = StoreDir("midprobe_twin");
    fs::copy(dir, twin);

    auto first = OpenSingle(dir);
    ASSERT_TRUE(first.ok()) << first.status().ToString();
    const std::string first_bytes = SnapshotBytes(**first);
    auto twin_store = OpenSingle(twin);
    ASSERT_TRUE(twin_store.ok()) << twin_store.status().ToString();
    EXPECT_EQ(first_bytes, SnapshotBytes(**twin_store))
        << "recovery of the same crash image (record " << k
        << ") is not deterministic";
    ASSERT_TRUE((*twin_store)->Close().ok());

    // The recovered store keeps serving: finish the stream and close.
    for (size_t i = (*first)->catalog()->size(); i < plans_->size(); ++i) {
      ASSERT_TRUE((*first)->catalog()->ProbeAdd((*plans_)[i]).ok());
    }
    ASSERT_TRUE((*first)->Close().ok());
  }
}

// ---------------------------------------------------------------------------
// Recovery is itself crash-safe: replay does not mutate the directory (the
// only write, tail truncation, is idempotent), so a kill mid-replay
// followed by a second recovery lands on the uninterrupted result.

TEST_F(PersistTest, KillDuringReplayThenRecoverAgainIsExact) {
  const std::string dir = StoreDir("replay_kill");
  std::string ref_bytes;
  {
    auto store = OpenSingle(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (const PlanPtr& plan : *plans_) {
      ASSERT_TRUE((*store)->catalog()->ProbeAdd(plan).ok());
    }
    ref_bytes = SnapshotBytes(**store);
    ASSERT_TRUE((*store)->Close().ok());
  }

  // Die while applying the 3rd replayed record, then once more on the 7th.
  for (const int k : {3, 7}) {
    const int code = RunKilledChild("replay-record", k, [&] {
      auto reopened = OpenSingle(dir);
      GEQO_CHECK(reopened.ok());
    });
    ASSERT_EQ(code, 137) << "replay-record hit " << k << " never fired";
  }

  auto recovered = OpenSingle(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(SnapshotBytes(**recovered), ref_bytes);
  ASSERT_TRUE((*recovered)->Close().ok());
}

// ---------------------------------------------------------------------------
// Torn tails: garbage past the last valid frame is truncated exactly once,
// counted in stats, and gone from disk on the next open.

TEST_F(PersistTest, TornTailIsTruncatedOnceAndCounted) {
  const std::string dir = StoreDir("torn");
  {
    auto store = OpenSingle(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (size_t i = 0; i < 3; ++i) {
      ASSERT_TRUE((*store)->catalog()->Add((*plans_)[i]).ok());
    }
    ASSERT_TRUE((*store)->Close().ok());
  }

  // Append a torn half-record to every log partition the manifest lists.
  const auto manifest = persist::ReadManifest(dir);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  ASSERT_FALSE(manifest->log_ids.empty());
  size_t damaged = 0;
  for (const uint64_t id : manifest->log_ids) {
    const std::string path =
        dir + "/" + persist::WalPartitionFileName(id, 0);
    std::ifstream probe(path, std::ios::binary | std::ios::ate);
    if (!probe) continue;
    const auto clean_size = probe.tellg();
    probe.close();
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "torn-half-frame";
    out.close();
    ASSERT_GT(fs::file_size(path), static_cast<uint64_t>(clean_size));
    ++damaged;
  }
  ASSERT_GT(damaged, 0u);

  {
    auto store = OpenSingle(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->stats().torn_tails_truncated, damaged);
    EXPECT_EQ((*store)->catalog()->size(), 3u)
        << "truncation must not cost valid records";
    ASSERT_TRUE((*store)->Close().ok());
  }
  {
    // The truncation is durable: a second open sees clean logs.
    auto store = OpenSingle(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->stats().torn_tails_truncated, 0u);
    EXPECT_EQ((*store)->catalog()->size(), 3u);
    ASSERT_TRUE((*store)->Close().ok());
  }
}

// ---------------------------------------------------------------------------
// The store under concurrent serving: two probers, one ProbeAdd writer and
// one background verifier journal through a 4-shard store whose low record
// threshold keeps background compaction folding the log while they run.
// Once drained, the catalog must reopen with the same entries and the same
// class partition.

TEST_F(PersistTest, ConcurrentServingWithBackgroundCompactionReopensExact) {
  // 30 generated subexpressions + 10 rewrites of the early ones, so the
  // verifier proves classes while the store compacts.
  Rng rng(0xC0AC);
  QueryGenerator generator(catalog_, GeneratorOptions());
  Rewriter rewriter(catalog_);
  std::vector<PlanPtr> plans = generator.GenerateMany(30, &rng);
  for (size_t i = 0; i < 10; ++i) {
    auto variant = rewriter.RewriteOnce(plans[i], &rng);
    ASSERT_TRUE(variant.ok()) << variant.status().ToString();
    plans.push_back(*variant);
  }

  ShardedCatalogOptions options;
  options.num_shards = 4;
  options.verifier_threads = 1;
  DurabilityOptions durability;
  durability.compact_after_records = 16;
  const std::string dir = StoreDir("concurrent");
  auto store =
      system_->OpenShardedCatalogStore(dir, plans, options, durability);
  ASSERT_TRUE(store.ok()) << store.status().ToString();
  ShardedCatalog& catalog = *(*store)->sharded();

  std::atomic<bool> writing{true};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  // One writer, so the global Add order is the order of `plans`, which is
  // what the reopen below must be handed.
  threads.emplace_back([&] {
    for (const PlanPtr& plan : plans) {
      if (!catalog.ProbeAdd(plan).ok()) failed = true;
    }
    writing = false;
  });
  for (size_t p = 0; p < 2; ++p) {
    threads.emplace_back([&, p] {
      // At least one pass, then on until the writer is done, so every
      // ingest overlaps probes.
      for (size_t i = 0; i < plans.size() || writing.load(); ++i) {
        const PlanPtr& plan = plans[(i * 7 + p) % plans.size()];
        if (!catalog.Probe(plan).ok()) failed = true;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  ASSERT_FALSE(failed.load());

  catalog.DrainPendingVerifications();
  ASSERT_EQ(catalog.PendingVerifications(), 0u);
  const size_t entries = catalog.size();
  ASSERT_EQ(entries, plans.size());
  std::vector<size_t> partition(entries);
  for (size_t gid = 0; gid < entries; ++gid) {
    partition[gid] = catalog.ClassOf(gid);
  }
  const size_t classes = catalog.NumClasses();
  ASSERT_TRUE((*store)->Close().ok()) << (*store)->status().ToString();
  EXPECT_GT((*store)->stats().compactions, 0u)
      << "no background compaction ran under the record threshold";

  auto reopened =
      system_->OpenShardedCatalogStore(dir, plans, options, durability);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  ShardedCatalog& recovered = *(*reopened)->sharded();
  recovered.DrainPendingVerifications();
  ASSERT_EQ(recovered.size(), entries);
  EXPECT_EQ(recovered.NumClasses(), classes);
  for (size_t gid = 0; gid < entries; ++gid) {
    EXPECT_EQ(recovered.ClassOf(gid), partition[gid]) << "entry " << gid;
  }
  ASSERT_TRUE((*reopened)->Close().ok());
}

// ---------------------------------------------------------------------------
// Loud failures: legacy snapshot files and wrong-kind opens must not be
// silently adopted or clobbered.

TEST_F(PersistTest, LegacySnapshotFileIsRejectedLoudly) {
  const std::string path = StoreDir("legacy") + ".snapshot";
  {
    auto serving = system_->OpenCatalog();
    for (const PlanPtr& plan : *plans_) {
      ASSERT_TRUE(serving->ProbeAdd(plan).ok());
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(serving->ExportSnapshot(out).ok());
  }
  auto store = OpenSingle(path);
  ASSERT_FALSE(store.ok());
  EXPECT_NE(store.status().ToString().find("legacy"), std::string::npos)
      << store.status().ToString();
  // The misuse did not destroy the snapshot: it still imports.
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(system_->ImportCatalogSnapshot(in, *plans_).ok());
  std::remove(path.c_str());
}

TEST_F(PersistTest, WrongKindOpenIsRejected) {
  const std::string dir = StoreDir("kind");
  {
    auto store = OpenSingle(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    ASSERT_TRUE((*store)->catalog()->Add((*plans_)[0]).ok());
    ASSERT_TRUE((*store)->Close().ok());
  }
  auto sharded = OpenShardedStore(dir);
  ASSERT_FALSE(sharded.ok());
  EXPECT_NE(
      sharded.status().ToString().find("single-catalog"), std::string::npos)
      << sharded.status().ToString();
}

// A store reopened with fewer plans than logged entries fails loudly
// instead of replaying garbage.

TEST_F(PersistTest, ReopenWithTruncatedPlanListFailsLoudly) {
  const std::string dir = StoreDir("plans");
  {
    auto store = OpenSingle(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (const PlanPtr& plan : *plans_) {
      ASSERT_TRUE((*store)->catalog()->Add(plan).ok());
    }
    ASSERT_TRUE((*store)->Close().ok());
  }
  const std::vector<PlanPtr> short_plans(plans_->begin(),
                                         plans_->begin() + 2);
  auto reopened = system_->OpenCatalogStore(dir, short_plans);
  EXPECT_FALSE(reopened.ok());
}

}  // namespace
}  // namespace geqo::serve
