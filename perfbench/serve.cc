/// \file serve.cc
/// The `serve` workload: online serving at fixed open-loop arrival rates,
/// modelling independent optimizer front ends. Two prober threads call
/// ShardedCatalog::Probe and one writer thread calls ProbeAdd through a
/// durable CatalogStore that set-up preloads; every request is timed from
/// its scheduled arrival. The run ends with Close and a timed reopen. The
/// verifier plane runs asynchronously, off the latency path.

#include <algorithm>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <thread>

#include "bench.h"
#include "common/check.h"
#include "common/rng.h"
#include "filters/schema_filter.h"
#include "obs/metrics.h"
#include "workload/generator.h"
#include "workload/rewrite.h"

namespace geqo::perfbench {
namespace {

/// Entries the store holds when the timed window opens, in kGroups SF
/// groups of equal size drawn from the narrow table pool.
constexpr size_t kGroups = 6;
constexpr size_t kPreloadEntries = 600;
/// Open-loop arrival rates (requests per second), constants well under
/// saturation: a rate derived at run time would move with the code under
/// test.
constexpr size_t kProbers = 2;
constexpr double kProbeRatePerProber = 40.0;
constexpr double kIngestRate = 25.0;
/// Busy-wait before each scheduled arrival (see RunStream).
constexpr double kSpinSeconds = 0.003;

/// How a request relates to the preloaded catalog.
enum class Kind { kRepeat, kRewrite, kNovel };

struct Request {
  PlanPtr plan;
  Kind kind = Kind::kNovel;
  size_t original = 0;  ///< preload gid a repeat/rewrite derives from
};

/// One thread's timings: latency from the scheduled arrival, service time
/// from the call, and how late the generator issued the call.
struct ThreadLog {
  Samples latency;
  Samples service;
  Samples late;
  std::map<std::string, Samples> stages;
  Samples emf_pairs;
  Samples candidates;
  Samples commit;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t planted = 0;
  size_t planted_found = 0;
  std::vector<PlanPtr> added;  ///< writer only: plans in global Add order
};

constexpr const char* kStageNames[] = {"prepare", "sf", "vmf", "emf",
                                       "classify"};

/// Static span names for the stage children of the two request kinds.
const char* StageSpan(bool ingest, const std::string& stage) {
  static const std::map<std::string, std::pair<const char*, const char*>>
      names = {{"prepare", {"serve.probe.prepare", "serve.ingest.prepare"}},
               {"sf", {"serve.probe.sf", "serve.ingest.sf"}},
               {"vmf", {"serve.probe.vmf", "serve.ingest.vmf"}},
               {"emf", {"serve.probe.emf", "serve.ingest.emf"}},
               {"classify", {"serve.probe.classify", "serve.ingest.classify"}}};
  const auto it = names.find(stage);
  if (it == names.end()) return ingest ? "serve.ingest.other" : "serve.probe.other";
  return ingest ? it->second.second : it->second.first;
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

class ServeWorkload final : public Workload {
 public:
  void Generate(const Deployment& deployment, uint64_t seed) override {
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x5E4E);
    GeneratorOptions narrow_options;
    narrow_options.fixed_projection_columns = 2;
    narrow_options.table_pool = NarrowTablePool();
    const QueryGenerator narrow(deployment.catalog.get(), narrow_options);
    const Rewriter rewriter(deployment.catalog.get());
    // The preload fills kGroups SF groups equally, interleaved so global
    // ids spread over the groups; novel traffic is drawn from the same
    // groups, so every probe meets a group of the same size.
    const std::vector<std::vector<PlanPtr>> groups =
        StratifiedQueries(narrow, *deployment.catalog, kGroups,
                          kPreloadEntries / kGroups, &rng);
    std::set<SfSignature> signatures;
    preload_.clear();
    for (size_t i = 0; i < kPreloadEntries; ++i) {
      preload_.push_back(groups[i % kGroups][i / kGroups]);
    }
    for (const std::vector<PlanPtr>& group : groups) {
      signatures.insert(*SchemaSignature(group.front(), *deployment.catalog));
    }
    auto novel = [&] {
      while (true) {
        PlanPtr plan = narrow.Generate(&rng);
        auto signature = SchemaSignature(plan, *deployment.catalog);
        GEQO_CHECK(signature.ok()) << signature.status().ToString();
        if (signatures.count(*signature)) return plan;
      }
    };
    auto derived = [&](Kind kind) {
      Request request;
      request.kind = kind;
      request.original = rng.Uniform(kPreloadEntries);
      if (kind == Kind::kRepeat) {
        request.plan = preload_[request.original];
      } else {
        auto variant = rewriter.RewriteOnce(preload_[request.original], &rng);
        GEQO_CHECK(variant.ok()) << variant.status().ToString();
        request.plan = *variant;
      }
      return request;
    };

    // Streams are sized for the longest window a run may ask for (60 s); the
    // run consumes the prefix its --seconds admits.
    const size_t probes = static_cast<size_t>(kProbeRatePerProber * 61);
    const size_t ingests = static_cast<size_t>(kIngestRate * 61);
    probe_streams_.assign(kProbers, {});
    for (auto& stream : probe_streams_) {
      for (size_t i = 0; i < probes; ++i) {
        const double u = rng.NextDouble();
        if (u < 0.4) {
          stream.push_back(derived(Kind::kRepeat));
        } else if (u < 0.7) {
          stream.push_back(derived(Kind::kRewrite));
        } else {
          stream.push_back(Request{novel(), Kind::kNovel, 0});
        }
      }
    }
    ingest_stream_.clear();
    for (size_t i = 0; i < ingests; ++i) {
      if (rng.NextDouble() < 0.4) {
        ingest_stream_.push_back(derived(Kind::kRewrite));
      } else {
        ingest_stream_.push_back(Request{novel(), Kind::kNovel, 0});
      }
    }
  }

  void Preload(Deployment& deployment, const RunConfig& config) override {
    store_dir_ = config.workdir + "/serve-store-" + std::to_string(++opens_);
    std::filesystem::remove_all(store_dir_);
    auto store = deployment.system->OpenShardedCatalogStore(
        store_dir_, preload_, StoreOptions());
    GEQO_CHECK(store.ok()) << store.status().ToString();
    store_ = std::move(*store);
    auto ids = store_->sharded()->AddBatch(preload_);
    GEQO_CHECK(ids.ok()) << ids.status().ToString();
    GEQO_CHECK(ids->size() == kPreloadEntries && ids->front() == 0);
  }

  PassResult Run(Deployment& deployment, const RunConfig& config,
                 Tracer* tracer, Report* report) override {
    serve::ShardedCatalog& catalog = *store_->sharded();
    const serve::ShardedCatalogStats before = catalog.stats();
    const uint64_t wal_before = store_->stats().wal_records_appended;
    const size_t window_probes = std::min(
        probe_streams_[0].size(),
        static_cast<size_t>(kProbeRatePerProber * config.seconds));
    const size_t window_ingests = std::min(
        ingest_stream_.size(), static_cast<size_t>(kIngestRate * config.seconds));

    std::vector<ThreadLog> logs(kProbers + 1);
    const double t0 = NowSeconds() + 0.05;
    std::vector<std::thread> threads;
    for (size_t p = 0; p < kProbers; ++p) {
      threads.emplace_back([&, p] {
        // Probers are phase-shifted so their arrivals interleave evenly.
        const double phase = static_cast<double>(p) /
                             (kProbers * kProbeRatePerProber);
        RunStream(probe_streams_[p], window_probes, kProbeRatePerProber,
                  t0 + phase, /*ingest=*/false, catalog, tracer, &logs[p]);
      });
    }
    threads.emplace_back([&] {
      RunStream(ingest_stream_, window_ingests, kIngestRate, t0,
                /*ingest=*/true, catalog, tracer, &logs[kProbers]);
    });
    for (std::thread& thread : threads) thread.join();
    const double window_end = NowSeconds();

    // The backlog the window left behind, before anything drains it.
    const size_t backlog_end = catalog.PendingVerifications();
    const serve::ShardedCatalogStats after = catalog.stats();
    const double verify_lag_p95 =
        obs::MetricsRegistry::Global()
            .GetHistogram("serve.verify_lag_seconds")
            .P95();

    ThreadLog probes;
    for (size_t p = 0; p < kProbers; ++p) Merge(logs[p], &probes);
    ThreadLog& ingests = logs[kProbers];
    uint64_t attempted = probes.attempted + ingests.attempted;
    uint64_t failed = probes.failed + ingests.failed;

    // Gates: draining leaves nothing pending, and a reopen reproduces the
    // entry count and the class partition of the catalog that was closed.
    const double drain_start = NowSeconds();
    catalog.DrainPendingVerifications();
    const double drain_seconds = NowSeconds() - drain_start;
    const size_t pending_after_drain = catalog.PendingVerifications();
    report->Gate("serve.drain_leaves_nothing_pending", pending_after_drain == 0,
                 std::to_string(backlog_end) + " pending at window end, " +
                     std::to_string(pending_after_drain) + " after drain (" +
                     std::to_string(drain_seconds) + " s)");
    const size_t entries = catalog.size();
    std::vector<size_t> partition(entries);
    for (size_t gid = 0; gid < entries; ++gid) {
      partition[gid] = catalog.ClassOf(gid);
    }
    const size_t classes = catalog.NumClasses();
    const uint64_t wal_records =
        store_->stats().wal_records_appended - wal_before;
    const uint64_t compactions = store_->stats().compactions;
    const Status closed = store_->Close();
    store_.reset();
    ++attempted;
    if (!closed.ok()) ++failed;
    const uint64_t store_bytes = DirectoryBytes(store_dir_);

    std::vector<PlanPtr> all_plans = preload_;
    all_plans.insert(all_plans.end(), ingests.added.begin(),
                     ingests.added.end());
    double recover_seconds = 0.0;
    uint64_t replayed = 0;
    bool reopen_matches = false;
    {
      Tracer::Scope span(tracer, "persist.reopen");
      const double start = NowSeconds();
      auto reopened = deployment.system->OpenShardedCatalogStore(
          store_dir_, all_plans, StoreOptions());
      recover_seconds = NowSeconds() - start;
      ++attempted;
      if (!reopened.ok()) {
        ++failed;
        report->Gate("serve.reopen", false, reopened.status().ToString());
      } else {
        serve::ShardedCatalog& recovered = *(*reopened)->sharded();
        recovered.DrainPendingVerifications();
        reopen_matches = recovered.size() == entries &&
                         recovered.NumClasses() == classes;
        for (size_t gid = 0; reopen_matches && gid < entries; ++gid) {
          reopen_matches = recovered.ClassOf(gid) == partition[gid];
        }
        replayed = (*reopened)->stats().wal_records_replayed;
        const Status reclosed = (*reopened)->Close();
        ++attempted;
        if (!reclosed.ok()) ++failed;
      }
    }
    report->Gate("serve.reopen_same_partition", reopen_matches,
                 std::to_string(entries) + " entries in " +
                     std::to_string(classes) + " classes");
    report->CountOperations(attempted, failed);

    const double probe_p50 = probes.latency.Median();
    const double probe_capacity =
        probes.service.Mean() > 0 ? kProbers / probes.service.Mean() : 0.0;
    const double recall =
        ingests.planted == 0
            ? 0.0
            : static_cast<double>(ingests.planted_found) / ingests.planted;
    report->EndToEnd("throughput_per_s", probe_capacity, "1/s",
                     probes.service.size());
    report->EndToEnd("latency_p50_ms", probe_p50 * 1e3, "ms",
                     probes.latency.size());
    report->EndToEnd("latency_p95_ms", probes.latency.Quantile(0.95) * 1e3,
                     "ms", probes.latency.size());
    report->EndToEnd("recall", recall, "ratio", ingests.planted);
    report->Named("probe_p50_ms", probe_p50 * 1e3, "ms", probes.latency.size());
    report->Named("probe_p95_ms", probes.latency.Quantile(0.95) * 1e3, "ms",
                  probes.latency.size());
    report->Named("ingest_p50_ms", ingests.latency.Median() * 1e3, "ms",
                  ingests.latency.size());
    report->Named("ingest_p95_ms", ingests.latency.Quantile(0.95) * 1e3, "ms",
                  ingests.latency.size());
    report->Named("recover_s", recover_seconds, "s", 1);
    report->Named("probe_capacity_per_s", probe_capacity, "1/s",
                  probes.service.size());

    ReportProperties(deployment, probes, ingests, window_probes, entries,
                     classes, report);
    report->Property("workload.window_s", window_end - t0, "s");

    if (tracer != nullptr) {
      for (const char* stage : kStageNames) {
        report->Layer(std::string("serve.probe.") + stage + "_ms",
                      probes.stages[stage].Mean() * 1e3, "ms",
                      probes.stages[stage].size());
        report->Layer(std::string("serve.ingest.") + stage + "_ms",
                      ingests.stages[stage].Mean() * 1e3, "ms",
                      ingests.stages[stage].size());
      }
      report->Layer("serve.ingest.commit_ms", ingests.commit.Mean() * 1e3,
                    "ms", ingests.commit.size());
      report->Layer("serve.ingest_p50_ms", ingests.latency.Median() * 1e3,
                    "ms", ingests.latency.size());
      report->Layer("serve.ingest_p95_ms",
                    ingests.latency.Quantile(0.95) * 1e3, "ms",
                    ingests.latency.size());
      report->Layer("filters.emf_pairs_per_probe", probes.emf_pairs.Mean(),
                    "count", probes.emf_pairs.size());
      const double searches =
          static_cast<double>(probes.latency.size() + ingests.latency.size());
      report->Layer("ann.hnsw_distances_per_probe",
                    searches > 0
                        ? RegistryValue("hnsw.distance_computations") / searches
                        : 0.0,
                    "count", static_cast<uint64_t>(searches));
      report->Layer("serve.verify_enqueued",
                    after.verify_tasks_enqueued - before.verify_tasks_enqueued,
                    "count", 1);
      report->Layer("serve.verify_completed",
                    after.verify_tasks_completed -
                        before.verify_tasks_completed,
                    "count", 1);
      report->Layer("serve.verify_backlog_end", backlog_end, "count", 1);
      report->Layer("serve.verify_lag_p95_ms", verify_lag_p95 * 1e3, "ms",
                    after.verify_tasks_completed -
                        before.verify_tasks_completed);
      const double memo_hits = after.async_memo_hits - before.async_memo_hits;
      const double proofs =
          after.async_verifier_calls - before.async_verifier_calls;
      report->Layer("serve.memo_hit_rate",
                    memo_hits + proofs > 0 ? memo_hits / (memo_hits + proofs)
                                           : 0.0,
                    "ratio", static_cast<uint64_t>(memo_hits + proofs));
      Samples late = probes.late;
      late.Append(ingests.late);
      report->Layer("serve.gen_late_p95_ms", late.Quantile(0.95) * 1e3, "ms",
                    late.size());
      report->Layer("persist.wal_records", wal_records, "count", 1);
      report->Layer("persist.bytes_per_entry",
                    entries > 0 ? static_cast<double>(store_bytes) / entries
                                : 0.0,
                    "B", entries);
      report->Layer("persist.compactions", compactions, "count", 1);
      report->Layer("persist.compaction_s",
                    RegistryValue("persist.compaction_seconds"), "s",
                    compactions);
      report->Layer("persist.replayed_records", replayed, "count", 1);
      report->Layer("persist.recovery_s", recover_seconds, "s", 1);
      report->Layer("trace.unattributed_pct",
                    tracer->UnattributedPercent("serve.probe"), "%",
                    tracer->RootCount("serve.probe"));
    }
    return PassResult{probe_p50 * 1e3};
  }

  void Reset() override {
    if (store_ != nullptr) {
      GEQO_CHECK_OK(store_->Close());
      store_.reset();
    }
    if (!store_dir_.empty()) std::filesystem::remove_all(store_dir_);
  }

 private:
  static serve::ShardedCatalogOptions StoreOptions() {
    serve::ShardedCatalogOptions options;
    options.num_shards = 4;
    options.verifier_threads = 1;  // 2 probers + writer + 1 verifier = 4
    return options;
  }

  /// Issues \p count requests of \p stream at \p rate from \p start on,
  /// open loop: each request is due at start + i / rate whether or not the
  /// previous one has finished.
  static void RunStream(const std::vector<Request>& stream, size_t count,
                        double rate, double start, bool ingest,
                        serve::ShardedCatalog& catalog, Tracer* tracer,
                        ThreadLog* log) {
    for (size_t i = 0; i < count; ++i) {
      const double due = start + static_cast<double>(i) / rate;
      // Sleep until shortly before the arrival, then spin: a sleeping
      // virtual CPU can wake milliseconds late, which would be charged to
      // the request as generator lateness.
      const double wake = due - kSpinSeconds;
      if (NowSeconds() < wake) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(wake - NowSeconds()));
      }
      while (NowSeconds() < due) {
      }
      const Request& request = stream[i];
      if (tracer != nullptr) tracer->BeginRequest();
      Tracer::Scope span(tracer, ingest ? "serve.ingest" : "serve.probe");
      const double begin = NowSeconds();
      // Exactly one of the two holds a value; probe points into it.
      std::optional<Result<serve::ShardedProbeResult>> probed;
      std::optional<Result<serve::ShardedProbeAddResult>> added;
      const serve::ShardedProbeResult* probe = nullptr;
      if (ingest) {
        added.emplace(catalog.ProbeAdd(request.plan));
        if (added->ok()) probe = &(*added)->probe;
      } else {
        probed.emplace(catalog.Probe(request.plan));
        if (probed->ok()) probe = &**probed;
      }
      const double end = NowSeconds();
      ++log->attempted;
      if (probe == nullptr) {
        ++log->failed;
        continue;
      }
      log->latency.Add(end - due);
      log->service.Add(end - begin);
      log->late.Add(begin - due);
      log->candidates.Add(static_cast<double>(probe->matches.size()));
      double staged = 0.0;
      for (const StageReport& stage : probe->stages) {
        span.AddChild(StageSpan(ingest, stage.name), stage.seconds);
        log->stages[stage.name].Add(stage.seconds);
        staged += stage.seconds;
        if (stage.name == "emf") {
          log->emf_pairs.Add(static_cast<double>(stage.pairs_in));
        }
      }
      if (ingest) {
        log->commit.Add(std::max(0.0, (end - begin) - staged));
        log->added.push_back(request.plan);
        if (request.kind == Kind::kRewrite) {
          ++log->planted;
          const bool found =
              std::binary_search(probe->proven_ids.begin(),
                                 probe->proven_ids.end(), request.original) ||
              std::any_of(probe->matches.begin(), probe->matches.end(),
                          [&](const serve::ProbeMatch& match) {
                            return match.id == request.original &&
                                   match.verdict !=
                                       serve::MatchVerdict::kRefuted;
                          });
          if (found) ++log->planted_found;
        }
      }
    }
  }

  static void Merge(const ThreadLog& from, ThreadLog* into) {
    into->latency.Append(from.latency);
    into->service.Append(from.service);
    into->late.Append(from.late);
    into->emf_pairs.Append(from.emf_pairs);
    into->candidates.Append(from.candidates);
    for (const auto& [name, samples] : from.stages) {
      into->stages[name].Append(samples);
    }
    into->attempted += from.attempted;
    into->failed += from.failed;
  }

  void ReportProperties(const Deployment& deployment, const ThreadLog& probes,
                        const ThreadLog& ingests, size_t window_probes,
                        size_t entries, size_t classes, Report* report) const {
    std::map<Kind, size_t> kinds;
    for (const auto& stream : probe_streams_) {
      for (size_t i = 0; i < window_probes; ++i) ++kinds[stream[i].kind];
    }
    const double total =
        static_cast<double>(std::max<size_t>(window_probes * kProbers, 1));
    report->Property("workload.probe_repeat_share", kinds[Kind::kRepeat] / total,
                     "ratio");
    report->Property("workload.probe_rewrite_share",
                     kinds[Kind::kRewrite] / total, "ratio");
    report->Property("workload.probe_novel_share", kinds[Kind::kNovel] / total,
                     "ratio");
    report->Property("workload.ingest_rewrite_share",
                     ingests.latency.empty()
                         ? 0.0
                         : static_cast<double>(ingests.planted) /
                               ingests.latency.size(),
                     "ratio");
    report->Property("workload.candidates_per_probe", probes.candidates.Mean(),
                     "count");
    report->Property("workload.emf_pairs_per_probe", probes.emf_pairs.Mean(),
                     "count");
    report->Property("workload.entries_start", kPreloadEntries, "count");
    report->Property("workload.entries_end", entries, "count");
    report->Property("workload.classes_end", classes, "count");
    auto groups = SchemaFilter(preload_, *deployment.catalog);
    GEQO_CHECK(groups.ok()) << groups.status().ToString();
    size_t largest = 0;
    for (const SfGroup& group : *groups) {
      largest = std::max(largest, group.members.size());
    }
    report->Property("workload.sf_groups", groups->size(), "count");
    report->Property("workload.sf_group_max_size", largest, "count");
    report->Property("workload.offered_probe_rate",
                     kProbers * kProbeRatePerProber, "1/s");
    report->Property("workload.offered_ingest_rate", kIngestRate, "1/s");
    report->Property("workload.load_threads", kProbers + 1 + 1, "count");
  }

  std::vector<PlanPtr> preload_;
  std::vector<std::vector<Request>> probe_streams_;
  std::vector<Request> ingest_stream_;
  std::unique_ptr<serve::CatalogStore> store_;
  std::string store_dir_;
  size_t opens_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload() {
  return std::make_unique<ServeWorkload>();
}

}  // namespace geqo::perfbench
