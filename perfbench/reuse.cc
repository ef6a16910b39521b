/// \file reuse.cc
/// The `reuse` workload: the compute-reuse loop, closed loop with two
/// clients that each wait for their rows. Every request goes through the
/// exact tier (CanonicalHash), then ShardedCatalog::ProbeAdd for a text not
/// seen before, then OnlineResultCache::OnQuery, then
/// ExecutionSession::Execute on a miss, over a generated TPC-H database.
/// The seeded request sequence is replayed in rounds, each from an empty
/// catalog and cache, so every round does the same work and the catalog
/// stays small: execution and cache policy dominate.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>

#include "bench.h"
#include "common/check.h"
#include "common/rng.h"
#include "exec/database.h"
#include "exec/result_cache.h"
#include "exec/session.h"
#include "plan/canonicalize.h"
#include "workload/generator.h"
#include "workload/rewrite.h"

namespace geqo::perfbench {
namespace {

constexpr size_t kClients = 2;
/// Each round replays one of kRoundStreams seeded request sequences from an
/// empty catalog and cache; a run cycles through them, so every seed
/// averages over kRoundStreams * kClassesPerRound base queries.
constexpr size_t kRoundStreams = 32;
constexpr size_t kClassesPerRound = 40;
constexpr size_t kRewritesPerClass = 2;
constexpr size_t kRoundRequests = 2000;
/// Zipf exponent of class popularity within a round.
constexpr double kZipfExponent = 0.8;
/// Cache budget; a round's result working set is several times larger
/// (workload.budget_over_working_set), so admission and eviction run.
constexpr size_t kBudgetBytes = 2 << 20;
constexpr size_t kRowsPerTable = 20000;

constexpr size_t kNoResident = ~static_cast<size_t>(0);

/// How a request relates to the ones before it in the round.
enum class Kind { kRepeat, kRewrite, kNovel };

struct Text {
  PlanPtr plan;
  size_t cls = 0;  ///< base query (ground-truth class) index
};

struct Request {
  size_t text = 0;
  Kind kind = Kind::kNovel;
};

/// One client's measurements over the whole window.
struct ClientLog {
  Samples latency;
  Samples hash_seconds;
  Samples execute_seconds;
  Samples probe_add_seconds;
  Samples rows_scanned;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t exact_hits = 0;
  uint64_t planted = 0;
  uint64_t planted_found = 0;
  /// (query text, resident text) of every cache hit served.
  std::set<std::pair<size_t, size_t>> hits;
};

/// Sums over the rounds of one pass.
struct RoundTotals {
  size_t rounds = 0;
  uint64_t served = 0;
  double busy_seconds = 0.0;
  size_t max_catalog = 0;
  double working_set = 0.0;  ///< summed per-round result bytes, all classes
  std::map<Kind, uint64_t> kinds;
  OnlineCacheStats cache;
};

/// Per-round shared state: the catalog, the exact tier and the cache.
struct Round {
  std::unique_ptr<serve::ShardedCatalog> catalog;
  std::mutex mu;  ///< guards everything below
  std::unordered_map<uint64_t, size_t> gid_by_hash;  ///< the exact tier
  std::unordered_map<size_t, size_t> text_by_gid;
  OnlineResultCache cache{0};
  /// Modeled cost of a class from deterministic execution counters
  /// (rows scanned), never wall time, so admission does not move with
  /// machine load.
  std::unordered_map<size_t, CacheRequest> profiles;
  std::unordered_map<size_t, size_t> resident;  ///< class -> text cached
};

class ReuseWorkload final : public Workload {
 public:
  void Generate(const Deployment& deployment, uint64_t seed) override {
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x4E05E);
    DataGenOptions data_options;
    data_options.default_rows = kRowsPerTable;
    data_options.key_cardinality = 40;
    data_options.seed = rng.Next();
    database_ = std::make_unique<Database>(
        Database::Generate(*deployment.catalog, data_options));

    // Single-table queries: a rewrite may turn an equi-join into a theta or
    // expression join, and the engine has no predicate pushdown, so a join
    // query's cost can jump from a hash join to rows^k combinations. One
    // such text would set a whole seed's throughput; scans keep the cost of
    // every query within a small factor of the table size.
    GeneratorOptions generator_options;
    generator_options.max_tables = 1;
    const QueryGenerator generator(deployment.catalog.get(), generator_options);
    const Rewriter rewriter(deployment.catalog.get());
    std::vector<double> cumulative(kClassesPerRound);
    double total = 0.0;
    for (size_t c = 0; c < kClassesPerRound; ++c) {
      total += 1.0 / std::pow(static_cast<double>(c + 1), kZipfExponent);
      cumulative[c] = total;
    }
    texts_.clear();
    streams_.assign(kRoundStreams, {});
    for (std::vector<Request>& stream : streams_) {
      // The round's classes: a base query and its rewrites each.
      std::vector<std::vector<size_t>> class_texts(kClassesPerRound);
      for (std::vector<size_t>& members : class_texts) {
        const size_t cls = texts_.empty() ? 0 : texts_.back().cls + 1;
        const PlanPtr base = generator.Generate(&rng);
        members.push_back(texts_.size());
        texts_.push_back(Text{base, cls});
        for (size_t v = 0; v < kRewritesPerClass; ++v) {
          auto variant = rewriter.RewriteOnce(base, &rng);
          GEQO_CHECK(variant.ok()) << variant.status().ToString();
          members.push_back(texts_.size());
          texts_.push_back(Text{*variant, cls});
        }
      }
      // Zipf class popularity; within a class the base text is asked for
      // most often and each rewrite sometimes.
      std::set<size_t> seen_classes, seen_texts;
      for (size_t i = 0; i < kRoundRequests; ++i) {
        const double u = rng.NextDouble() * total;
        const size_t c = std::min<size_t>(
            kClassesPerRound - 1,
            std::lower_bound(cumulative.begin(), cumulative.end(), u) -
                cumulative.begin());
        const double pick = rng.NextDouble();
        const size_t variant = std::min<size_t>(
            kRewritesPerClass,
            pick < 0.6 ? 0 : 1 + static_cast<size_t>((pick - 0.6) / 0.4 *
                                                     kRewritesPerClass));
        const size_t text = class_texts[c][variant];
        Kind kind = Kind::kRepeat;
        if (!seen_texts.count(text)) {
          kind = seen_classes.count(texts_[text].cls) ? Kind::kRewrite
                                                      : Kind::kNovel;
        }
        seen_texts.insert(text);
        seen_classes.insert(texts_[text].cls);
        stream.push_back(Request{text, kind});
      }
    }
  }

  /// One untimed warm-up round: fills allocator pools and lazily built
  /// engine state before the window opens.
  void Preload(Deployment& deployment, const RunConfig&) override {
    std::vector<ClientLog> logs(kClients);
    RoundTotals totals;
    RunRound(deployment, streams_[0], NowSeconds() + 60.0, nullptr, &logs,
             &totals);
  }

  PassResult Run(Deployment& deployment, const RunConfig& config,
                 Tracer* tracer, Report* report) override {
    std::vector<ClientLog> logs(kClients);
    RoundTotals totals;
    const double deadline = NowSeconds() + config.seconds;
    for (size_t r = 0; NowSeconds() < deadline; ++r) {
      RunRound(deployment, streams_[r % streams_.size()], deadline, tracer,
               &logs, &totals);
    }

    ClientLog all;
    for (ClientLog& log : logs) {
      all.latency.Append(log.latency);
      all.hash_seconds.Append(log.hash_seconds);
      all.execute_seconds.Append(log.execute_seconds);
      all.probe_add_seconds.Append(log.probe_add_seconds);
      all.rows_scanned.Append(log.rows_scanned);
      all.attempted += log.attempted;
      all.failed += log.failed;
      all.exact_hits += log.exact_hits;
      all.planted += log.planted;
      all.planted_found += log.planted_found;
      all.hits.insert(log.hits.begin(), log.hits.end());
    }
    report->CountOperations(all.attempted, all.failed);
    CheckHits(all.hits, report);

    const double qps =
        totals.busy_seconds > 0 ? totals.served / totals.busy_seconds : 0.0;
    const uint64_t served = totals.served;
    const OnlineCacheStats& cache_totals = totals.cache;
    const double p50 = all.latency.Median();
    const double recall =
        all.planted == 0 ? 0.0
                         : static_cast<double>(all.planted_found) / all.planted;
    report->EndToEnd("throughput_per_s", qps, "1/s", served);
    report->EndToEnd("latency_p50_ms", p50 * 1e3, "ms", all.latency.size());
    report->EndToEnd("latency_p95_ms", all.latency.Quantile(0.95) * 1e3, "ms",
                     all.latency.size());
    report->EndToEnd("recall", recall, "ratio", all.planted);
    report->Named("query_qps", qps, "1/s", served);
    report->Named("query_p50_ms", p50 * 1e3, "ms", all.latency.size());
    report->Named("query_p95_ms", all.latency.Quantile(0.95) * 1e3, "ms",
                  all.latency.size());
    ReportProperties(totals, report);
    const double client_seconds = all.latency.Sum();
    report->Property("workload.execute_time_share",
                     all.execute_seconds.Sum() / client_seconds, "ratio");
    report->Property("workload.probe_add_time_share",
                     all.probe_add_seconds.Sum() / client_seconds, "ratio");

    if (tracer != nullptr) {
      const double requests = std::max<double>(all.latency.size(), 1);
      report->Layer("plan.exact_tier_hit_rate", all.exact_hits / requests,
                    "ratio", all.latency.size());
      report->Layer("plan.canonical_hash_us", all.hash_seconds.Mean() * 1e6,
                    "us", all.hash_seconds.size());
      const double accesses =
          std::max<double>(cache_totals.hits + cache_totals.misses, 1);
      report->Layer("exec.cache_hit_rate", cache_totals.hits / accesses,
                    "ratio", cache_totals.hits + cache_totals.misses);
      report->Layer("exec.cache_admissions", cache_totals.admissions, "count",
                    totals.rounds);
      report->Layer("exec.cache_evictions", cache_totals.evictions, "count",
                    totals.rounds);
      report->Layer("exec.execute_p50_ms", all.execute_seconds.Median() * 1e3,
                    "ms", all.execute_seconds.size());
      report->Layer("exec.execute_p95_ms",
                    all.execute_seconds.Quantile(0.95) * 1e3, "ms",
                    all.execute_seconds.size());
      report->Layer("serve.probe_add_ms", all.probe_add_seconds.Mean() * 1e3,
                    "ms", all.probe_add_seconds.size());
      report->Layer("exec.rows_scanned_per_exec", all.rows_scanned.Mean(),
                    "count", all.rows_scanned.size());
      report->Layer("trace.unattributed_pct",
                    tracer->UnattributedPercent("reuse.query"), "%",
                    tracer->RootCount("reuse.query"));
    }
    return PassResult{p50 * 1e3};
  }

  void Reset() override {}

 private:
  /// Replays \p stream from an empty catalog and cache with kClients
  /// closed-loop clients, until the stream ends or \p deadline passes.
  void RunRound(Deployment& deployment, const std::vector<Request>& stream,
                double deadline, Tracer* tracer, std::vector<ClientLog>* logs,
                RoundTotals* totals) const {
    Round round;
    serve::ShardedCatalogOptions options;
    options.catalog.pipeline = deployment.system->pipeline().options();
    options.num_shards = 4;
    options.verifier_threads = 1;  // 2 clients + 1 verifier
    round.catalog = deployment.system->OpenShardedCatalog(options);
    round.cache = OnlineResultCache(kBudgetBytes);

    std::atomic<size_t> cursor{0};
    std::atomic<size_t> completed{0};
    const double start = NowSeconds();
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        const exec::ExecutionSession session(database_.get());
        while (NowSeconds() < deadline) {
          const size_t i = cursor.fetch_add(1);
          if (i >= stream.size()) return;
          Serve(stream[i], session, round, tracer, &(*logs)[c]);
          completed.fetch_add(1);
        }
      });
    }
    for (std::thread& client : clients) client.join();
    totals->busy_seconds += NowSeconds() - start;
    totals->served += completed.load();
    ++totals->rounds;
    for (size_t i = 0; i < std::min(completed.load(), stream.size()); ++i) {
      ++totals->kinds[stream[i].kind];
    }
    totals->max_catalog = std::max(totals->max_catalog, round.catalog->size());
    std::map<size_t, size_t> class_bytes;
    for (const auto& [cls, profile] : round.profiles) {
      class_bytes[cls] = profile.result_bytes;
    }
    for (const auto& [cls, bytes] : class_bytes) totals->working_set += bytes;
    const OnlineCacheStats& stats = round.cache.stats();
    totals->cache.hits += stats.hits;
    totals->cache.misses += stats.misses;
    totals->cache.admissions += stats.admissions;
    totals->cache.evictions += stats.evictions;
    totals->cache.rejected += stats.rejected;
  }

  /// Serves one request through the exact tier, the catalog, the cache and
  /// the engine.
  void Serve(const Request& request, const exec::ExecutionSession& session,
             Round& round, Tracer* tracer, ClientLog* log) const {
    const Text& text = texts_[request.text];
    if (tracer != nullptr) tracer->BeginRequest();
    Tracer::Scope span(tracer, "reuse.query");
    const double start = NowSeconds();
    ++log->attempted;

    uint64_t hash = 0;
    {
      Tracer::Scope hash_span(tracer, "plan.canonical_hash");
      const double hash_start = NowSeconds();
      hash = CanonicalHash(text.plan);
      log->hash_seconds.Add(NowSeconds() - hash_start);
    }
    std::optional<size_t> gid;
    {
      Tracer::Scope tier_span(tracer, "plan.exact_tier");
      std::lock_guard<std::mutex> lock(round.mu);
      const auto it = round.gid_by_hash.find(hash);
      if (it != round.gid_by_hash.end()) gid = it->second;
    }
    const bool planted = request.kind == Kind::kRewrite;
    if (gid.has_value()) {
      ++log->exact_hits;
      if (planted) {
        ++log->planted;
        ++log->planted_found;  // identical canonical form
      }
    } else {
      Tracer::Scope add_span(tracer, "serve.probe_add");
      const double add_start = NowSeconds();
      auto added = round.catalog->ProbeAdd(text.plan);
      log->probe_add_seconds.Add(NowSeconds() - add_start);
      if (!added.ok()) {
        ++log->failed;
        return;
      }
      gid = added->id;
      std::lock_guard<std::mutex> lock(round.mu);
      round.gid_by_hash.emplace(hash, *gid);
      round.text_by_gid.emplace(*gid, request.text);
      if (planted) {
        ++log->planted;
        if (FoundSameClass(added->probe, text.cls, round)) {
          ++log->planted_found;
        }
      }
    }

    size_t cls = 0;
    {
      Tracer::Scope class_span(tracer, "serve.class_of");
      cls = round.catalog->ClassOf(*gid);
    }
    bool hit = false;
    {
      Tracer::Scope cache_span(tracer, "exec.cache_on_query");
      std::lock_guard<std::mutex> lock(round.mu);
      CacheRequest cache_request = round.profiles[cls];
      cache_request.equivalence_class = cls;
      cache_request.canonical_hash = hash;
      const CacheAccess access = round.cache.OnQuery(cache_request);
      hit = access.hit;
      if (hit) {
        // A hit implies an earlier admission of this class, which named
        // its resident; a missing one fails the gate.
        const auto resident = round.resident.find(cls);
        log->hits.emplace(request.text, resident == round.resident.end()
                                            ? kNoResident
                                            : resident->second);
      } else if (access.admitted) {
        round.resident[cls] = request.text;
      }
    }
    if (!hit) {
      Tracer::Scope exec_span(tracer, "exec.execute");
      exec::ExecMetrics metrics;
      const double exec_start = NowSeconds();
      auto rows = session.Execute(text.plan, &metrics);
      log->execute_seconds.Add(NowSeconds() - exec_start);
      if (!rows.ok()) {
        ++log->failed;
        return;
      }
      log->rows_scanned.Add(static_cast<double>(metrics.rows_scanned));
      const size_t bytes = rows->ByteSize();
      std::lock_guard<std::mutex> lock(round.mu);
      CacheRequest& profile = round.profiles[cls];
      profile.execution_seconds =
          static_cast<double>(metrics.rows_scanned) * 1e-6;
      profile.result_bytes = bytes;
    }
    log->latency.Add(NowSeconds() - start);
  }

  /// True when the probe of a rewrite matched (or was proven equivalent
  /// to) an entry of its own ground-truth class.
  bool FoundSameClass(const serve::ShardedProbeResult& probe, size_t cls,
                      const Round& round) const {
    auto same = [&](size_t id) {
      const auto it = round.text_by_gid.find(id);
      return it != round.text_by_gid.end() && texts_[it->second].cls == cls;
    };
    for (const size_t id : probe.proven_ids) {
      if (same(id)) return true;
    }
    for (const serve::ProbeMatch& match : probe.matches) {
      if (match.verdict != serve::MatchVerdict::kRefuted && same(match.id)) {
        return true;
      }
    }
    return false;
  }

  /// Gate: every result served from the cache must be bag-equal to the
  /// result of the query it was asked for. Executed after the window.
  void CheckHits(const std::set<std::pair<size_t, size_t>>& hits,
                 Report* report) const {
    const exec::ExecutionSession session(database_.get());
    size_t compared = 0;
    size_t mismatches = 0;
    for (const auto& [query, resident] : hits) {
      if (resident == kNoResident) {
        ++mismatches;
        continue;
      }
      if (resident == query) continue;  // served its own earlier result
      ++compared;
      auto expected = session.Execute(texts_[query].plan);
      auto served = session.Execute(texts_[resident].plan);
      if (!expected.ok() || !served.ok() || !expected->BagEquals(*served)) {
        ++mismatches;
      }
    }
    report->Gate("reuse.hits_bag_equal", mismatches == 0,
                 std::to_string(hits.size()) + " distinct hit pairs, " +
                     std::to_string(compared) + " across texts executed, " +
                     std::to_string(mismatches) + " mismatched");
  }

  void ReportProperties(const RoundTotals& totals, Report* report) const {
    const double requests =
        std::max<double>(static_cast<double>(totals.served), 1.0);
    auto share = [&](Kind kind) {
      const auto it = totals.kinds.find(kind);
      return it == totals.kinds.end() ? 0.0 : it->second / requests;
    };
    report->Property("workload.repeat_share", share(Kind::kRepeat), "ratio");
    report->Property("workload.rewrite_share", share(Kind::kRewrite), "ratio");
    report->Property("workload.novel_share", share(Kind::kNovel), "ratio");
    report->Property("workload.round_requests", kRoundRequests, "count");
    report->Property("workload.rounds", totals.rounds, "count");
    report->Property("workload.catalog_entries_max", totals.max_catalog,
                     "count");
    const double working_set =
        totals.rounds == 0 ? 0.0 : totals.working_set / totals.rounds;
    report->Property("workload.working_set_bytes", working_set, "B");
    report->Property("workload.cache_budget_bytes", kBudgetBytes, "B");
    report->Property("workload.budget_over_working_set",
                     working_set > 0 ? kBudgetBytes / working_set : 0.0,
                     "ratio");
    report->Property("workload.cache_hit_share", totals.cache.HitRate(),
                     "ratio");
    report->Property("workload.data_rows", database_->TotalRows(), "count");
    report->Property("workload.load_threads", kClients + 1, "count");
  }

  std::unique_ptr<Database> database_;
  std::vector<Text> texts_;
  std::vector<std::vector<Request>> streams_;
};

}  // namespace

std::unique_ptr<Workload> MakeReuseWorkload() {
  return std::make_unique<ReuseWorkload>();
}

}  // namespace geqo::perfbench
