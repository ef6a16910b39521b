/// \file batch.cc
/// The `batch` workload: GEqO_SET, i.e. repeated DetectEquivalences calls
/// over one seeded workload of subexpressions with planted rewrites, drawn
/// from the narrow table pool so SF groups are large. Batched EMF inference
/// and thread-pool fan-out dominate; no WAL, execution or cache code runs.

#include <algorithm>
#include <map>

#include "bench.h"
#include "common/check.h"
#include "common/rng.h"
#include "filters/schema_filter.h"
#include "obs/metrics.h"
#include "workload/generator.h"
#include "workload/rewrite.h"

namespace geqo::perfbench {
namespace {

/// SF groups of equal size: kBasesPerGroup generated queries plus
/// kPlantedPerGroup planted rewrites of the first ones, per group.
constexpr size_t kGroups = 6;
constexpr size_t kBasesPerGroup = 20;
constexpr size_t kPlantedPerGroup = 7;
constexpr size_t kSubexpressions = kGroups * (kBasesPerGroup + kPlantedPerGroup);
constexpr size_t kPlanted = kGroups * kPlantedPerGroup;

/// Pipeline stage names as they appear in StageReport, with the span name
/// each becomes and the per-layer metric it feeds.
struct StageName {
  const char* stage;
  const char* span;
  const char* metric;
};
constexpr StageName kStages[] = {
    {"encode", "pipeline.encode", "pipeline.encode_ms"},
    {"sf", "pipeline.sf", "pipeline.sf_ms"},
    {"vmf", "pipeline.vmf", "pipeline.vmf_ms"},
    {"emf", "pipeline.emf", "pipeline.emf_ms"},
    {"verify", "pipeline.verify", "pipeline.verify_ms"},
};

class BatchWorkload final : public Workload {
 public:
  void Generate(const Deployment& deployment, uint64_t seed) override {
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0xBA7C);
    GeneratorOptions generator_options;
    generator_options.fixed_projection_columns = 2;
    generator_options.table_pool = NarrowTablePool();
    const QueryGenerator generator(deployment.catalog.get(),
                                   generator_options);
    const Rewriter rewriter(deployment.catalog.get());
    const std::vector<std::vector<PlanPtr>> groups = StratifiedQueries(
        generator, *deployment.catalog, kGroups, kBasesPerGroup, &rng);
    subexpressions_.clear();
    planted_.clear();
    for (const std::vector<PlanPtr>& group : groups) {
      subexpressions_.insert(subexpressions_.end(), group.begin(),
                             group.end());
    }
    for (size_t g = 0; g < kGroups; ++g) {
      for (size_t i = 0; i < kPlantedPerGroup; ++i) {
        const size_t base = g * kBasesPerGroup + i;
        auto variant = rewriter.RewriteOnce(subexpressions_[base], &rng);
        GEQO_CHECK(variant.ok()) << variant.status().ToString();
        planted_.emplace_back(base, subexpressions_.size());
        subexpressions_.push_back(*variant);
      }
    }
  }

  /// One untimed warm-up call: fills lazily built state and fixes the
  /// reference detected set every timed call must reproduce.
  void Preload(Deployment& deployment, const RunConfig&) override {
    auto result = deployment.system->DetectEquivalences(subexpressions_);
    GEQO_CHECK(result.ok()) << result.status().ToString();
    reference_ = result->equivalences;
  }

  PassResult Run(Deployment& deployment, const RunConfig& config,
                 Tracer* tracer, Report* report) override {
    Samples call_seconds;
    std::map<std::string, Samples> stage_seconds;
    double emf_pairs_in = 0.0;
    GeqoResult last;
    uint64_t mismatches = 0;
    const double deadline = NowSeconds() + config.seconds;
    while (NowSeconds() < deadline) {
      if (tracer != nullptr) tracer->BeginRequest();
      Tracer::Scope span(tracer, "batch.detect");
      const double start = NowSeconds();
      auto result = deployment.system->DetectEquivalences(subexpressions_);
      const double seconds = NowSeconds() - start;
      const bool ok = result.ok() && result->equivalences == reference_;
      report->CountOperation(ok);
      if (!ok) {
        ++mismatches;
        continue;
      }
      call_seconds.Add(seconds);
      for (const StageName& name : kStages) {
        const StageReport* stage = result->FindStage(name.stage);
        GEQO_CHECK(stage != nullptr) << name.stage;
        span.AddChild(name.span, stage->seconds);
        stage_seconds[name.metric].Add(stage->seconds);
        if (std::string_view(name.stage) == "emf") {
          emf_pairs_in += static_cast<double>(stage->pairs_in);
        }
      }
      last = std::move(*result);
    }
    report->Gate("batch.same_detected_set", mismatches == 0,
                 std::to_string(call_seconds.size()) + " calls, " +
                     std::to_string(reference_.size()) + " equivalences");

    const double total_pairs =
        static_cast<double>(kSubexpressions * (kSubexpressions - 1) / 2);
    const size_t found = static_cast<size_t>(std::count_if(
        planted_.begin(), planted_.end(), [&](const auto& pair) {
          return std::binary_search(reference_.begin(), reference_.end(),
                                    pair);
        }));
    const double recall =
        static_cast<double>(found) / static_cast<double>(planted_.size());
    const uint64_t calls = call_seconds.size();
    const double median = call_seconds.Median();
    // Pairs screened per second of detection: all calls' pairs over all
    // calls' time, which averages over the host's slow and fast spells
    // where a median would flip between them.
    const double pairs_per_s =
        call_seconds.Sum() > 0
            ? total_pairs * static_cast<double>(calls) / call_seconds.Sum()
            : 0.0;
    report->EndToEnd("throughput_per_s", pairs_per_s, "1/s", calls);
    report->EndToEnd("latency_p50_ms", median * 1e3, "ms", calls);
    report->EndToEnd("latency_p95_ms", call_seconds.Quantile(0.95) * 1e3, "ms",
                     calls);
    report->EndToEnd("recall", recall, "ratio", planted_.size());
    report->Named("detect_pairs_per_s", pairs_per_s, "1/s", calls);
    report->Named("detect_recall", recall, "ratio", planted_.size());
    ReportProperties(deployment, report);

    if (tracer != nullptr && calls > 0) {
      for (const StageName& name : kStages) {
        const Samples& samples = stage_seconds[name.metric];
        report->Layer(name.metric, samples.Mean() * 1e3, "ms", samples.size());
      }
      const StageReport* vmf = last.FindStage("vmf");
      const StageReport* emf = last.FindStage("emf");
      const StageReport* verify = last.FindStage("verify");
      report->Layer("pipeline.vmf_pairs_out", vmf->pairs_out, "count", 1);
      report->Layer("pipeline.emf_pairs_out", emf->pairs_out, "count", 1);
      report->Layer("pipeline.verify_yield",
                    verify->pairs_in == 0
                        ? 0.0
                        : static_cast<double>(last.equivalences.size()) /
                              static_cast<double>(verify->pairs_in),
                    "ratio", verify->pairs_in);
      report->Layer("filters.emf_us_per_pair",
                    emf_pairs_in > 0
                        ? stage_seconds["pipeline.emf_ms"].Sum() /
                              emf_pairs_in * 1e6
                        : 0.0,
                    "us", static_cast<uint64_t>(emf_pairs_in));
      const double per_call = 1.0 / static_cast<double>(calls);
      report->Layer("tensor.kernel_dispatches",
                    RegistryValue("tensor.dispatches") * per_call, "count",
                    calls);
      report->Layer("verify.solver_calls",
                    RegistryValue("verify.solver_calls") * per_call, "count",
                    calls);
      const obs::Histogram& pool_tasks =
          obs::MetricsRegistry::Global().GetHistogram(
              "pool.task_latency_seconds");
      report->Layer("common.pool_task_p95_ms", pool_tasks.P95() * 1e3, "ms",
                    pool_tasks.count());
      report->Layer("trace.unattributed_pct",
                    tracer->UnattributedPercent("batch.detect"), "%",
                    tracer->RootCount("batch.detect"));
    }
    return PassResult{median * 1e3};
  }

  void Reset() override { reference_.clear(); }

 private:
  /// Workload properties: request mix and SF-group sizes.
  void ReportProperties(const Deployment& deployment, Report* report) const {
    report->Property("workload.subexpressions", kSubexpressions, "count");
    report->Property("workload.rewrite_share",
                     static_cast<double>(kPlanted) / kSubexpressions, "ratio");
    report->Property("workload.novel_share",
                     1.0 - static_cast<double>(kPlanted) / kSubexpressions,
                     "ratio");
    report->Property("workload.repeat_share", 0.0, "ratio");
    auto groups = SchemaFilter(subexpressions_, *deployment.catalog);
    GEQO_CHECK(groups.ok()) << groups.status().ToString();
    size_t largest = 0;
    for (const SfGroup& group : *groups) {
      largest = std::max(largest, group.members.size());
    }
    report->Property("workload.sf_groups", groups->size(), "count");
    report->Property("workload.sf_group_mean_size",
                     static_cast<double>(kSubexpressions) / groups->size(),
                     "count");
    report->Property("workload.sf_group_max_size", largest, "count");
    report->Property("workload.sf_pair_share",
                     static_cast<double>(CountIntraGroupPairs(*groups)) /
                         (kSubexpressions * (kSubexpressions - 1) / 2),
                     "ratio");
  }

  std::vector<PlanPtr> subexpressions_;
  std::vector<std::pair<size_t, size_t>> planted_;
  std::vector<std::pair<size_t, size_t>> reference_;
};

}  // namespace

std::unique_ptr<Workload> MakeBatchWorkload() {
  return std::make_unique<BatchWorkload>();
}

}  // namespace geqo::perfbench
