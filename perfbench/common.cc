#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <numeric>

#include "bench.h"
#include "common/check.h"
#include "common/rng.h"
#include "filters/schema_filter.h"
#include "obs/metrics.h"
#include "workload/schemas.h"

namespace geqo::perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> values = values_;
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = std::min(
      values.size() - 1, static_cast<size_t>(std::max(rank, 1.0)) - 1);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double Samples::Mean() const {
  return values_.empty() ? 0.0 : Sum() / static_cast<double>(values_.size());
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

const std::vector<std::string>& NarrowTablePool() {
  // The collision-heavy pool of the detection experiments (Table 1, Fig 13,
  // Fig 14): on TPC-H it leaves customer, lineitem and orders, so most
  // subexpressions share an SF signature.
  static const std::vector<std::string> pool = {"customer", "lineitem",
                                                "orders"};
  return pool;
}

Deployment TrainDeployment() {
  Deployment deployment;
  deployment.catalog = std::make_unique<Catalog>(MakeTpchCatalog());
  GeqoSystemOptions options;
  options.model.conv1_size = 64;
  options.model.conv2_size = 64;
  options.model.fc1_size = 64;
  options.model.fc2_size = 32;
  options.model.dropout = 0.3f;
  options.training.epochs = kTrainEpochs;
  options.synthetic_data.num_base_queries = kTrainBaseQueries;
  options.synthetic_data.variants_per_query = 3;
  options.pipeline.emf.threshold = 0.5f;
  options.pipeline.verifier.modeled_invocation_stall_seconds = 0.0;
  deployment.system =
      std::make_unique<GeqoSystem>(deployment.catalog.get(), options);

  // Two generator profiles, as the bench_* harnesses train: the diverse
  // default and the narrow pool the detection workload draws from.
  Rng rng(kTrainSeed);
  auto pairs =
      BuildLabeledPairs(*deployment.catalog, options.synthetic_data, &rng);
  GEQO_CHECK(pairs.ok()) << pairs.status().ToString();
  LabeledDataOptions narrow = options.synthetic_data;
  narrow.generator.fixed_projection_columns = 2;
  narrow.generator.table_pool = NarrowTablePool();
  auto narrow_pairs = BuildLabeledPairs(*deployment.catalog, narrow, &rng);
  GEQO_CHECK(narrow_pairs.ok()) << narrow_pairs.status().ToString();
  pairs->insert(pairs->end(), narrow_pairs->begin(), narrow_pairs->end());
  auto report = deployment.system->TrainOnPairs(*pairs);
  GEQO_CHECK(report.ok()) << report.status().ToString();
  return deployment;
}

std::vector<std::vector<PlanPtr>> StratifiedQueries(
    const QueryGenerator& generator, const Catalog& catalog, size_t groups,
    size_t per_group, Rng* rng) {
  std::map<SfSignature, std::vector<PlanPtr>> buckets;
  std::vector<std::vector<PlanPtr>> full;
  // Signatures are taken in the order they fill up, so the result is a
  // deterministic function of the generator and the rng state.
  for (size_t draws = 0; full.size() < groups; ++draws) {
    GEQO_CHECK(draws < 200000) << "the generator yields too few signatures";
    PlanPtr plan = generator.Generate(rng);
    auto signature = SchemaSignature(plan, catalog);
    GEQO_CHECK(signature.ok()) << signature.status().ToString();
    std::vector<PlanPtr>& bucket = buckets[*signature];
    if (bucket.size() == per_group) continue;
    bucket.push_back(std::move(plan));
    if (bucket.size() == per_group) full.push_back(bucket);
  }
  return full;
}

double RegistryValue(const std::string& name) {
  return obs::MetricsRegistry::Global().Snapshot().Value(name);
}

}  // namespace geqo::perfbench
