#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/geqo_system.h"
#include "workload/generator.h"
#include "spans.h"

/// \file bench.h
/// Shared pieces of the repository benchmark (see README.md): the run
/// configuration, the trained deployment every workload starts from, sample
/// statistics, and the report that collects end-to-end metrics, per-layer
/// metrics, workload properties and correctness gates.

namespace geqo::perfbench {

/// \brief Command-line configuration of one benchmark run.
struct RunConfig {
  std::string workload;  ///< "batch", "serve" or "reuse"
  uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the timed window
  bool trace = false;     ///< the traced run: per-layer metrics
  std::string workdir;    ///< scratch directory for durable state
};

/// \brief A trained GEqO deployment over the TPC-H catalog. Training uses a
/// fixed seed, never the workload seed and never a cached model, so set-up
/// is the same deterministic work on every run.
struct Deployment {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<GeqoSystem> system;
};

Deployment TrainDeployment();

/// Training set-up: fixed seed, model and data size (see README.md).
inline constexpr uint64_t kTrainSeed = 0xBE9C;
inline constexpr size_t kTrainEpochs = 5;
inline constexpr size_t kTrainBaseQueries = 40;

/// \brief A growable sample set with order statistics.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Nearest-rank percentile, \p q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }
  double Mean() const;
  double Sum() const;

 private:
  std::vector<double> values_;
};

/// \brief Everything one run reports. Metric names follow BENCHMARK.json
/// (end-to-end) and README.md (per-layer and named report metrics).
class Report {
 public:
  /// A metric of BENCHMARK.json's end-to-end set (printed with --trace 0).
  void EndToEnd(const std::string& name, double value, const std::string& unit,
                uint64_t samples);
  /// A per-layer metric (printed with --trace 1).
  void Layer(const std::string& name, double value, const std::string& unit,
             uint64_t samples);
  /// A workload-named metric (the names the workload's design uses, e.g.
  /// detect_pairs_per_s); printed in the human-readable report only.
  void Named(const std::string& name, double value, const std::string& unit,
             uint64_t samples);
  /// A workload property (request mix, group sizes, working set).
  void Property(const std::string& name, double value, const std::string& unit);
  void Environment(const std::string& key, const std::string& value);

  /// Counts one attempted operation and whether it failed.
  void CountOperation(bool ok);
  void CountOperations(uint64_t attempted, uint64_t failed);
  /// Records a correctness gate; a failed gate makes the run incorrect.
  void Gate(const std::string& name, bool passed, const std::string& detail);

  bool correct() const;
  /// Prints the human-readable report, then the JSON result line.
  void Print(bool trace) const;

  bool HasLayer(const std::string& name) const;
  size_t LayerCount() const { return layer_.size(); }

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
    uint64_t samples = 0;
  };
  std::map<std::string, Entry> end_to_end_;
  std::map<std::string, Entry> layer_;
  std::map<std::string, Entry> named_;
  std::map<std::string, Entry> properties_;
  std::vector<std::pair<std::string, std::string>> environment_;
  std::vector<std::pair<std::string, std::string>> failed_gates_;
  size_t gates_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// \brief What a workload's timed pass measured that the run needs after
/// the pass: the primary latency median (for trace.overhead_pct).
struct PassResult {
  double latency_p50_ms = 0.0;
};

/// \brief One workload. Generate and Preload are set-up (timed into
/// setup_s); Run is one timed pass over a fresh preload. A traced run calls
/// Preload + Run twice: untraced, then traced.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Builds the request sequence from \p seed; the program sees only it.
  virtual void Generate(const Deployment& deployment, uint64_t seed) = 0;
  /// Brings the system to the state the timed pass starts from.
  virtual void Preload(Deployment& deployment, const RunConfig& config) = 0;
  /// The timed pass. Reports end-to-end metrics, workload properties and
  /// correctness gates; with a non-null \p tracer (the traced pass, metrics
  /// collection on) also the per-layer metrics.
  virtual PassResult Run(Deployment& deployment, const RunConfig& config,
                         Tracer* tracer, Report* report) = 0;
  /// Releases the preloaded state (between repeated set-ups and passes).
  virtual void Reset() = 0;
};

std::unique_ptr<Workload> MakeBatchWorkload();
std::unique_ptr<Workload> MakeServeWorkload();
std::unique_ptr<Workload> MakeReuseWorkload();

/// Seconds since an arbitrary steady epoch.
double NowSeconds();

/// Value of a counter or gauge (a histogram's sum) in the obs registry.
double RegistryValue(const std::string& name);

/// The narrow TPC-H table pool detection workloads draw from.
const std::vector<std::string>& NarrowTablePool();

/// Draws from \p generator until \p groups SF signatures have \p per_group
/// queries each, and returns those groups (first filled first). Equal group
/// sizes fix the number of same-signature pairs, which otherwise varies by
/// seed and moves every filter's work with it.
std::vector<std::vector<PlanPtr>> StratifiedQueries(
    const QueryGenerator& generator, const Catalog& catalog, size_t groups,
    size_t per_group, Rng* rng);

}  // namespace geqo::perfbench
