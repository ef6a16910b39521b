#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/geqo_system.h"
#include "ml/metrics.h"
#include "workload/schemas.h"

/// \file bench_util.h
/// Shared infrastructure for the per-table / per-figure benchmark harnesses
/// (see DESIGN.md §3 for the experiment index). Every harness:
///   - prints the paper row/series shapes it reproduces,
///   - is deterministic given the printed seeds, and
///   - honors GEQO_BENCH_SCALE = smoke | default | full (paper-scale).
///
/// Expensive trained models are cached on disk (./bench_cache) so the suite
/// amortizes training across binaries; delete the directory to retrain.

namespace geqo::bench {

enum class Scale { kSmoke, kDefault, kFull };

/// Reads GEQO_BENCH_SCALE (default: kDefault).
Scale GetScale();
std::string_view ScaleName(Scale scale);

/// Picks a size by scale.
size_t Pick(size_t smoke, size_t default_size, size_t full);

/// \brief A trained GEqO deployment for benchmarking, with a disk cache.
struct BenchContext {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<GeqoSystem> system;
  double train_seconds = 0.0;  ///< 0 when the model was loaded from cache
  bool loaded_from_cache = false;
};

/// \brief Standard model/training dimensions for the current scale.
GeqoSystemOptions StandardOptions(Scale scale);

/// \brief Builds (or loads from ./bench_cache/<tag>.bin) a GeqoSystem
/// trained on synthetic data over \p catalog.
///
/// \p join_free restricts the training workload to single-table queries —
/// the degenerate initial model of the SSFL experiments (§7.3).
BenchContext BuildTrainedSystem(const std::string& tag,
                                std::unique_ptr<Catalog> catalog,
                                GeqoSystemOptions options, uint64_t seed,
                                bool join_free = false);

/// Convenience: the TPC-H-trained system used by most experiments.
BenchContext TpchTrainedSystem(Scale scale);

/// \brief A detection pipeline over a catalog other than the model's
/// training catalog (the transfer setting of §7: train TPC-H, detect on
/// TPC-DS). Owns the foreign catalog and its instance layout; borrows the
/// trained model and agnostic layout from \p system.
struct ForeignPipeline {
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<EncodingLayout> instance_layout;
  std::unique_ptr<GeqoPipeline> pipeline;
};

ForeignPipeline MakeForeignPipeline(GeqoSystem& system,
                                    std::unique_ptr<Catalog> catalog,
                                    GeqoOptions options);

/// \brief A labeled evaluation set on a (possibly foreign) catalog:
/// plan pairs plus their encoded dataset under \p system's agnostic layout.
struct EvalSet {
  std::vector<LabeledPair> pairs;
  ml::PairDataset dataset;
};

/// Builds an evaluation set of ~2 * num_bases * variants pairs.
EvalSet MakeEvalSet(const GeqoSystem& system, const Catalog& catalog,
                    size_t num_bases, size_t variants, uint64_t seed);

/// \brief A detection workload with planted ground truth, used by Table 1,
/// Fig 13, and Fig 14: n subexpressions of which `planted.size()` pairs are
/// semantically equivalent rewrites.
struct DetectionWorkload {
  std::vector<PlanPtr> subexpressions;
  std::vector<std::pair<size_t, size_t>> planted;  ///< (i, j), i < j
  size_t TotalPairs() const {
    return subexpressions.size() * (subexpressions.size() - 1) / 2;
  }
};

/// Builds a detection workload over \p catalog with \p num_equivalences
/// planted equivalent pairs among \p num_subexpressions subexpressions.
DetectionWorkload MakeDetectionWorkload(const Catalog& catalog,
                                        size_t num_subexpressions,
                                        size_t num_equivalences, uint64_t seed);

/// True membership test against a sorted/unsorted pair list.
bool ContainsPair(const std::vector<std::pair<size_t, size_t>>& pairs,
                  const std::pair<size_t, size_t>& pair);

/// Confusion matrix of a detected pair set against planted ground truth
/// over all C(n,2) pairs.
ml::ConfusionMatrix ScoreDetection(
    const DetectionWorkload& workload,
    const std::vector<std::pair<size_t, size_t>>& detected);

/// \brief One SSFL iteration's quality and cost, for the Figure 9-11 study.
struct SsflStudyPoint {
  size_t cumulative_samples = 0;
  double accuracy = 0.0;
  double f1 = 0.0;
  double sample_seconds = 0.0;
  double verify_seconds = 0.0;
  double featurize_seconds = 0.0;
  double train_seconds = 0.0;
  double TotalSeconds() const {
    return sample_seconds + verify_seconds + featurize_seconds + train_seconds;
  }
};

/// \brief Results of the §7.3 SSFL experiment: a degenerate (join-free)
/// TPC-H-trained model fine-tuned on a TPC-DS workload, comparing
/// filter-balanced sampling against random sampling. Point 0 is the
/// untuned model.
struct SsflStudyResult {
  std::vector<SsflStudyPoint> filter_based;
  std::vector<SsflStudyPoint> random;
};

/// Runs the study (both sampling modes, `iterations` batches each).
SsflStudyResult RunSsflStudy(Scale scale);

/// Prints the standard harness header (binary name, scale, seed note).
void PrintHeader(const std::string& name, const std::string& reproduces);

/// \brief Records one DetectEquivalences run's StageReport funnel in the
/// shared BENCH_pipeline.json artifact (rewritten after every call with all
/// runs recorded so far by this process), and — when GEQO_TRACE is enabled —
/// flushes the trace/metrics artifacts too. \p label distinguishes multiple
/// runs from the same harness ("fig14/full", "table1/tpcds", ...).
void WritePipelineArtifact(const std::string& label, const GeqoResult& result);

/// \brief Modeled per-invocation cost of the paper's automated verifier.
///
/// Substitution note (DESIGN.md §1): the paper's AV is SPES — a separate
/// JVM + Z3 process per check; Table 1 implies ~18 ms per pair averaged
/// over a 50k-pair workload. Our in-process DPLL(T) verifier is orders of
/// magnitude cheaper, which would *understate* the benefit of GEqO's
/// filters. Harnesses that compare against the AV therefore report, next
/// to raw measured time, a modeled time
///     measured + (verifier invocations) x kSpesInvocationOverheadSeconds
/// so the paper's cost ratios are reproduced with the realistic AV price.
inline constexpr double kSpesInvocationOverheadSeconds = 0.018;

inline double ModeledAvSeconds(double measured_seconds, uint64_t invocations) {
  return measured_seconds +
         static_cast<double>(invocations) * kSpesInvocationOverheadSeconds;
}

}  // namespace geqo::bench
