#include <gtest/gtest.h>

#include <cstdio>

#include "core/geqo_system.h"
#include "filters/emf_filter.h"
#include "filters/vmf.h"
#include "test_util.h"
#include "workload/schemas.h"

namespace geqo {
namespace {

using testing::MustParse;

/// Shared small trained system over TPC-H (training amortized per suite).
class FiltersTest : public ::testing::Test {
 protected:
  static GeqoSystem& System() {
    static GeqoSystem* system = [] {
      static Catalog catalog = MakeTpchCatalog();
      GeqoSystemOptions options;
      options.model.conv1_size = 32;
      options.model.conv2_size = 32;
      options.model.fc1_size = 32;
      options.model.fc2_size = 16;
      options.model.dropout = 0.2f;
      options.training.epochs = 8;
      options.synthetic_data.num_base_queries = 40;
      auto* out = new GeqoSystem(&catalog, options);
      GEQO_CHECK_OK(out->TrainOnSyntheticWorkload(0xF117).status());
      return out;
    }();
    return *system;
  }

  static std::vector<EncodedPlan> Encode(const std::vector<PlanPtr>& plans) {
    auto encoded = EncodeWorkload(plans, System().instance_layout(),
                                  System().catalog(), System().value_range());
    GEQO_CHECK(encoded.ok());
    return *encoded;
  }
};

TEST_F(FiltersTest, CalibrationSetsOperatingPoints) {
  // Training calibrated both thresholds away from their raw defaults.
  const GeqoOptions& options = System().pipeline().options();
  EXPECT_GT(options.vmf.radius, 0.0f);
  EXPECT_GE(options.emf.threshold, 0.02f);
  EXPECT_LE(options.emf.threshold, 0.5f);
}

TEST_F(FiltersTest, CalibratedVmfAdmitsKnownEquivalences) {
  // Build fresh labeled pairs; the calibrated radius must admit nearly all
  // positives (the Table-1 TPR ~0.98 operating point).
  Rng rng(0xAB);
  LabeledDataOptions data_options;
  data_options.num_base_queries = 25;
  auto pairs = BuildLabeledPairs(System().catalog(), data_options, &rng);
  ASSERT_TRUE(pairs.ok());
  auto dataset = EncodeLabeledPairs(*pairs, System().catalog(),
                                    System().instance_layout(),
                                    System().agnostic_layout(),
                                    System().value_range());
  ASSERT_TRUE(dataset.ok());

  const float radius = System().pipeline().options().vmf.radius;
  size_t admitted = 0;
  size_t positives = 0;
  for (size_t i = 0; i < dataset->size(); ++i) {
    if (dataset->labels[i] < 0.5f) continue;
    ++positives;
    const Tensor lhs = System().model().Embed({&dataset->lhs[i]});
    const Tensor rhs = System().model().Embed({&dataset->rhs[i]});
    const float distance = std::sqrt(
        ops::SquaredDistance(lhs.Row(0), rhs.Row(0), lhs.cols()));
    admitted += distance < radius;
  }
  ASSERT_GT(positives, 5u);
  EXPECT_GE(static_cast<double>(admitted) / static_cast<double>(positives),
            0.85);
}

TEST_F(FiltersTest, EmfThresholdCalibrationRespectsBounds) {
  Rng rng(0xAC);
  LabeledDataOptions data_options;
  data_options.num_base_queries = 15;
  auto pairs = BuildLabeledPairs(System().catalog(), data_options, &rng);
  ASSERT_TRUE(pairs.ok());
  auto dataset = EncodeLabeledPairs(*pairs, System().catalog(),
                                    System().instance_layout(),
                                    System().agnostic_layout(),
                                    System().value_range());
  ASSERT_TRUE(dataset.ok());
  const auto threshold = CalibrateEmfThreshold(&System().model(), *dataset);
  ASSERT_TRUE(threshold.ok());
  EXPECT_GE(*threshold, 0.02f);
  EXPECT_LE(*threshold, 0.5f);

  // Calibration without positives is an error, not a silent default.
  ml::PairDataset negatives_only;
  for (size_t i = 0; i < dataset->size(); ++i) {
    if (dataset->labels[i] < 0.5f) {
      negatives_only.Add(dataset->lhs[i], dataset->rhs[i], 0.0f);
    }
  }
  EXPECT_FALSE(
      CalibrateEmfThreshold(&System().model(), negatives_only).ok());
  EXPECT_FALSE(CalibrateVmfRadius(&System().model(), negatives_only).ok());
}

TEST_F(FiltersTest, VmfGroupEmbeddingShapes) {
  const Catalog& catalog = System().catalog();
  const std::vector<PlanPtr> plans = {
      MustParse("SELECT c_custkey FROM customer WHERE c_acctbal > 10",
                catalog),
      MustParse("SELECT c_custkey FROM customer WHERE 10 < c_acctbal",
                catalog),
      MustParse("SELECT c_custkey FROM customer WHERE c_acctbal > 95",
                catalog),
  };
  const std::vector<EncodedPlan> encoded = Encode(plans);
  const VectorMatchingFilter vmf(&System().model(),
                                 &System().instance_layout(),
                                 &System().agnostic_layout());
  const auto embeddings = vmf.EmbedGroup({0, 1, 2}, encoded);
  ASSERT_TRUE(embeddings.ok());
  EXPECT_EQ(embeddings->rows(), 3u);
  EXPECT_EQ(embeddings->cols(), System().model().embedding_dim());

  // The operand-swapped pair encodes identically, hence distance zero.
  const float d01 = std::sqrt(ops::SquaredDistance(
      embeddings->Row(0), embeddings->Row(1), embeddings->cols()));
  const float d02 = std::sqrt(ops::SquaredDistance(
      embeddings->Row(0), embeddings->Row(2), embeddings->cols()));
  EXPECT_FLOAT_EQ(d01, 0.0f);
  EXPECT_GT(d02, 0.0f);
}

TEST_F(FiltersTest, VmfCandidatesAreDeduplicatedAndOrdered) {
  const Catalog& catalog = System().catalog();
  std::vector<PlanPtr> plans;
  for (int i = 0; i < 6; ++i) {
    plans.push_back(MustParse("SELECT c_custkey FROM customer", catalog));
  }
  const std::vector<EncodedPlan> encoded = Encode(plans);
  VmfOptions options;
  options.radius = 10.0f;  // everything within radius
  const VectorMatchingFilter vmf(&System().model(),
                                 &System().instance_layout(),
                                 &System().agnostic_layout(), options);
  const auto pairs = vmf.CandidatePairs({0, 1, 2, 3, 4, 5}, encoded);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(pairs->size(), 15u);  // C(6,2), each exactly once
  for (const auto& [i, j] : *pairs) EXPECT_LT(i, j);
}

TEST_F(FiltersTest, EmfFilterThresholdSplitsScores) {
  const Catalog& catalog = System().catalog();
  // The EMF runs after the SF, so its training distribution only contains
  // schema-compatible pairs; probe it with same-table pairs.
  const std::vector<PlanPtr> plans = {
      MustParse("SELECT c_custkey FROM customer WHERE c_acctbal > 10",
                catalog),
      MustParse("SELECT c_custkey FROM customer WHERE 10 < c_acctbal",
                catalog),
      MustParse("SELECT c_custkey FROM customer WHERE c_nationkey < 85",
                catalog),
  };
  const std::vector<EncodedPlan> encoded = Encode(plans);
  const EquivalenceModelFilter emf(&System().model(),
                                   &System().instance_layout(),
                                   &System().agnostic_layout());
  const auto scores = emf.Scores({{0, 1}, {0, 2}}, encoded);
  ASSERT_TRUE(scores.ok());
  ASSERT_EQ(scores->size(), 2u);
  // The identical-after-normalization pair must score higher than the
  // different-column, opposite-direction pair.
  EXPECT_GT((*scores)[0], (*scores)[1]);
}

TEST_F(FiltersTest, SystemSnapshotRoundTripKeepsCalibration) {
  const std::string path = testing::ProcessTempDir() + "/system_snapshot.bin";
  const float radius = System().options().pipeline.vmf.radius;
  const float threshold = System().options().pipeline.emf.threshold;
  ASSERT_TRUE(System().SaveSnapshot(path).ok());
  ASSERT_TRUE(System().LoadSnapshot(path).ok());
  EXPECT_EQ(System().options().pipeline.vmf.radius, radius);
  EXPECT_EQ(System().options().pipeline.emf.threshold, threshold);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace geqo
