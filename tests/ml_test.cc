#include <gtest/gtest.h>

#include <cstdio>

#include "ml/emf_model.h"
#include "ml/flat_features.h"
#include "ml/logistic.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "ml/trainer.h"
#include "nn/serialize.h"
#include "test_util.h"
#include "workload/labeled_data.h"
#include "workload/schemas.h"

namespace geqo::ml {
namespace {

TEST(MetricsTest, ConfusionMatrixRates) {
  ConfusionMatrix matrix;
  matrix.true_positives = 8;
  matrix.false_negatives = 2;
  matrix.true_negatives = 85;
  matrix.false_positives = 5;
  EXPECT_DOUBLE_EQ(matrix.Accuracy(), 0.93);
  EXPECT_DOUBLE_EQ(matrix.Recall(), 0.8);
  EXPECT_DOUBLE_EQ(matrix.TrueNegativeRate(), 85.0 / 90.0);
  EXPECT_NEAR(matrix.Precision(), 8.0 / 13.0, 1e-12);
  EXPECT_NEAR(matrix.F1(),
              2 * matrix.Precision() * 0.8 / (matrix.Precision() + 0.8), 1e-12);
  EXPECT_NEAR(matrix.MeanError(), 0.07, 1e-12);
}

TEST(MetricsTest, EmptyMatrixIsZero) {
  ConfusionMatrix matrix;
  EXPECT_EQ(matrix.Accuracy(), 0.0);
  EXPECT_EQ(matrix.Precision(), 0.0);
  EXPECT_EQ(matrix.F1(), 0.0);
}

TEST(MetricsTest, EvaluateBinaryThresholds) {
  const std::vector<float> probs = {0.9f, 0.4f, 0.6f, 0.1f};
  const std::vector<float> labels = {1.0f, 1.0f, 0.0f, 0.0f};
  const ConfusionMatrix matrix = EvaluateBinary(probs, labels);
  EXPECT_EQ(matrix.true_positives, 1u);
  EXPECT_EQ(matrix.false_negatives, 1u);
  EXPECT_EQ(matrix.false_positives, 1u);
  EXPECT_EQ(matrix.true_negatives, 1u);
}

TEST(LogisticTest, LearnsLinearlySeparableData) {
  Rng rng(31);
  const size_t n = 400;
  Tensor features(n, 2);
  Tensor labels(n, 1);
  for (size_t i = 0; i < n; ++i) {
    const float x = static_cast<float>(rng.NextGaussian());
    const float y = static_cast<float>(rng.NextGaussian());
    features.At(i, 0) = x;
    features.At(i, 1) = y;
    labels.At(i, 0) = (x + y > 0) ? 1.0f : 0.0f;
  }
  LogisticRegression model;
  model.Train(features, labels);
  std::vector<float> labels_vec(n);
  for (size_t i = 0; i < n; ++i) labels_vec[i] = labels.At(i, 0);
  const ConfusionMatrix matrix =
      EvaluateBinary(model.PredictProba(features), labels_vec);
  EXPECT_GT(matrix.Accuracy(), 0.95);
}

TEST(RandomForestTest, LearnsNonlinearBoundary) {
  // XOR-style target: LR cannot fit this; a forest can.
  Rng rng(32);
  const size_t n = 600;
  Tensor features(n, 2);
  Tensor labels(n, 1);
  for (size_t i = 0; i < n; ++i) {
    const float x = static_cast<float>(rng.NextDouble()) * 2 - 1;
    const float y = static_cast<float>(rng.NextDouble()) * 2 - 1;
    features.At(i, 0) = x;
    features.At(i, 1) = y;
    labels.At(i, 0) = (x * y > 0) ? 1.0f : 0.0f;
  }
  RandomForestOptions options;
  options.num_trees = 40;
  RandomForest forest(options);
  forest.Train(features, labels);
  std::vector<float> labels_vec(n);
  for (size_t i = 0; i < n; ++i) labels_vec[i] = labels.At(i, 0);
  const ConfusionMatrix matrix =
      EvaluateBinary(forest.PredictProba(features), labels_vec);
  EXPECT_GT(matrix.Accuracy(), 0.9);
}

class EmfModelTest : public ::testing::Test {
 protected:
  EmfModelTest()
      : catalog_(MakeTpchCatalog()),
        instance_layout_(EncodingLayout::FromCatalog(catalog_)),
        agnostic_layout_(EncodingLayout::Agnostic(6, 8)) {}

  /// Builds a small labeled dataset over TPC-H.
  PairDataset MakeDataset(uint64_t seed, size_t num_bases) {
    Rng rng(seed);
    LabeledDataOptions options;
    options.num_base_queries = num_bases;
    options.variants_per_query = 2;
    options.max_positive_pairs_per_base = 3;
    const auto pairs = BuildLabeledPairs(catalog_, options, &rng);
    GEQO_CHECK(pairs.ok()) << pairs.status().ToString();
    const auto dataset =
        EncodeLabeledPairs(*pairs, catalog_, instance_layout_,
                           agnostic_layout_, ValueRange{0, 100});
    GEQO_CHECK(dataset.ok()) << dataset.status().ToString();
    return *dataset;
  }

  EmfModelOptions SmallModel() {
    EmfModelOptions options;
    options.input_dim = agnostic_layout_.node_vector_size();
    options.conv1_size = 32;
    options.conv2_size = 32;
    options.fc1_size = 32;
    options.fc2_size = 16;
    options.dropout = 0.2f;
    return options;
  }

  Catalog catalog_;
  EncodingLayout instance_layout_;
  EncodingLayout agnostic_layout_;
};

TEST_F(EmfModelTest, ForwardShapes) {
  EmfModel model(SmallModel());
  const PairDataset dataset = MakeDataset(41, 6);
  ASSERT_GT(dataset.size(), 0u);
  std::vector<size_t> order(dataset.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  const size_t n = std::min<size_t>(4, dataset.size());
  const Tensor logits = model.Forward(dataset.LhsSlice(order, 0, n),
                                      dataset.RhsSlice(order, 0, n), false);
  EXPECT_EQ(logits.rows(), n);
  EXPECT_EQ(logits.cols(), 1u);
  const Tensor embeddings = model.Embed(dataset.LhsSlice(order, 0, n));
  EXPECT_EQ(embeddings.rows(), n);
  EXPECT_EQ(embeddings.cols(), model.embedding_dim());
}

TEST_F(EmfModelTest, TrainingReducesLossAndLearns) {
  EmfModel model(SmallModel());
  const PairDataset dataset = MakeDataset(42, 16);
  ASSERT_GT(dataset.NumPositives(), 4u);
  ASSERT_GT(dataset.size() - dataset.NumPositives(), 4u);

  TrainOptions options;
  options.epochs = 12;
  options.batch_size = 16;
  EmfTrainer trainer(&model, options);
  const TrainReport report = trainer.Train(dataset);
  EXPECT_GT(report.steps, 0u);

  const ConfusionMatrix matrix =
      EvaluateBinary(PredictAll(&model, dataset), dataset.labels);
  // Training-set fit on a small balanced dataset should be strong.
  EXPECT_GT(matrix.Accuracy(), 0.85)
      << "train accuracy " << matrix.Accuracy();
}

TEST_F(EmfModelTest, FineTunePersistsOptimizerState) {
  EmfModel model(SmallModel());
  const PairDataset dataset = MakeDataset(43, 8);
  TrainOptions options;
  options.epochs = 2;
  EmfTrainer trainer(&model, options);
  trainer.Train(dataset);
  const TrainReport report = trainer.FineTune(dataset, 2);
  EXPECT_GT(report.steps, 0u);
}

TEST_F(EmfModelTest, StateRoundTripPreservesPredictions) {
  EmfModel model(SmallModel());
  const PairDataset dataset = MakeDataset(44, 8);
  TrainOptions options;
  options.epochs = 2;
  EmfTrainer trainer(&model, options);
  trainer.Train(dataset);
  const std::vector<float> before = PredictAll(&model, dataset);

  const std::string path = testing::ProcessTempDir() + "/emf_state.bin";
  ASSERT_TRUE(nn::SaveState(model.State(), path).ok());
  EmfModel restored(SmallModel());
  ASSERT_TRUE(nn::LoadState(restored.State(), path).ok());
  const std::vector<float> after = PredictAll(&restored, dataset);
  ASSERT_EQ(before.size(), after.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_FLOAT_EQ(before[i], after[i]);
  }
  std::remove(path.c_str());
}

TEST_F(EmfModelTest, ParameterCountMatchesArchitecture) {
  EmfModel model(SmallModel());
  // conv1: 3*32*in + 32; conv2: 3*32*32 + 32; bn: 2*32 x2; prelu 32 x2;
  // fc1: 32*(3*32)+32 (head input is [e_a|e_b||e_a-e_b|]); fc2: 16*32+16;
  // fc3: 1*16+1; prelu fc 32+16.
  const size_t in = agnostic_layout_.node_vector_size();
  const size_t expected = (3 * 32 * in + 32) + (3 * 32 * 32 + 32) +
                          4 * 32 + 2 * 32 + (32 * 96 + 32) + (16 * 32 + 16) +
                          (16 + 1) + 32 + 16;
  EXPECT_EQ(model.NumParameters(), expected);
}

TEST_F(EmfModelTest, FlatFeaturesShape) {
  const PairDataset dataset = MakeDataset(45, 4);
  Tensor features;
  Tensor labels;
  FlattenDataset(dataset, &features, &labels);
  EXPECT_EQ(features.rows(), dataset.size());
  EXPECT_EQ(features.cols(), 3 * agnostic_layout_.node_vector_size());
  EXPECT_EQ(labels.rows(), dataset.size());
}

}  // namespace
}  // namespace geqo::ml
