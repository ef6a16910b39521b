#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <functional>

#include "nn/adam.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/serialize.h"
#include "nn/treeconv.h"
#include "test_util.h"

namespace geqo::nn {
namespace {

/// Numeric gradient check: perturbs each parameter (and input) coordinate
/// and compares the finite-difference slope of a scalar loss against the
/// analytic gradient from Backward.
constexpr float kEpsilon = 1e-2f;
constexpr float kTolerance = 2e-2f;

/// Scalar loss used for checks: sum of squares of the output.
float SumSquares(const Tensor& t) {
  float acc = 0.0f;
  for (const float v : t.values()) acc += v * v;
  return 0.5f * acc;
}

Tensor SumSquaresGrad(const Tensor& t) { return t; }

TEST(LinearTest, ForwardMatchesManual) {
  Rng rng(1);
  Linear layer(2, 1, &rng);
  layer.weight().At(0, 0) = 2.0f;
  layer.weight().At(0, 1) = -1.0f;
  layer.bias().At(0, 0) = 0.5f;
  const Tensor x = Tensor::FromRows(1, 2, {3.0f, 4.0f});
  const Tensor y = layer.Forward(x);
  EXPECT_FLOAT_EQ(y.At(0, 0), 2.0f * 3.0f - 4.0f + 0.5f);
}

TEST(LinearTest, GradientCheck) {
  Rng rng(7);
  Linear layer(3, 2, &rng);
  const Tensor x = Tensor::Randn(4, 3, 1.0f, &rng);

  std::vector<ParamRef> params;
  layer.CollectParams("linear", &params);

  const auto loss_fn = [&]() { return SumSquares(layer.Forward(x)); };
  // Analytic gradients.
  for (const ParamRef& param : params) param.grad->Fill(0.0f);
  const Tensor y = layer.Forward(x);
  const Tensor dx = layer.Backward(SumSquaresGrad(y));

  for (const ParamRef& param : params) {
    for (size_t i = 0; i < param.value->size(); ++i) {
      float& coordinate = param.value->mutable_values()[i];
      const float saved = coordinate;
      coordinate = saved + kEpsilon;
      const float plus = loss_fn();
      coordinate = saved - kEpsilon;
      const float minus = loss_fn();
      coordinate = saved;
      const float numeric = (plus - minus) / (2 * kEpsilon);
      EXPECT_NEAR(param.grad->values()[i], numeric, kTolerance)
          << param.name << "[" << i << "]";
    }
  }
  // Input gradient.
  Tensor x_copy = x;
  for (size_t i = 0; i < x_copy.size(); ++i) {
    const float saved = x_copy.values()[i];
    x_copy.mutable_values()[i] = saved + kEpsilon;
    const float plus = SumSquares(layer.Forward(x_copy));
    x_copy.mutable_values()[i] = saved - kEpsilon;
    const float minus = SumSquares(layer.Forward(x_copy));
    x_copy.mutable_values()[i] = saved;
    EXPECT_NEAR(dx.values()[i], (plus - minus) / (2 * kEpsilon), kTolerance);
  }
}

TEST(PReluTest, ForwardSemantics) {
  PReLU layer(2, 0.1f);
  const Tensor x = Tensor::FromRows(1, 2, {-2.0f, 3.0f});
  const Tensor y = layer.Forward(x);
  EXPECT_FLOAT_EQ(y.At(0, 0), -0.2f);
  EXPECT_FLOAT_EQ(y.At(0, 1), 3.0f);
}

TEST(PReluTest, GradientCheck) {
  Rng rng(9);
  PReLU layer(3, 0.25f);
  const Tensor x = Tensor::Randn(5, 3, 1.0f, &rng);
  std::vector<ParamRef> params;
  layer.CollectParams("prelu", &params);
  for (const ParamRef& param : params) param.grad->Fill(0.0f);
  const Tensor y = layer.Forward(x);
  const Tensor dx = layer.Backward(SumSquaresGrad(y));

  for (const ParamRef& param : params) {
    for (size_t i = 0; i < param.value->size(); ++i) {
      float& coordinate = param.value->mutable_values()[i];
      const float saved = coordinate;
      coordinate = saved + kEpsilon;
      const float plus = SumSquares(layer.Forward(x));
      coordinate = saved - kEpsilon;
      const float minus = SumSquares(layer.Forward(x));
      coordinate = saved;
      EXPECT_NEAR(param.grad->values()[i], (plus - minus) / (2 * kEpsilon),
                  kTolerance);
    }
  }
}

TEST(BatchNormTest, NormalizesBatch) {
  BatchNorm1d layer(2);
  Rng rng(3);
  const Tensor x = Tensor::FromRows(4, 2, {1, 10, 2, 20, 3, 30, 4, 40});
  const Tensor y = layer.Forward(x, /*training=*/true);
  // Per-channel mean ~0, variance ~1 after normalization.
  for (size_t c = 0; c < 2; ++c) {
    float mean = 0.0f;
    for (size_t r = 0; r < 4; ++r) mean += y.At(r, c);
    EXPECT_NEAR(mean / 4.0f, 0.0f, 1e-5f);
  }
}

TEST(BatchNormTest, InferenceUsesRunningStats) {
  BatchNorm1d layer(1);
  const Tensor x = Tensor::FromRows(4, 1, {1, 2, 3, 4});
  for (int i = 0; i < 50; ++i) layer.Forward(x, /*training=*/true);
  // Inference on the training distribution should roughly normalize it.
  const Tensor y = layer.Forward(x, /*training=*/false);
  EXPECT_NEAR(y.At(0, 0) + y.At(3, 0), 0.0f, 0.2f);  // symmetric around mean
}

TEST(BatchNormTest, GradientCheckInputs) {
  Rng rng(11);
  BatchNorm1d layer(2);
  const Tensor x = Tensor::Randn(6, 2, 1.0f, &rng);
  std::vector<ParamRef> params;
  layer.CollectParams("bn", &params);
  for (const ParamRef& param : params) param.grad->Fill(0.0f);
  const Tensor y = layer.Forward(x, true);
  const Tensor dx = layer.Backward(SumSquaresGrad(y));

  Tensor x_copy = x;
  for (size_t i = 0; i < x_copy.size(); ++i) {
    const float saved = x_copy.values()[i];
    x_copy.mutable_values()[i] = saved + kEpsilon;
    BatchNorm1d fresh(2);  // avoid running-stat drift between evaluations
    fresh.Forward(x, true);
    const float plus = SumSquares(fresh.Forward(x_copy, true));
    x_copy.mutable_values()[i] = saved - kEpsilon;
    const float minus = SumSquares(fresh.Forward(x_copy, true));
    x_copy.mutable_values()[i] = saved;
    EXPECT_NEAR(dx.values()[i], (plus - minus) / (2 * kEpsilon), 5e-2f);
  }
}

TEST(DropoutTest, InferencePassthrough) {
  Rng rng(5);
  Dropout layer(0.5f, &rng);
  const Tensor x = Tensor::FromVector({1, 2, 3, 4});
  const Tensor y = layer.Forward(x, /*training=*/false);
  for (size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y.values()[i], x.values()[i]);
}

TEST(DropoutTest, TrainingZeroesAndScales) {
  Rng rng(5);
  Dropout layer(0.5f, &rng);
  const Tensor x = Tensor::Full(1, 1000, 1.0f);
  const Tensor y = layer.Forward(x, /*training=*/true);
  size_t zeros = 0;
  for (const float v : y.values()) {
    if (v == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(v, 2.0f);  // inverted dropout scaling
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 1000.0, 0.5, 0.08);
}

nn::TreeBatch MakeToyTreeBatch(Rng* rng) {
  // Two trees: a 3-node join-shaped tree and a 2-node chain.
  nn::TreeBatch batch;
  batch.nodes = Tensor::Randn(5, 4, 1.0f, rng);
  batch.left = {1, -1, -1, 4, -1};
  batch.right = {2, -1, -1, -1, -1};
  batch.spans = {{0, 3}, {3, 2}};
  return batch;
}

TEST(TreeConvTest, StructurePreserved) {
  Rng rng(13);
  TreeConv layer(4, 6, &rng);
  const nn::TreeBatch input = MakeToyTreeBatch(&rng);
  input.Validate();
  const nn::TreeBatch output = layer.Forward(input);
  output.Validate();
  EXPECT_EQ(output.feature_dim(), 6u);
  EXPECT_EQ(output.spans, input.spans);
  EXPECT_EQ(output.left, input.left);
}

TEST(TreeConvTest, GradientCheck) {
  Rng rng(17);
  TreeConv layer(3, 2, &rng);
  nn::TreeBatch input;
  input.nodes = Tensor::Randn(4, 3, 1.0f, &rng);
  input.left = {1, -1, 3, -1};
  input.right = {2, -1, -1, -1};
  input.spans = {{0, 3}, {3, 1}};

  std::vector<ParamRef> params;
  layer.CollectParams("conv", &params);
  for (const ParamRef& param : params) param.grad->Fill(0.0f);

  nn::TreeBatch out = layer.Forward(input);
  nn::TreeBatch grad = out;
  grad.nodes = SumSquaresGrad(out.nodes);
  const nn::TreeBatch dx = layer.Backward(grad);

  const auto loss_fn = [&]() { return SumSquares(layer.Forward(input).nodes); };
  for (const ParamRef& param : params) {
    for (size_t i = 0; i < param.value->size(); ++i) {
      float& coordinate = param.value->mutable_values()[i];
      const float saved = coordinate;
      coordinate = saved + kEpsilon;
      const float plus = loss_fn();
      coordinate = saved - kEpsilon;
      const float minus = loss_fn();
      coordinate = saved;
      EXPECT_NEAR(param.grad->values()[i], (plus - minus) / (2 * kEpsilon),
                  kTolerance)
          << param.name << "[" << i << "]";
    }
  }
  // Input gradient (exercises the child scatter path).
  for (size_t i = 0; i < input.nodes.size(); ++i) {
    const float saved = input.nodes.values()[i];
    input.nodes.mutable_values()[i] = saved + kEpsilon;
    const float plus = loss_fn();
    input.nodes.mutable_values()[i] = saved - kEpsilon;
    const float minus = loss_fn();
    input.nodes.mutable_values()[i] = saved;
    EXPECT_NEAR(dx.nodes.values()[i], (plus - minus) / (2 * kEpsilon),
                kTolerance);
  }
}

TEST(DynamicMaxPoolTest, PoolsPerTree) {
  nn::TreeBatch batch;
  batch.nodes = Tensor::FromRows(3, 2, {1, 5, 3, 2, -1, 9});
  batch.left = {-1, -1, -1};
  batch.right = {-1, -1, -1};
  batch.spans = {{0, 2}, {2, 1}};
  DynamicMaxPool pool;
  const Tensor pooled = pool.Forward(batch);
  EXPECT_EQ(pooled.rows(), 2u);
  EXPECT_EQ(pooled.At(0, 0), 3.0f);
  EXPECT_EQ(pooled.At(0, 1), 5.0f);
  EXPECT_EQ(pooled.At(1, 1), 9.0f);
}

TEST(DynamicMaxPoolTest, BackwardRoutesToArgmax) {
  nn::TreeBatch batch;
  batch.nodes = Tensor::FromRows(2, 1, {1, 3});
  batch.left = {-1, -1};
  batch.right = {-1, -1};
  batch.spans = {{0, 2}};
  DynamicMaxPool pool;
  pool.Forward(batch);
  const Tensor dy = Tensor::FromRows(1, 1, {1.0f});
  const nn::TreeBatch dx = pool.Backward(dy);
  EXPECT_EQ(dx.nodes.At(0, 0), 0.0f);
  EXPECT_EQ(dx.nodes.At(1, 0), 1.0f);
}

TEST(LossTest, SigmoidValues) {
  const Tensor s = Sigmoid(Tensor::FromVector({0.0f, 100.0f, -100.0f}));
  EXPECT_FLOAT_EQ(s.At(0, 0), 0.5f);
  EXPECT_NEAR(s.At(0, 1), 1.0f, 1e-6f);
  EXPECT_NEAR(s.At(0, 2), 0.0f, 1e-6f);
}

TEST(LossTest, BceMatchesDefinition) {
  const Tensor logits = Tensor::FromRows(2, 1, {0.0f, 2.0f});
  const Tensor labels = Tensor::FromRows(2, 1, {1.0f, 1.0f});
  // -log(sigmoid(0)) = log 2; -log(sigmoid(2)) = log(1 + e^-2).
  const float expected =
      (std::log(2.0f) + std::log1p(std::exp(-2.0f))) / 2.0f;
  EXPECT_NEAR(BceWithLogitsLoss(logits, labels), expected, 1e-6f);
}

TEST(LossTest, BceGradientCheck) {
  Tensor logits = Tensor::FromRows(3, 1, {0.5f, -1.0f, 2.0f});
  const Tensor labels = Tensor::FromRows(3, 1, {1.0f, 0.0f, 1.0f});
  const Tensor grad = BceWithLogitsGrad(logits, labels);
  for (size_t i = 0; i < logits.size(); ++i) {
    const float saved = logits.values()[i];
    logits.mutable_values()[i] = saved + kEpsilon;
    const float plus = BceWithLogitsLoss(logits, labels);
    logits.mutable_values()[i] = saved - kEpsilon;
    const float minus = BceWithLogitsLoss(logits, labels);
    logits.mutable_values()[i] = saved;
    EXPECT_NEAR(grad.values()[i], (plus - minus) / (2 * kEpsilon), 1e-3f);
  }
}

TEST(AdamTest, ConvergesOnQuadratic) {
  // Minimize (w - 3)^2 with Adam.
  Tensor w(1, 1);
  Tensor grad(1, 1);
  AdamOptions options;
  options.learning_rate = 0.1f;
  options.weight_decay = 0.0f;
  Adam adam({ParamRef{"w", &w, &grad}}, options);
  for (int i = 0; i < 300; ++i) {
    adam.ZeroGrad();
    grad.At(0, 0) = 2.0f * (w.At(0, 0) - 3.0f);
    adam.Step();
  }
  EXPECT_NEAR(w.At(0, 0), 3.0f, 0.05f);
}

TEST(AdamTest, WeightDecayShrinksUnusedParams) {
  Tensor w = Tensor::Full(1, 1, 10.0f);
  Tensor grad(1, 1);
  AdamOptions options;
  options.weight_decay = 0.1f;
  Adam adam({ParamRef{"w", &w, &grad}}, options);
  for (int i = 0; i < 200; ++i) {
    adam.ZeroGrad();
    adam.Step();  // gradient stays zero: only decay acts
  }
  EXPECT_LT(std::fabs(w.At(0, 0)), 10.0f);
}

TEST(SerializeTest, RoundTrip) {
  Tensor a = Tensor::FromRows(2, 2, {1, 2, 3, 4});
  Tensor b = Tensor::FromVector({5, 6, 7});
  const std::string path = testing::ProcessTempDir() + "/geqo_state.bin";
  ASSERT_TRUE(SaveState({{"a", &a}, {"b", &b}}, path).ok());

  Tensor a2(2, 2);
  Tensor b2(1, 3);
  ASSERT_TRUE(LoadState({{"a", &a2}, {"b", &b2}}, path).ok());
  EXPECT_EQ(a2.At(1, 1), 4.0f);
  EXPECT_EQ(b2.At(0, 2), 7.0f);

  const auto size = StateFileSize(path);
  ASSERT_TRUE(size.ok());
  EXPECT_GT(*size, sizeof(float) * 7);
  std::remove(path.c_str());
}

TEST(SerializeTest, ShapeMismatchRejected) {
  Tensor a = Tensor::FromRows(2, 2, {1, 2, 3, 4});
  const std::string path = testing::ProcessTempDir() + "/geqo_state2.bin";
  ASSERT_TRUE(SaveState({{"a", &a}}, path).ok());
  Tensor wrong(1, 2);
  EXPECT_FALSE(LoadState({{"a", &wrong}}, path).ok());
  Tensor right(2, 2);
  EXPECT_FALSE(LoadState({{"zz", &right}}, path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace geqo::nn
