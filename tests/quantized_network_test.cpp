// Tests for the whole-network integer inference pipeline: the compiled plan
// must agree with the float eval-mode forward pass of the same trained
// model (same quantization points, same weights, folded batch norm), run
// its convolutions on the shift engine, and count operations consistently.

#include "inference/quantized_network.hpp"

#include <gtest/gtest.h>

#include "core/quantize_model.hpp"
#include "core/trainer.hpp"
#include "models/networks.hpp"

namespace flightnn::inference {
namespace {

using tensor::Shape;
using tensor::Tensor;

data::TrainTest small_task() {
  data::DatasetSpec spec;
  spec.classes = 4;
  spec.channels = 3;
  spec.height = 16;
  spec.width = 16;
  spec.train_size = 128;
  spec.test_size = 48;
  spec.noise = 1.0F;
  spec.seed = 77;
  return data::make_synthetic(spec);
}

std::unique_ptr<nn::Sequential> trained_model(int network_id, int quantizer,
                                              const data::TrainTest& split) {
  models::BuildOptions build;
  build.classes = 4;
  build.width_scale = 0.25F;
  build.seed = 5;
  auto model = models::build_network(models::table1_network(network_id), build);
  switch (quantizer) {
    case 1: core::install_lightnn(*model, 1); break;
    case 2: core::install_lightnn(*model, 2); break;
    case 3: core::install_flightnn(*model, core::FLightNNConfig{}); break;
    case 4: core::install_fixed_point(*model, 4); break;
    default: break;  // full precision
  }
  core::TrainConfig train;
  train.epochs = 2;
  train.batch_size = 32;
  core::Trainer trainer(*model, train);
  (void)trainer.fit(split.train, split.test);
  return model;
}

// Float eval-mode logits for one image.
Tensor float_logits(nn::Sequential& model, const Tensor& image) {
  return model.forward(image, /*training=*/false);
}

class PipelineAgreement : public ::testing::TestWithParam<int> {};

TEST_P(PipelineAgreement, LogitsMatchFloatEvalPath) {
  const int quantizer = GetParam();
  const auto split = small_task();
  auto model = trained_model(4, quantizer, split);
  const Shape input_shape{1, 3, 16, 16};
  auto network = QuantizedNetwork::compile(*model, input_shape);

  // Shift-coded classifiers add one quantization point the float model does
  // not have (the global-average-pool output is re-quantized to 8 bits
  // before the integer linear engine, as hardware requires), so agreement
  // is to that quantization step's granularity, not bit-exact.
  const float tolerance = quantizer >= 1 && quantizer <= 3 ? 6e-2F : 2e-3F;
  for (std::int64_t n = 0; n < 8; ++n) {
    const Tensor image = split.test.image(n);
    const Tensor expected = float_logits(*model, image);
    const Tensor actual = network.run(image);
    ASSERT_EQ(actual.numel(), expected.numel());
    for (std::int64_t c = 0; c < actual.numel(); ++c) {
      EXPECT_NEAR(actual[c], expected[c * 1], tolerance)
          << "quantizer " << quantizer << " image " << n << " class " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Quantizers, PipelineAgreement,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(QuantizedNetworkTest, ResNetCompilesAndMatches) {
  const auto split = small_task();
  auto model = trained_model(8, 2, split);  // ResNet-10, LightNN-2
  auto network = QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
  const Tensor image = split.test.image(0);
  const Tensor expected = float_logits(*model, image);
  const Tensor actual = network.run(image);
  for (std::int64_t c = 0; c < actual.numel(); ++c) {
    EXPECT_NEAR(actual[c], expected[c], 3e-2F);
  }
  // Plan contains a residual step.
  EXPECT_NE(network.describe().find("residual"), std::string::npos);
}

TEST(QuantizedNetworkTest, AccuracyMatchesTrainerEvaluate) {
  const auto split = small_task();
  auto model = trained_model(4, 3, split);  // FLightNN
  auto network = QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});

  core::TrainConfig config;
  core::Trainer trainer(*model, config);
  const double float_acc = trainer.evaluate(split.test, 1);
  const double integer_acc = network.evaluate(split.test, 1);
  EXPECT_NEAR(integer_acc, float_acc, 0.05);
}

TEST(QuantizedNetworkTest, ShiftModelsUseNoFloatMacs) {
  const auto split = small_task();
  auto model = trained_model(4, 1, split);  // LightNN-1: everything shifts
  auto network = QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
  NetworkOpCounts counts{};
  (void)network.run(split.test.image(0), &counts);
  EXPECT_EQ(counts.float_macs, 0);
  EXPECT_GT(counts.shifts, 0);
  EXPECT_EQ(counts.images, 1);
}

TEST(QuantizedNetworkTest, FullPrecisionModelUsesOnlyFloatMacs) {
  const auto split = small_task();
  auto model = trained_model(4, 0, split);
  auto network = QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
  NetworkOpCounts counts{};
  (void)network.run(split.test.image(0), &counts);
  EXPECT_GT(counts.float_macs, 0);
  EXPECT_EQ(counts.shifts, 0);
}

TEST(QuantizedNetworkTest, OpCountsScaleWithK) {
  const auto split = small_task();
  auto model1 = trained_model(4, 1, split);
  auto model2 = trained_model(4, 2, split);
  auto net1 = QuantizedNetwork::compile(*model1, Shape{1, 3, 16, 16});
  auto net2 = QuantizedNetwork::compile(*model2, Shape{1, 3, 16, 16});
  NetworkOpCounts c1{}, c2{};
  (void)net1.run(split.test.image(0), &c1);
  (void)net2.run(split.test.image(0), &c2);
  EXPECT_GT(c2.shifts, c1.shifts);
  EXPECT_LE(c2.shifts, 2 * c1.shifts);
}

TEST(QuantizedNetworkTest, DescribeListsPlan) {
  const auto split = small_task();
  auto model = trained_model(4, 2, split);
  auto network = QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
  const std::string plan = network.describe();
  EXPECT_NE(plan.find("quant(8b)"), std::string::npos);
  EXPECT_NE(plan.find("shift_conv"), std::string::npos);
  EXPECT_NE(plan.find("affine"), std::string::npos);
  EXPECT_NE(plan.find("shift_linear"), std::string::npos);
  // Each conv absorbs its quant, pool, folded batch norm and leaky ReLU:
  // four fused convs, then the trailing quant, gap and linear head.
  EXPECT_NE(plan.find("(quant(8b)+maxpool+affine+leaky_relu)"),
            std::string::npos);
  EXPECT_EQ(network.step_count(), 7u);
}

TEST(QuantizedNetworkTest, RejectsBadInputs) {
  const auto split = small_task();
  auto model = trained_model(4, 2, split);
  EXPECT_THROW(
      (void)QuantizedNetwork::compile(*model, Shape{3, 16, 16}),
      std::invalid_argument);
  auto network = QuantizedNetwork::compile(*model, Shape{1, 3, 16, 16});
  EXPECT_THROW((void)network.run(Tensor(Shape{2, 3, 16, 16})),
               std::invalid_argument);
}

TEST(QuantizedNetworkTest, ShiftLinearMatchesFloatLinear) {
  support::Rng rng(9);
  const quant::Pow2Config config;
  Tensor w = Tensor::randn(Shape{5, 12}, rng, 0.0F, 0.3F);
  Tensor wq = quant::quantize_lightnn(w, 2, config);
  Tensor bias = Tensor::randn(Shape{5}, rng);
  Tensor x = Tensor::randn(Shape{12}, rng);
  const auto qx = quantize_tensor(x, 8);

  ShiftLinear engine(wq, 2, config, bias);
  Tensor out = engine.run(qx);
  // Reference: float dot products on the dequantized operands.
  Tensor deq = dequantize(qx);
  for (std::int64_t o = 0; o < 5; ++o) {
    double acc = bias[o];
    for (std::int64_t e = 0; e < 12; ++e) acc += static_cast<double>(wq[o * 12 + e]) * deq[e];
    EXPECT_NEAR(out[o], static_cast<float>(acc), 1e-5F);
  }
}

}  // namespace
}  // namespace flightnn::inference
