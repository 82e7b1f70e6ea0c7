// Unit tests for the tensor/layer substrate, including finite-difference
// gradient checks for every trainable layer.
#include <gtest/gtest.h>

#include <cmath>

#include "ml/layers.hpp"
#include "ml/loss.hpp"
#include "ml/tensor.hpp"

namespace mfw::ml {
namespace {

TEST(Tensor, ConstructionAndIndexing) {
  Tensor t({2, 3});
  EXPECT_EQ(t.size(), 6u);
  Tensor u({2, 2, 2});
  u.at3(1, 0, 1) = 3.0f;
  EXPECT_FLOAT_EQ(u[5], 3.0f);
}

TEST(Tensor, ShapeValidation) {
  EXPECT_THROW(Tensor({0, 3}), std::invalid_argument);
  EXPECT_THROW(Tensor({2}, {1.0f}), std::invalid_argument);
  Tensor t({4});
  EXPECT_THROW(t.reshaped({3}), std::invalid_argument);
  EXPECT_NO_THROW(t.reshaped({2, 2}));
}

TEST(Tensor, ScaleAndNorm) {
  Tensor a({3}, {1, 2, 2});
  a *= 2.0f;
  EXPECT_FLOAT_EQ(a[2], 4.0f);
  EXPECT_FLOAT_EQ(Tensor({2}, {3, 4}).norm(), 5.0f);
}

TEST(Tensor, Rotate90Correctness) {
  // 1x2x2 tile: [[1,2],[3,4]].
  Tensor t({1, 2, 2}, {1, 2, 3, 4});
  const Tensor r1 = rotate90(t, 1);  // CCW: [[2,4],[1,3]]
  EXPECT_FLOAT_EQ(r1.at3(0, 0, 0), 2);
  EXPECT_FLOAT_EQ(r1.at3(0, 0, 1), 4);
  EXPECT_FLOAT_EQ(r1.at3(0, 1, 0), 1);
  EXPECT_FLOAT_EQ(r1.at3(0, 1, 1), 3);
  const Tensor r2 = rotate90(t, 2);
  EXPECT_FLOAT_EQ(r2.at3(0, 0, 0), 4);
  const Tensor r4 = rotate90(rotate90(t, 3), 1);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_FLOAT_EQ(r4[i], t[i]);
  const Tensor r0 = rotate90(t, 0);
  EXPECT_FLOAT_EQ(r0[0], t[0]);
  EXPECT_THROW(rotate90(Tensor({1, 2, 3}), 1), std::invalid_argument);
}

TEST(Tensor, MseAndDistance) {
  Tensor a({2}, {1, 2});
  Tensor b({2}, {3, 2});
  EXPECT_FLOAT_EQ(mse(a, b), 2.0f);
  EXPECT_FLOAT_EQ(squared_distance(a.span(), b.span()), 4.0f);
  EXPECT_THROW(mse(a, Tensor({3})), std::invalid_argument);
}

// Finite-difference gradient verification for a layer under MSE loss.
void check_gradients(Layer& layer, const Tensor& input, double tol = 2e-2) {
  Tensor out = layer.forward(input);
  Tensor target = out;
  for (std::size_t i = 0; i < target.size(); ++i)
    target[i] += 0.1f * static_cast<float>((i % 5)) - 0.2f;

  auto loss_at = [&](const Tensor& x) {
    Tensor y = layer.forward(x);
    return mse(y, target);
  };

  // Analytic input gradient.
  const LossGrad lg = mse_loss(out, target);
  for (Param* p : layer.params()) p->grad.zero();
  const Tensor grad_in = layer.backward(lg.grad);

  const float eps = 1e-3f;
  // Input gradient, sampled entries.
  for (std::size_t i = 0; i < input.size(); i += std::max<std::size_t>(1, input.size() / 13)) {
    Tensor plus = input, minus = input;
    plus[i] += eps;
    minus[i] -= eps;
    const double numeric = (loss_at(plus) - loss_at(minus)) / (2 * eps);
    ASSERT_NEAR(grad_in[i], numeric, tol) << "input grad at " << i;
  }
  // Parameter gradients, sampled entries. Re-establish the forward/backward
  // caches for the unperturbed input first.
  (void)layer.forward(input);
  for (Param* p : layer.params()) p->grad.zero();
  (void)layer.backward(lg.grad);
  for (Param* p : layer.params()) {
    for (std::size_t i = 0; i < p->value.size();
         i += std::max<std::size_t>(1, p->value.size() / 11)) {
      const float saved = p->value[i];
      p->value[i] = saved + eps;
      const double lp = loss_at(input);
      p->value[i] = saved - eps;
      const double lm = loss_at(input);
      p->value[i] = saved;
      const double numeric = (lp - lm) / (2 * eps);
      ASSERT_NEAR(p->grad[i], numeric, tol)
          << p->name << " grad at " << i;
    }
  }
}

TEST(Layers, DenseGradientsMatchFiniteDifference) {
  util::Rng rng(3);
  Dense dense(6, 4, rng);
  Tensor input({6});
  for (std::size_t i = 0; i < 6; ++i) input[i] = static_cast<float>(rng.normal());
  check_gradients(dense, input);
}

TEST(Layers, Conv2dGradientsMatchFiniteDifference) {
  util::Rng rng(4);
  Conv2d conv(2, 3, 3, 1, 1, rng);
  Tensor input({2, 6, 6});
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<float>(rng.normal());
  check_gradients(conv, input);
}

TEST(Layers, Conv2dStridedShape) {
  util::Rng rng(5);
  Conv2d conv(1, 2, 3, 2, 1, rng);
  Tensor input({1, 8, 8});
  const Tensor out = conv.forward(input);
  EXPECT_EQ(out.shape(), (std::vector<int>{2, 4, 4}));
  EXPECT_EQ(conv.backward(Tensor(out.shape())).shape(), input.shape());
}

TEST(Layers, ActivationGradients) {
  util::Rng rng(6);
  Tensor input({10});
  for (std::size_t i = 0; i < 10; ++i) input[i] = static_cast<float>(rng.normal());
  LeakyReLU leaky(0.1f);
  check_gradients(leaky, input);
}

TEST(Layers, MaxPoolSelectsMaxAndRoutesGradient) {
  MaxPool2x2 pool;
  Tensor input({1, 2, 2}, {1, 5, 2, 3});
  const Tensor out = pool.forward(input);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_FLOAT_EQ(out[0], 5.0f);
  Tensor grad({1, 1, 1}, {2.0f});
  const Tensor gin = pool.backward(grad);
  EXPECT_FLOAT_EQ(gin[1], 2.0f);  // only the argmax receives gradient
  EXPECT_FLOAT_EQ(gin[0], 0.0f);
  EXPECT_THROW(pool.forward(Tensor({1, 3, 3})), std::invalid_argument);
}

TEST(Layers, UpsampleInvertsPoolShapes) {
  UpsampleNearest2x up;
  Tensor input({2, 3, 3});
  input.fill(1.0f);
  const Tensor out = up.forward(input);
  EXPECT_EQ(out.shape(), (std::vector<int>{2, 6, 6}));
  Tensor ones({2, 6, 6});
  ones.fill(1.0f);
  const Tensor gin = up.backward(ones);
  // Each input pixel gathers gradient from its 4 copies.
  EXPECT_FLOAT_EQ(gin[0], 4.0f);
}

TEST(Layers, SequentialComposesAndCountsParams) {
  util::Rng rng(7);
  Sequential net;
  net.emplace<Conv2d>(1, 2, 3, 1, 1, rng);
  net.emplace<LeakyReLU>();
  net.emplace<MaxPool2x2>();
  net.emplace<Flatten>();
  net.emplace<Dense>(2 * 2 * 2, 3, rng);
  Tensor input({1, 4, 4});
  for (std::size_t i = 0; i < input.size(); ++i)
    input[i] = static_cast<float>(rng.normal());
  const Tensor out = net.forward(input);
  EXPECT_EQ(out.shape(), (std::vector<int>{3}));
  Tensor ones({3});
  ones.fill(1.0f);
  const Tensor gin = net.backward(ones);
  EXPECT_EQ(gin.shape(), input.shape());
  // conv: 2*1*3*3 + 2, dense: 3*8 + 3.
  EXPECT_EQ(net.param_count(), 18u + 2u + 24u + 3u);
}

TEST(Layers, HeInitHasSensibleScale) {
  util::Rng rng(8);
  const Tensor w = Tensor::he_normal({64, 32}, rng);
  double sum = 0, sum2 = 0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    sum += w[i];
    sum2 += static_cast<double>(w[i]) * w[i];
  }
  const double mean = sum / static_cast<double>(w.size());
  const double var = sum2 / static_cast<double>(w.size()) - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 2.0 / 32.0, 0.02);
}

}  // namespace
}  // namespace mfw::ml
