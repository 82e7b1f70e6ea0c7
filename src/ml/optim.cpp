#include "ml/optim.hpp"

#include <cmath>
#include <stdexcept>

namespace mfw::ml {

Adam::Adam(std::vector<Param*> params, float lr, float beta1, float beta2,
           float eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2),
      eps_(eps) {
  if (lr <= 0) throw std::invalid_argument("Adam: lr must be > 0");
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Param* p : params_) {
    m_.push_back(Tensor::zeros(p->value.shape()));
    v_.push_back(Tensor::zeros(p->value.shape()));
  }
}

void Adam::step(std::size_t batch_size) {
  ++t_;
  const float scale = 1.0f / static_cast<float>(batch_size == 0 ? 1 : batch_size);
  const float bc1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  for (std::size_t i = 0; i < params_.size(); ++i) {
    Param* p = params_[i];
    for (std::size_t j = 0; j < p->value.size(); ++j) {
      const float g = p->grad[j] * scale;
      m_[i][j] = beta1_ * m_[i][j] + (1.0f - beta1_) * g;
      v_[i][j] = beta2_ * v_[i][j] + (1.0f - beta2_) * g * g;
      const float mhat = m_[i][j] / bc1;
      const float vhat = v_[i][j] / bc2;
      p->value[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
    p->grad.zero();
  }
}

}  // namespace mfw::ml
