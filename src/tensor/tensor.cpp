#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace tbnet {

Tensor::Tensor(Shape shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  if (static_cast<int64_t>(data_.size()) != shape_.numel()) {
    throw std::invalid_argument("Tensor: data size " +
                                std::to_string(data_.size()) +
                                " does not match shape " + shape_.str());
  }
}

Tensor Tensor::full(const Shape& shape, float value) {
  Tensor t(shape);
  t.fill(value);
  return t;
}

Tensor Tensor::randn(const Shape& shape, Rng& rng, float mean, float stddev) {
  Tensor t(shape);
  for (float& x : t.data_) x = static_cast<float>(rng.normal(mean, stddev));
  return t;
}

Tensor Tensor::from(std::vector<float> values) {
  const int64_t n = static_cast<int64_t>(values.size());
  return Tensor(Shape{n}, std::move(values));
}

Tensor Tensor::reshaped(const Shape& shape) const {
  if (shape.numel() != numel()) {
    throw std::invalid_argument("Tensor::reshaped: cannot view " +
                                shape_.str() + " as " + shape.str());
  }
  return Tensor(shape, data_);
}

int64_t Tensor::flat_index(std::initializer_list<int64_t> idx) const {
  if (static_cast<int>(idx.size()) != shape_.ndim()) {
    throw std::invalid_argument("Tensor::at: rank mismatch");
  }
  int64_t flat = 0;
  int i = 0;
  for (int64_t v : idx) {
    const int64_t extent = shape_.dim(i);
    if (v < 0 || v >= extent) {
      throw std::out_of_range("Tensor::at: index out of range in dim " +
                              std::to_string(i));
    }
    flat = flat * extent + v;
    ++i;
  }
  return flat;
}

float& Tensor::at(std::initializer_list<int64_t> idx) {
  return data_[static_cast<size_t>(flat_index(idx))];
}

float Tensor::at(std::initializer_list<int64_t> idx) const {
  return data_[static_cast<size_t>(flat_index(idx))];
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::add_(const Tensor& other) { axpy_(1.0f, other); }

void Tensor::axpy_(float alpha, const Tensor& other) {
  if (other.shape_ != shape_) {
    throw std::invalid_argument("Tensor::axpy_: shape mismatch " +
                                shape_.str() + " vs " + other.shape_.str());
  }
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += alpha * other.data_[i];
}

void Tensor::scale_(float alpha) {
  for (float& x : data_) x *= alpha;
}

float Tensor::sum() const {
  double s = 0.0;
  for (float x : data_) s += x;
  return static_cast<float>(s);
}

float Tensor::mean() const {
  return data_.empty() ? 0.0f : sum() / static_cast<float>(data_.size());
}

float Tensor::min() const {
  float m = std::numeric_limits<float>::infinity();
  for (float x : data_) m = std::min(m, x);
  return m;
}

float Tensor::max() const {
  float m = -std::numeric_limits<float>::infinity();
  for (float x : data_) m = std::max(m, x);
  return m;
}

float Tensor::abs_sum() const {
  double s = 0.0;
  for (float x : data_) s += std::fabs(x);
  return static_cast<float>(s);
}

int64_t Tensor::argmax() const {
  if (data_.empty()) throw std::logic_error("Tensor::argmax on empty tensor");
  return static_cast<int64_t>(
      std::max_element(data_.begin(), data_.end()) - data_.begin());
}

bool allclose(const Tensor& a, const Tensor& b, float rtol, float atol) {
  if (a.shape() != b.shape()) return false;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float diff = std::fabs(a[i] - b[i]);
    if (diff > atol + rtol * std::fabs(b[i])) return false;
  }
  return true;
}

}  // namespace tbnet
