#pragma once
// Tensor: dense row-major float32 array with value semantics.
//
// tbnet trains small CNNs on CPU; a single dtype (float) and owning
// std::vector storage keep the type simple, copyable (used heavily by the
// pruning snapshot / rollback machinery) and free of aliasing bugs. All
// heavy math lives in free functions (gemm.h, im2col.h, ops.h).

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/rng.h"
#include "tensor/shape.h"

namespace tbnet {

/// Dense row-major float tensor. Copying copies the data (value semantics).
class Tensor {
 public:
  Tensor() = default;

  /// Zero-initialized tensor of the given shape.
  explicit Tensor(Shape shape)
      : shape_(std::move(shape)),
        data_(static_cast<size_t>(shape_.numel()), 0.0f) {}

  Tensor(Shape shape, std::vector<float> data);

  /// ---- factories -------------------------------------------------------
  static Tensor zeros(const Shape& shape) { return Tensor(shape); }
  static Tensor full(const Shape& shape, float value);
  static Tensor ones(const Shape& shape) { return full(shape, 1.0f); }
  /// i.i.d. N(mean, stddev^2) entries.
  static Tensor randn(const Shape& shape, Rng& rng, float mean = 0.0f,
                      float stddev = 1.0f);
  /// 1-D tensor from explicit values.
  static Tensor from(std::vector<float> values);

  /// ---- structure -------------------------------------------------------
  const Shape& shape() const { return shape_; }
  int64_t numel() const { return static_cast<int64_t>(data_.size()); }
  int64_t dim(int i) const { return shape_.dim(i); }
  bool empty() const { return data_.empty(); }

  /// Reinterpret as a different shape with the same element count.
  Tensor reshaped(const Shape& shape) const;

  /// ---- element access ---------------------------------------------------
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> flat() { return std::span<float>(data_); }
  std::span<const float> flat() const { return std::span<const float>(data_); }

  float& operator[](int64_t i) { return data_[static_cast<size_t>(i)]; }
  float operator[](int64_t i) const { return data_[static_cast<size_t>(i)]; }

  /// Multi-index access (rank must match; debug-checked).
  float& at(std::initializer_list<int64_t> idx);
  float at(std::initializer_list<int64_t> idx) const;

  /// ---- in-place helpers --------------------------------------------------
  void fill(float value);
  void zero() { fill(0.0f); }
  /// this += other (shapes must match).
  void add_(const Tensor& other);
  /// this += alpha * other.
  void axpy_(float alpha, const Tensor& other);
  /// this *= alpha.
  void scale_(float alpha);

  /// ---- reductions --------------------------------------------------------
  float sum() const;
  float mean() const;
  float min() const;
  float max() const;
  /// Sum of absolute values.
  float abs_sum() const;
  /// Index of the maximum element (first on ties).
  int64_t argmax() const;

 private:
  int64_t flat_index(std::initializer_list<int64_t> idx) const;

  Shape shape_;
  std::vector<float> data_;
};

/// True iff same shape and all |a-b| <= atol + rtol*|b|.
bool allclose(const Tensor& a, const Tensor& b, float rtol = 1e-5f,
              float atol = 1e-6f);

}  // namespace tbnet
