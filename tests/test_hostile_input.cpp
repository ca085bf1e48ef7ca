// Hostile bytes. In TBNet the REE is the attacker, so every byte a TA image
// or a TA command carries is untrusted, and CRC32C frames are no MAC: the
// REE can frame any record with valid checksums. Each crafted model stream
// below must throw std::runtime_error (or a subclass) from every loader
// entry point it reaches — nn::load_model, make_tbnet_ta, or load_two_branch
// — and no allocation made while parsing it may be larger than the stream.
// The v4 byte layout is pinned against a stream built by hand, and a seeded
// mutation sweep holds every entry point (the loaders, kCmdRun and
// kCmdSetWidth) to the same contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/two_branch.h"
#include "models/model_zoo.h"
#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/fuse.h"
#include "nn/pool.h"
#include "nn/quant.h"
#include "nn/residual.h"
#include "nn/sequential.h"
#include "nn/serialize.h"
#include "runtime/deployed.h"
#include "tensor/crc32c.h"
#include "tensor/ops.h"

namespace {

// Largest single operator-new request the code under test may make; 0 is
// no limit. A larger request throws std::bad_alloc at once, so a loader that
// sizes a buffer from a forged count fails the test here instead of
// allocating (and zero-filling) gigabytes.
thread_local size_t g_alloc_cap = 0;

// While set, the largest single request and the running total of requests
// seen on any thread: the TA's kernels shard onto the pool's workers.
std::atomic<bool> g_track_requests{false};
std::atomic<size_t> g_largest_request{0};
std::atomic<size_t> g_total_requested{0};

void check_request(size_t n) {
  if (g_alloc_cap != 0 && n > g_alloc_cap) throw std::bad_alloc();
  if (g_track_requests.load(std::memory_order_relaxed)) {
    g_total_requested.fetch_add(n, std::memory_order_relaxed);
    size_t seen = g_largest_request.load(std::memory_order_relaxed);
    while (n > seen && !g_largest_request.compare_exchange_weak(
                           seen, n, std::memory_order_relaxed)) {
    }
  }
}

}  // namespace

// Plain and over-aligned forms both go through check_request: the
// execution context's arena takes its blocks over-aligned.
void* operator new(std::size_t n) {
  check_request(n);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t al) {
  check_request(n);
  const auto align = static_cast<size_t>(al);
  const size_t bytes = (std::max<size_t>(n, 1) + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, bytes)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void* operator new(std::size_t n, std::align_val_t al,
                   const std::nothrow_t&) noexcept {
  try {
    return ::operator new(n, al);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t n, std::align_val_t al,
                     const std::nothrow_t& tag) noexcept {
  return ::operator new(n, al, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace tbnet {
namespace {

// Byte writers mirroring nn/serialize.cpp.
void put_u32(std::string& s, uint32_t v) {
  s.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_i64(std::string& s, int64_t v) {
  s.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_f32(std::string& s, float v) {
  s.append(reinterpret_cast<const char*>(&v), sizeof(v));
}
void put_string(std::string& s, const std::string& v) {
  put_u32(s, static_cast<uint32_t>(v.size()));
  s.append(v);
}
void put_dims(std::string& s, const std::vector<int64_t>& dims) {
  put_u32(s, static_cast<uint32_t>(dims.size()));
  for (int64_t d : dims) put_i64(s, d);
}

/// t[i] = base + i / 4: distinct, exactly representable weights.
Tensor filled(Tensor t, float base) {
  for (int64_t i = 0; i < t.numel(); ++i) {
    t[i] = base + static_cast<float>(i) * 0.25f;
  }
  return t;
}

void put_tensor(std::string& s, const Tensor& t) {
  put_dims(s, t.shape().dims());
  s.append(reinterpret_cast<const char*>(t.data()),
           static_cast<size_t>(t.numel()) * sizeof(float));
}

std::vector<uint8_t> to_vector(const std::string& s) {
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::span<const uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const uint8_t*>(s.data()), s.size()};
}

/// One v4 layer section with a valid checksum.
std::string framed(const std::string& body) {
  std::string s;
  put_u32(s, crc32c(body.data(), body.size()));
  put_i64(s, static_cast<int64_t>(body.size()));
  return s + body;
}

/// A v4 model stream: checksummed header, then `root` (a section).
std::string model_stream(const std::string& root) {
  std::string s("TBNM", 4);
  put_u32(s, nn::kModelFormatVersion);
  put_u32(s, crc32c(s.data(), s.size()));
  return s + root;
}

/// A one-stage, secure-only TA image around one model stream.
std::vector<uint8_t> ta_image(const std::string& blob) {
  std::string s;
  put_i64(s, 1);  // stages
  put_i64(s, 0);  // channel map length
  put_i64(s, 0);  // fused flag
  put_i64(s, static_cast<int64_t>(blob.size()));
  return to_vector(s + blob);
}

/// The framed section nn::save_layer writes for `layer`.
std::string saved(const nn::Layer& layer) {
  std::vector<uint8_t> bytes;
  nn::save_layer(bytes, layer);
  return std::string(bytes.begin(), bytes.end());
}

std::string conv_body(int64_t in_c, int64_t out_c, int64_t kernel,
                      int64_t stride, int64_t pad) {
  std::string s;
  put_string(s, "Conv2d");
  for (int64_t v : {in_c, out_c, kernel, stride, pad}) put_i64(s, v);
  put_u32(s, 0);  // bias
  put_u32(s, 0);  // quantized
  return s;
}

std::string bn_head(int64_t channels) {
  std::string s;
  put_string(s, "BatchNorm2d");
  put_i64(s, channels);
  put_f32(s, 1e-5f);
  put_f32(s, 0.1f);
  return s;
}

std::string residual_head(int64_t in_c, int64_t out_c, int64_t stride,
                          int64_t internal) {
  std::string s;
  put_string(s, "ResidualBlock");
  for (int64_t v : {in_c, out_c, stride, internal}) put_i64(s, v);
  return s;
}

/// Caps operator new at `input_bytes` for its lifetime. Error messages and
/// stream buffers take a few hundred bytes whatever the input, so the cap
/// never falls below one page.
class AllocCap {
 public:
  explicit AllocCap(size_t input_bytes) {
    g_alloc_cap = std::max<size_t>(input_bytes, 4096);
  }
  ~AllocCap() { g_alloc_cap = 0; }
  AllocCap(const AllocCap&) = delete;
  AllocCap& operator=(const AllocCap&) = delete;
};

/// Runs `load` under an AllocCap of the input's size and expects
/// std::runtime_error; anything else (no throw, std::bad_alloc from the cap,
/// std::length_error, ...) fails the case.
template <typename Load>
void expect_rejected(const std::string& what, size_t input_bytes, Load load) {
  std::string error = "no exception";
  try {
    AllocCap cap(input_bytes);
    load();
  } catch (const std::runtime_error&) {
    return;
  } catch (const std::exception& e) {
    error = std::string(typeid(e).name()) + ": " + e.what();
  }
  ADD_FAILURE() << what << ": " << error;
}

/// What `call` asked of operator new: its largest single request and the
/// sum of all of them.
struct Allocations {
  size_t largest = 0;
  size_t total = 0;
};

template <typename Call>
Allocations allocations_of(Call call) {
  g_largest_request = 0;
  g_total_requested = 0;
  g_track_requests = true;
  call();
  g_track_requests = false;
  return {g_largest_request, g_total_requested};
}

struct HostileStream {
  std::string name;
  std::string bytes;
  bool two_branch = false;  ///< a load_two_branch stream, not a model
};

std::vector<HostileStream> hostile_streams() {
  std::vector<HostileStream> cases;
  {
    // Section length 2^33 - 1 in a 36-byte stream.
    std::string root;
    put_u32(root, 0);
    put_i64(root, (int64_t{1} << 33) - 1);
    root.append(12, '\0');
    cases.push_back({"section length 2^33-1", model_stream(root)});
  }
  cases.push_back({"Conv2d 65536x65536x3x3",
                   model_stream(framed(conv_body(65536, 65536, 3, 1, 1)))});
  {
    // A well-formed section of a kind this library no longer writes: two
    // channels, 3x3 taps, stride 2, pad 1, with a bias.
    std::string s;
    put_string(s, "DepthwiseConv2d");
    for (int64_t v : {int64_t{2}, int64_t{3}, int64_t{2}, int64_t{1}}) {
      put_i64(s, v);
    }
    put_u32(s, 1);  // bias
    put_tensor(s, filled(Tensor(Shape{2, 3, 3}), 1.5f));
    put_tensor(s, filled(Tensor(Shape{2}), 2.0f));
    cases.push_back({"retired kind DepthwiseConv2d", model_stream(framed(s))});
  }
  {
    std::string s;
    put_string(s, "Dense");
    put_i64(s, int64_t{1} << 20);
    put_i64(s, int64_t{1} << 20);
    put_u32(s, 0);  // bias
    put_u32(s, 0);  // quantized
    cases.push_back({"Dense 2^20x2^20", model_stream(framed(s))});
  }
  cases.push_back({"BatchNorm2d 2^40 channels",
                   model_stream(framed(bn_head(int64_t{1} << 40)))});
  {
    // Per-dim check passes, the element count overflows int64.
    std::string s = bn_head(1);
    put_dims(s, {int64_t{1} << 32, int64_t{1} << 31});
    cases.push_back({"tensor dims 2^32 x 2^31", model_stream(framed(s))});
  }
  {
    std::string s = bn_head(2);
    for (int t = 0; t < 4; ++t) {
      const int64_t n = t == 1 ? 1 : 2;  // beta one element short
      put_dims(s, {n});
      for (int64_t i = 0; i < n; ++i) put_f32(s, 1.0f);
    }
    cases.push_back({"BatchNorm2d beta shorter than its channels",
                     model_stream(framed(s))});
  }
  cases.push_back({"ResidualBlock 2^20 wide",
                   model_stream(framed(residual_head(
                       int64_t{1} << 20, int64_t{1} << 20, 1,
                       int64_t{1} << 20)))});
  {
    // conv1 must be [internal=1, in=2, 3, 3]; this one is [2, 2, 3, 3].
    Rng rng(1);
    nn::Conv2d wide(2, 2, {.kernel = 3, .stride = 1, .pad = 1, .bias = false},
                    rng);
    const std::string body = residual_head(2, 2, 1, 1) + saved(wide) +
                             saved(nn::BatchNorm2d(1)) + saved(wide) +
                             saved(nn::BatchNorm2d(2));
    cases.push_back({"ResidualBlock child wider than the block",
                     model_stream(framed(body))});
  }
  {
    // Members the block would ignore: a conv1 that declares a bias, and a
    // stride-2 conv1 inside a stride-1 block. Each has the shape the header
    // asks for, so a loader that copied only the child's weights into a
    // block built from the header would drop the field silently.
    Rng rng(2);
    const nn::Conv2d plain(
        2, 2, {.kernel = 3, .stride = 1, .pad = 1, .bias = false}, rng);
    const nn::Conv2d biased(
        2, 2, {.kernel = 3, .stride = 1, .pad = 1, .bias = true}, rng);
    const nn::Conv2d strided(
        2, 2, {.kernel = 3, .stride = 2, .pad = 1, .bias = false}, rng);
    const std::string bns = saved(nn::BatchNorm2d(2));
    cases.push_back({"ResidualBlock conv1 with a bias",
                     model_stream(framed(residual_head(2, 2, 1, 2) +
                                         saved(biased) + bns + saved(plain) +
                                         bns))});
    cases.push_back({"ResidualBlock stride-2 conv1 in a stride-1 block",
                     model_stream(framed(residual_head(2, 2, 1, 2) +
                                         saved(strided) + bns + saved(plain) +
                                         bns))});
  }
  {
    std::string s = conv_body(1, 1, 1, 0, 0);  // stride 0
    put_dims(s, {1, 1, 1, 1});
    put_f32(s, 1.0f);
    cases.push_back({"Conv2d stride 0", model_stream(framed(s))});
  }
  {
    std::string s;
    put_string(s, "Dropout");  // a kind this library no longer writes
    put_f32(s, 0.5f);
    put_i64(s, 7);
    cases.push_back({"retired kind Dropout", model_stream(framed(s))});
  }
  {
    // Format v1: no header checksum, no section framing.
    std::string s("TBNM", 4);
    put_u32(s, 1);
    put_string(s, "ReLU");
    cases.push_back({"format v1", s});
  }
  {
    // A future version with a valid header checksum, then a ReLU.
    std::string s("TBNM", 4);
    put_u32(s, nn::kModelFormatVersion + 1);
    put_u32(s, crc32c(s.data(), s.size()));
    std::string relu;
    put_string(relu, "ReLU");
    cases.push_back({"future format version", s + framed(relu)});
  }
  {
    // The unversioned two-branch layout: the stage count comes first, then
    // unframed v1 records.
    std::string s;
    put_i64(s, 1);  // stages
    put_i64(s, 0);  // channel map length
    put_i64(s, 1);  // fused flag
    put_string(s, "ReLU");
    put_string(s, "ReLU");
    cases.push_back({"unversioned two-branch layout", s, true});
  }
  return cases;
}

TEST(HostileStreams, EveryLoaderRejectsWithoutLargeAllocations) {
  for (const HostileStream& c : hostile_streams()) {
    ByteReader r(as_bytes(c.bytes));
    if (c.two_branch) {
      expect_rejected(c.name + " (load_two_branch)", c.bytes.size(),
                      [&] { core::load_two_branch(r); });
      continue;
    }
    expect_rejected(c.name + " (load_model)", c.bytes.size(),
                    [&] { nn::load_model(r); });
    const std::vector<uint8_t> image = ta_image(c.bytes);
    expect_rejected(c.name + " (make_tbnet_ta)", image.size(),
                    [&] { runtime::make_tbnet_ta(image); });
  }
}


// ------------------------------------------------------------ v4 layout --

/// A Conv2d section: `config` is {in, out, kernel, stride, pad}; then the
/// bias and quantized flags, the int8 payload or the f32 weight, the bias.
std::string conv_section(std::initializer_list<int64_t> config,
                         const nn::Conv2d& c) {
  std::string s;
  put_string(s, "Conv2d");
  for (int64_t v : config) put_i64(s, v);
  put_u32(s, c.has_bias() ? 1 : 0);
  put_u32(s, c.quantized() ? 1 : 0);
  if (c.quantized()) {
    const nn::QuantizedWeights& qw = c.quant();
    put_i64(s, static_cast<int64_t>(qw.scale.size()));
    put_i64(s, static_cast<int64_t>(qw.q.size() / qw.scale.size()));
    for (float v : qw.scale) put_f32(s, v);
    put_f32(s, qw.act.scale);
    put_i64(s, qw.act.zero_point);
    s.append(reinterpret_cast<const char*>(qw.q.data()), qw.q.size());
  } else {
    put_tensor(s, c.weight());
  }
  if (c.has_bias()) put_tensor(s, const_cast<nn::Conv2d&>(c).bias());
  return framed(s);
}

std::string bn_section(const nn::BatchNorm2d& bn) {
  std::string s;
  put_string(s, "BatchNorm2d");
  put_i64(s, bn.channels());
  put_f32(s, bn.eps());
  put_f32(s, bn.momentum());
  for (const Tensor* t : {&bn.gamma(), &bn.beta(), &bn.running_mean(),
                          &bn.running_var()}) {
    put_tensor(s, *t);
  }
  return framed(s);
}

std::string kind_section(const std::string& kind) {
  std::string s;
  put_string(s, kind);
  return framed(s);
}

void fill_bn(nn::BatchNorm2d& bn, float base) {
  bn.gamma() = filled(bn.gamma(), base);
  bn.beta() = filled(bn.beta(), base - 1.0f);
  bn.running_mean() = filled(bn.running_mean(), base + 1.0f);
  bn.running_var() = filled(bn.running_var(), base + 2.0f);
}

TEST(ModelFormat, V4BytesArePinned) {
  // One model through every writer path, weights set explicitly, against
  // the same stream built by hand from the format's definition.
  Rng rng(5);
  auto conv = std::make_unique<nn::Conv2d>(
      2, 3,
      nn::Conv2d::Options{.kernel = 3, .stride = 1, .pad = 1, .bias = true},
      rng);
  conv->weight() = filled(conv->weight(), 0.5f);
  conv->bias() = filled(conv->bias(), -1.0f);
  auto qconv = std::make_unique<nn::Conv2d>(
      3, 2,
      nn::Conv2d::Options{.kernel = 1, .stride = 1, .pad = 0, .bias = false},
      rng);
  nn::QuantizedWeights qw;
  qw.q = {1, -2, 3, -4, 5, -6};
  qw.scale = {0.5f, 0.25f};
  qw.qsum = {2, -5};
  qw.act = {.scale = 0.125f, .zero_point = 3};
  qconv->set_quantized(qw);
  auto bn = std::make_unique<nn::BatchNorm2d>(2, 1e-3f, 0.25f);
  fill_bn(*bn, 3.0f);
  auto block = std::make_unique<nn::ResidualBlock>(2, 4, 2, rng, 3);
  ASSERT_TRUE(block->has_downsample());
  block->conv1().weight() = filled(block->conv1().weight(), -2.0f);
  block->conv2().weight() = filled(block->conv2().weight(), -3.0f);
  block->down_conv().weight() = filled(block->down_conv().weight(), -4.0f);
  fill_bn(block->bn1(), 4.0f);
  fill_bn(block->bn2(), 5.0f);
  fill_bn(block->down_bn(), 6.0f);
  auto dense = std::make_unique<nn::Dense>(4, 3, rng, true);
  dense->weight() = filled(dense->weight(), 7.0f);
  dense->bias() = filled(dense->bias(), 8.0f);

  // The hand-built stream, taken before the layers move into the model.
  std::string seq;
  put_string(seq, "Sequential");
  put_u32(seq, 9);
  seq += conv_section({2, 3, 3, 1, 1}, *conv) +
         conv_section({3, 2, 1, 1, 0}, *qconv) + bn_section(*bn) +
         kind_section("ReLU");
  {
    std::string s;
    put_string(s, "MaxPool2d");
    put_i64(s, 2);
    put_i64(s, 2);
    seq += framed(s);
  }
  {
    std::string s = residual_head(2, 4, 2, 3);
    s += conv_section({2, 3, 3, 2, 1}, block->conv1()) +
         bn_section(block->bn1()) +
         conv_section({3, 4, 3, 1, 1}, block->conv2()) +
         bn_section(block->bn2()) +
         conv_section({2, 4, 1, 2, 0}, block->down_conv()) +
         bn_section(block->down_bn());
    seq += framed(s);
  }
  seq += kind_section("GlobalAvgPool2d") + kind_section("Flatten");
  {
    std::string s;
    put_string(s, "Dense");
    put_i64(s, 4);
    put_i64(s, 3);
    put_u32(s, 1);  // bias
    put_u32(s, 0);  // quantized
    put_tensor(s, dense->weight());
    put_tensor(s, dense->bias());
    seq += framed(s);
  }
  const std::string want = model_stream(framed(seq));

  nn::Sequential model;
  model.add(std::move(conv)).add(std::move(qconv)).add(std::move(bn));
  model.emplace<nn::ReLU>().emplace<nn::MaxPool2d>(2, 2);
  model.add(std::move(block)).emplace<nn::GlobalAvgPool2d>();
  model.emplace<nn::Flatten>().add(std::move(dense));
  std::vector<uint8_t> got;
  nn::save_model(got, model);
  EXPECT_EQ(std::string(got.begin(), got.end()), want);
}

// ------------------------------------------------------ TA fusion gather --

/// Runs `call` under an AllocCap of `input_bytes` and returns its TEE
/// status; an exception fails the case with its type.
template <typename Call>
uint32_t status_of(const std::string& what, size_t input_bytes, Call call) {
  try {
    AllocCap cap(input_bytes);
    return call();
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": " << typeid(e).name() << ": " << e.what();
  }
  return tee::kTeeSuccess;
}

TEST(HostileRecords, FusionGatherIsBoundedByTheStageOutput) {
  // One fused stage: a 1x1 conv from one channel to one, with a
  // 20,000-entry channel map. Every entry names channel 0 of R_0's output,
  // so each index is valid; the map's length is the lie. Gathered before
  // any check, it would take 20,000 x 64 x 64 floats (328 MB).
  Rng rng(21);
  const nn::Conv2d conv(
      1, 1,
      nn::Conv2d::Options{.kernel = 1, .stride = 1, .pad = 0, .bias = false},
      rng);
  std::vector<uint8_t> blob;
  nn::save_model(blob, conv);
  std::string s;
  put_i64(s, 1);  // stages
  put_i64(s, 20000);
  s.append(20000 * sizeof(int64_t), '\0');  // the map: channel 0, repeated
  put_i64(s, 1);  // fused
  put_i64(s, static_cast<int64_t>(blob.size()));
  const std::vector<uint8_t> image =
      to_vector(s + std::string(blob.begin(), blob.end()));
  tee::SecureWorld world;
  world.install("gather", runtime::make_tbnet_ta(image));
  tee::TeeContext ctx(world);
  tee::TeeSession session = ctx.open_session("gather");

  std::string records;
  const std::string plane(64 * 64 * sizeof(float), '\0');
  put_i64(records, runtime::kRecordInput);
  put_i64(records, 4);
  for (int64_t d : {1, 1, 64, 64}) put_i64(records, d);
  records += plane;
  put_i64(records, runtime::kRecordStage);
  put_i64(records, 0);
  put_i64(records, 4);
  for (int64_t d : {1, 1, 64, 64}) put_i64(records, d);
  records += plane;
  put_i64(records, runtime::kRecordLogits);
  const std::vector<uint8_t> run = to_vector(records);
  EXPECT_EQ(status_of("20,000-entry map", run.size(),
                      [&] { return session.invoke(runtime::kCmdRun, run); }),
            tee::kTeeErrorBadParameters);
}

// ------------------------------------------------------- mutation sweep --

/// One model section as a tree: `head` is its body up to its first child
/// section (kind, config and tensors), `kids` its child sections.
struct Section {
  std::string head;
  std::vector<Section> kids;
};

/// Reads back the section at `at` of a stream this library wrote.
Section section_tree(const std::string& s, size_t& at) {
  int64_t len = 0;
  std::memcpy(&len, s.data() + at + sizeof(uint32_t), sizeof(len));
  at += sizeof(uint32_t) + sizeof(int64_t);
  const size_t end = at + static_cast<size_t>(len);
  uint32_t kind_len = 0;
  std::memcpy(&kind_len, s.data() + at, sizeof(kind_len));
  const std::string kind = s.substr(at + sizeof(uint32_t), kind_len);
  const size_t config = kind == "Sequential"      ? sizeof(uint32_t)
                        : kind == "ResidualBlock" ? 4 * sizeof(int64_t)
                                                  : end - at - 4 - kind_len;
  Section node{s.substr(at, 4 + kind_len + config), {}};
  at += node.head.size();
  while (at < end) node.kids.push_back(section_tree(s, at));
  return node;
}

/// The section's bytes, with every frame in it checksummed afresh.
std::string reframed(const Section& node) {
  std::string body = node.head;
  for (const Section& kid : node.kids) body += reframed(kid);
  return framed(body);
}

/// A stream as a sequence of parts: framing bytes (`raw`, whose i64 fields
/// start at `fields`), then at most one model section. A `sized` part is
/// prefixed with its own i64 length, as a TA image's block is.
struct Part {
  std::string raw;
  std::vector<size_t> fields;
  std::vector<Section> section;
  bool sized = false;
};

std::string assemble(const std::vector<Part>& parts) {
  std::string out;
  for (const Part& p : parts) {
    std::string bytes = p.raw;
    for (const Section& sec : p.section) bytes += reframed(sec);
    if (p.sized) put_i64(out, static_cast<int64_t>(bytes.size()));
    out += bytes;
  }
  return out;
}

/// `values` as i64 framing fields.
Part fields(const std::vector<int64_t>& values) {
  Part p;
  for (int64_t v : values) {
    p.fields.push_back(p.raw.size());
    put_i64(p.raw, v);
  }
  return p;
}

/// A model stream as one part: the header, then the root section.
Part model_part(const nn::Layer& layer) {
  std::vector<uint8_t> bytes;
  nn::save_model(bytes, layer);
  const std::string s(bytes.begin(), bytes.end());
  size_t at = 12;
  Part p{s.substr(0, at), {}, {section_tree(s, at)}, false};
  EXPECT_EQ(at, s.size());
  return p;
}

Part section_part(const nn::Layer& layer) {
  const std::string s = saved(layer);
  size_t at = 0;
  return Part{"", {}, {section_tree(s, at)}, false};
}

/// Structure-aware mutations, drawn from the repo's seeded Rng: boundary
/// values in integer fields, bit flips, truncation, and splices of parts
/// and child sections. Model sections are re-framed after every mutation,
/// so the parser behind the checksums sees it.
class Mutator {
 public:
  explicit Mutator(uint64_t seed) : rng_(seed) {}

  size_t below(size_t n) {
    if (n == 0) return 0;
    return static_cast<size_t>(rng_.uniform_int(static_cast<int64_t>(n)));
  }

  /// One to three mutations of `parts`, assembled; sometimes flipped or
  /// cut after assembly too, which also reaches the checksums themselves.
  std::string mutated(std::vector<Part> parts) {
    for (size_t rounds = 1 + below(3); rounds > 0; --rounds) mutate(parts);
    std::string out = assemble(parts);
    if (below(8) == 0) flip(out);
    if (below(8) == 0) out.resize(below(out.size() + 1));
    return out;
  }

 private:
  void mutate(std::vector<Part>& parts) {
    if (parts.empty()) return;
    const size_t i = below(parts.size());
    switch (below(6)) {
      case 0:
      case 1:
      case 2:
        if (!parts[i].section.empty() && below(4) != 0) {
          mutate_tree(parts[i].section.front());
        } else {
          mutate_bytes(parts[i].raw, parts[i].fields);
        }
        break;
      case 3: {
        const Part copy = parts[below(parts.size())];
        parts.insert(parts.begin() + static_cast<std::ptrdiff_t>(i), copy);
        break;
      }
      case 4:
        parts.erase(parts.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      default:
        std::swap(parts[i], parts[below(parts.size())]);
        break;
    }
  }

  void collect(Section& node, std::vector<Section*>& out) {
    out.push_back(&node);
    for (Section& kid : node.kids) collect(kid, out);
  }

  void mutate_tree(Section& root) {
    std::vector<Section*> nodes;
    collect(root, nodes);
    Section& n = *nodes[below(nodes.size())];
    if (n.kids.empty() || below(2) == 0) {
      mutate_bytes(n.head, {});
      return;
    }
    const auto at = [&](size_t extra) {
      return n.kids.begin() +
             static_cast<std::ptrdiff_t>(below(n.kids.size() + extra));
    };
    switch (below(3)) {
      case 0:
        n.kids.erase(at(0));
        break;
      case 1: {
        Section copy = *nodes[below(nodes.size())];
        n.kids.insert(at(1), std::move(copy));
        break;
      }
      default:
        std::iter_swap(at(0), at(0));
        break;
    }
  }

  /// Mutates a field (one of `fields`, else a 4- or 8-byte integer near the
  /// start, where a section keeps its kind and config), a few bits, or the
  /// length of `s`.
  void mutate_bytes(std::string& s, const std::vector<size_t>& fields) {
    if (s.empty()) return;
    switch (below(4)) {
      case 0:
      case 1:
        if (!fields.empty()) {
          overwrite(s, fields[below(fields.size())], sizeof(int64_t));
        } else {
          const size_t width =
              below(2) == 0 ? sizeof(uint32_t) : sizeof(int64_t);
          if (s.size() < width) break;
          const size_t span = s.size() - width + 1;
          overwrite(s, below(below(4) == 0 ? span : std::min<size_t>(span, 64)),
                    width);
        }
        break;
      case 2:
        flip(s);
        break;
      default:
        s.resize(below(s.size()));
        break;
    }
  }

  void overwrite(std::string& s, size_t at, size_t width) {
    int64_t v = 0;
    std::memcpy(&v, s.data() + at, width);  // little-endian: low bytes
    const auto u = static_cast<uint64_t>(v);
    static constexpr int64_t kBoundary[] = {
        0, 1, -1, 2, 3, 8, 4095, 4096, 4097, int64_t{1} << 20,
        std::numeric_limits<int32_t>::max(), int64_t{1} << 31,
        std::numeric_limits<uint32_t>::max(), int64_t{1} << 32,
        int64_t{1} << 40, int64_t{1} << 62, std::numeric_limits<int64_t>::max(),
        std::numeric_limits<int64_t>::min()};
    switch (below(4)) {
      case 0:
        v = static_cast<int64_t>(u + 1);
        break;
      case 1:
        v = static_cast<int64_t>(u - 1);
        break;
      case 2:
        v = static_cast<int64_t>(u * 2);
        break;
      default:
        v = kBoundary[below(std::size(kBoundary))];
        break;
    }
    std::memcpy(s.data() + at, &v, width);
  }

  void flip(std::string& s) {
    if (s.empty()) return;
    for (size_t n = 1 + below(4); n > 0; --n) {
      s[below(s.size())] ^= static_cast<char>(1u << below(8));
    }
  }

  Rng rng_;
};

/// Iterations per entry point: a fixed seed and count, so any failure
/// reproduces, sized to finish well inside a minute under ASan+UBSan.
constexpr int kSweepIterations = 1000;

models::ModelConfig zoo(models::Family family, int depth) {
  models::ModelConfig cfg;
  cfg.family = family;
  cfg.depth = depth;
  cfg.classes = 10;
  cfg.width_mult = 0.125;
  cfg.seed = 3;
  return cfg;
}

/// A folded VGG with its int8 layers quantized, as a deployment ships it.
nn::Sequential quantized_vgg() {
  nn::Sequential model = models::build_victim(zoo(models::Family::kVgg, 11));
  nn::fold_batchnorm_inference(model);
  Rng rng(4);
  ExecutionContext ctx;
  nn::quantize_for_inference(model, ctx,
                             Tensor::randn(Shape{2, 3, 32, 32}, rng));
  return model;
}

/// Expects `load` to parse or throw std::runtime_error under an AllocCap of
/// the input's size.
template <typename Load>
void expect_parsed_or_rejected(const std::string& what, size_t input_bytes,
                               Load load) {
  std::string error;
  try {
    AllocCap cap(input_bytes);
    load();
    return;
  } catch (const std::runtime_error&) {
    return;
  } catch (const std::exception& e) {
    error = std::string(typeid(e).name()) + ": " + e.what();
  }
  ADD_FAILURE() << what << ": " << error;
}

TEST(MutationSweep, ModelStreamsParseOrThrowRuntimeError) {
  // A quantized layer ships one byte per weight but is built with f32
  // weights (its fallback, which the TA's secure-memory claim counts), so
  // its stream is capped at four times its size.
  struct Corpus {
    Part part;
    size_t bytes_per_stream_byte;
  };
  const std::vector<Corpus> corpus = {
      {model_part(models::build_victim(zoo(models::Family::kResNet, 20))), 1},
      {model_part(quantized_vgg()), sizeof(float)}};
  Mutator m(101);
  for (int i = 0; i < kSweepIterations; ++i) {
    const Corpus& c = corpus[static_cast<size_t>(i) % corpus.size()];
    const std::string bytes = m.mutated({c.part});
    expect_parsed_or_rejected(
        "model stream " + std::to_string(i),
        c.bytes_per_stream_byte * bytes.size(), [&] {
          ByteReader r(as_bytes(bytes));
          nn::load_model(r);
        });
  }
}

TEST(MutationSweep, TwoBranchStreamsParseOrThrowRuntimeError) {
  const models::ModelConfig cfg = zoo(models::Family::kResNet, 20);
  const core::TwoBranchModel model =
      models::build_two_branch(models::build_victim(cfg), cfg);
  std::vector<Part> parts = {
      fields({-2, nn::kModelFormatVersion, model.num_stages()})};
  for (int i = 0; i < model.num_stages(); ++i) {
    const core::FusionStage& s = model.stage(i);
    std::vector<int64_t> framing = {static_cast<int64_t>(s.channel_map.size())};
    framing.insert(framing.end(), s.channel_map.begin(), s.channel_map.end());
    framing.push_back(s.fused ? 1 : 0);
    parts.push_back(fields(framing));
    parts.push_back(section_part(*s.exposed));
    parts.push_back(section_part(*s.secure));
  }
  // The parts are the stream save_two_branch writes.
  std::vector<uint8_t> saved_bytes;
  core::save_two_branch(saved_bytes, model);
  ASSERT_EQ(assemble(parts),
            std::string(saved_bytes.begin(), saved_bytes.end()));
  Mutator m(102);
  for (int i = 0; i < kSweepIterations; ++i) {
    const std::string bytes = m.mutated(parts);
    expect_parsed_or_rejected(
        "two-branch stream " + std::to_string(i), bytes.size(), [&] {
          ByteReader r(as_bytes(bytes));
          core::load_two_branch(r);
        });
  }
}

TEST(MutationSweep, TaImagesParseOrThrowRuntimeError) {
  const models::ModelConfig cfg = zoo(models::Family::kResNet, 20);
  const core::TwoBranchModel model =
      models::build_two_branch(models::build_victim(cfg), cfg);
  std::vector<Part> parts = {fields({model.num_stages()})};
  for (int i = 0; i < model.num_stages(); ++i) {
    const core::FusionStage& s = model.stage(i);
    std::vector<int64_t> framing = {static_cast<int64_t>(s.channel_map.size())};
    framing.insert(framing.end(), s.channel_map.begin(), s.channel_map.end());
    framing.push_back(s.fused ? 1 : 0);
    parts.push_back(fields(framing));
    Part block = model_part(*s.secure);
    block.sized = true;
    parts.push_back(block);
  }
  ASSERT_NO_THROW(runtime::make_tbnet_ta(to_vector(assemble(parts))));
  Mutator m(103);
  for (int i = 0; i < kSweepIterations; ++i) {
    const std::vector<uint8_t> image = to_vector(m.mutated(parts));
    expect_parsed_or_rejected("TA image " + std::to_string(i), image.size(),
                              [&] { runtime::make_tbnet_ta(image); });
  }
}

/// Sends `bytes` as `command` and returns the largest single allocation the
/// call made. The result must be a TEE status or std::runtime_error; a
/// kCmdRun may also fail a layer's own input-shape check
/// (std::invalid_argument), because the TA does not know its first block's
/// input shape.
size_t largest_allocation(const std::string& what, tee::TeeSession& session,
                          uint32_t command, const std::vector<uint8_t>& bytes) {
  return allocations_of([&] {
           try {
             std::vector<uint8_t> out;
             session.invoke(command, bytes, &out);
           } catch (const std::runtime_error&) {
           } catch (const std::invalid_argument& e) {
             if (command != runtime::kCmdRun) {
               ADD_FAILURE() << what << ": " << e.what();
             }
           } catch (const std::exception& e) {
             ADD_FAILURE() << what << ": " << typeid(e).name() << ": "
                           << e.what();
           }
         }).largest;
}

TEST(MutationSweep, CommandsToALiveTaAreBoundedAndLeaveItServing) {
  const models::ModelConfig cfg = zoo(models::Family::kResNet, 20);
  const core::TwoBranchModel model =
      models::build_two_branch(models::build_victim(cfg), cfg);
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  runtime::DeployedTBNet engine(model, ctx, "sweep");
  Rng rng(104);
  const Tensor batch = Tensor::randn(Shape{2, 3, 32, 32}, rng);
  const Tensor want = engine.infer_batch(batch);

  // The records the engine sends for one image: the input, each fused
  // stage's R_i output, then a release.
  const auto tensor_part = [](std::vector<int64_t> head, const Tensor& t) {
    head.push_back(t.shape().ndim());
    for (int64_t d : t.shape().dims()) head.push_back(d);
    Part p = fields(head);
    p.raw.append(reinterpret_cast<const char*>(t.data()),
                 static_cast<size_t>(t.numel()) * sizeof(float));
    return p;
  };
  const Tensor image = Tensor::randn(Shape{1, 3, 32, 32}, rng);
  std::vector<Part> records = {tensor_part({runtime::kRecordInput}, image)};
  Tensor x = image;
  for (int i = 0; i < model.num_stages() && model.stage(i).fused; ++i) {
    x = model.stage(i).exposed->forward(x, false);
    records.push_back(tensor_part({runtime::kRecordStage, i}, x));
  }
  records.push_back(fields({runtime::kRecordLogits}));
  const std::vector<Part> width = {fields({2})};

  tee::TeeSession session = ctx.open_session("sweep");
  struct Corpus {
    uint32_t command;
    std::vector<Part> parts;
    size_t largest = 0;
  };
  std::vector<Corpus> corpus = {{runtime::kCmdRun, records},
                                {runtime::kCmdSetWidth, width}};
  for (Corpus& c : corpus) {
    const std::vector<uint8_t> bytes = to_vector(assemble(c.parts));
    std::vector<uint8_t> out;
    ASSERT_EQ(session.invoke(c.command, bytes, &out), tee::kTeeSuccess);
    c.largest = largest_allocation("unmutated", session, c.command, bytes);
  }
  // A stage record's dims are checked against the stage's output before
  // its floats are copied, but the TA cannot know its first block's input
  // shape, so only an input record can still make it copy a tensor as large
  // as the stream holds. The bound is twice the larger of the unmutated
  // stream's largest allocation and the mutated stream itself. An error
  // message takes a few hundred bytes whatever the input, so, like
  // AllocCap, it never falls below one page.
  Mutator m(105);
  for (int i = 0; i < kSweepIterations; ++i) {
    const Corpus& c = corpus[static_cast<size_t>(i) % corpus.size()];
    const std::vector<uint8_t> bytes = to_vector(m.mutated(c.parts));
    const std::string what = "command stream " + std::to_string(i);
    EXPECT_LE(largest_allocation(what, session, c.command, bytes),
              std::max<size_t>(2 * std::max(c.largest, bytes.size()), 4096))
        << what;
  }
  EXPECT_TRUE(allclose(engine.infer_batch(batch), want, 0.0f, 0.0f));
}

/// Appends `t` as a kCmdRun record tensor: its dims as an i64 list, then
/// the floats.
void put_record_tensor(std::string& s, const Tensor& t) {
  put_i64(s, t.shape().ndim());
  for (int64_t d : t.shape().dims()) put_i64(s, d);
  s.append(reinterpret_cast<const char*>(t.data()),
           static_cast<size_t>(t.numel()) * sizeof(float));
}

TEST(HostileRecords, StageRecordIsCheckedBeforeItIsCopied) {
  // After a one-image input record, a stage-0 record whose batch dim says 3
  // (and whose floats are all there) is rejected from its dims: neither its
  // floats nor the stage's block may cost more than the unmodified stream's
  // largest allocation (32,768 B, a [1, 8, 32, 32] map). Copying the record
  // first would take 98,304 B at once.
  const models::ModelConfig cfg = zoo(models::Family::kResNet, 20);
  const core::TwoBranchModel model =
      models::build_two_branch(models::build_victim(cfg), cfg);
  tee::SecureWorld world;
  tee::TeeContext ctx(world);
  runtime::DeployedTBNet engine(model, ctx, "stage-dims");
  tee::TeeSession session = ctx.open_session("stage-dims");

  Rng rng(106);
  const Tensor image = Tensor::randn(Shape{1, 3, 32, 32}, rng);
  const Tensor r0 = model.stage(0).exposed->forward(image, false);
  ASSERT_TRUE(model.stage(0).fused);
  std::string input;
  put_i64(input, runtime::kRecordInput);
  put_record_tensor(input, image);
  std::string records = input;
  Tensor x = image;
  for (int i = 0; i < model.num_stages() && model.stage(i).fused; ++i) {
    x = model.stage(i).exposed->forward(x, false);
    put_i64(records, runtime::kRecordStage);
    put_i64(records, i);
    put_record_tensor(records, x);
  }
  put_i64(records, runtime::kRecordLogits);
  const std::vector<uint8_t> whole = to_vector(records);
  std::vector<uint8_t> out;
  ASSERT_EQ(session.invoke(runtime::kCmdRun, whole, &out), tee::kTeeSuccess);
  const size_t unmodified =
      largest_allocation("unmodified", session, runtime::kCmdRun, whole);

  std::string forged = input;
  put_i64(forged, runtime::kRecordStage);
  put_i64(forged, 0);
  put_record_tensor(forged, Tensor(Shape{3, r0.dim(1), r0.dim(2), r0.dim(3)}));
  const std::vector<uint8_t> bytes = to_vector(forged);
  uint32_t status = tee::kTeeSuccess;
  const Allocations a = allocations_of(
      [&] { status = session.invoke(runtime::kCmdRun, bytes, &out); });
  EXPECT_EQ(status, tee::kTeeErrorBadParameters);
  EXPECT_LE(a.largest, unmodified);
}

// ----------------------------------------------------------- saved work --

TEST(SavedWork, ResidualCloneAllocatesNoMoreThanItsLargestMember) {
  // A clone is built from clones of the members, never from a full-width
  // block first: for a 64 -> 1 -> 64 block nothing larger than conv1's
  // [1, 64, 3, 3] weight (2,304 B) is asked for, where a fresh 64 -> 64
  // block's conv alone is 147,456 B.
  Rng rng(107);
  const nn::ResidualBlock block(64, 64, 1, rng, 1);
  std::unique_ptr<nn::Layer> copy;
  const Allocations a = allocations_of([&] { copy = block.clone(); });
  EXPECT_LE(a.largest, size_t{64 * 3 * 3 * sizeof(float)});
}

TEST(SavedWork, LayerCloneCopiesNoForwardCache) {
  // After a training forward on [8, 8, 32, 32] each layer holds 262,144 B
  // of that batch (Conv2d its input, BatchNorm2d its normalized input). A
  // clone is built from the layer's state, so nothing larger than the
  // conv's [8, 8, 3, 3] weight (2,304 B) is asked for. The running
  // statistics the forward updated survive the clone.
  Rng rng(108);
  const Tensor x = Tensor::randn(Shape{8, 8, 32, 32}, rng);
  nn::Conv2d conv(8, 8, {.kernel = 3, .stride = 1, .pad = 1, .bias = false},
                  rng);
  nn::BatchNorm2d bn(8);
  ExecutionContext ctx;
  conv.forward(ctx, x, /*train=*/true);
  bn.forward(ctx, x, /*train=*/true);
  for (const nn::Layer* layer : {static_cast<const nn::Layer*>(&conv),
                                 static_cast<const nn::Layer*>(&bn)}) {
    std::unique_ptr<nn::Layer> copy;
    const Allocations a = allocations_of([&] { copy = layer->clone(); });
    EXPECT_LE(a.largest, size_t{8 * 8 * 3 * 3 * sizeof(float)})
        << layer->kind();
  }
  const std::unique_ptr<nn::Layer> copy = bn.clone();
  const auto& twin = static_cast<const nn::BatchNorm2d&>(*copy);
  for (int64_t c = 0; c < 8; ++c) {
    EXPECT_EQ(twin.running_mean()[c], bn.running_mean()[c]) << c;
    EXPECT_EQ(twin.running_var()[c], bn.running_var()[c]) << c;
  }
}

TEST(SavedWork, LoadModelAllocatesAtMostThreeTimesItsStream) {
  // Each layer is built from the tensors it parsed: its weights, one
  // gradient buffer each, and small change. Building layers from fresh
  // draws and overwriting them took over five times the stream.
  std::vector<uint8_t> stream;
  nn::save_model(stream,
                 models::build_victim(zoo(models::Family::kResNet, 20)));
  const Allocations a = allocations_of([&] {
    ByteReader r(stream);
    nn::load_model(r);
  });
  EXPECT_LE(a.total, 3 * stream.size()) << "total " << a.total;
}

}  // namespace
}  // namespace tbnet
