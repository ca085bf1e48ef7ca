// Hostile model streams. In TBNet the REE is the attacker, so every byte a
// TA image carries is untrusted, and CRC32C frames are no MAC: the REE can
// frame any record with valid checksums. Each crafted stream below must
// throw std::runtime_error (or a subclass) from every loader entry point it
// reaches — nn::load_model, make_tbnet_ta, or load_two_branch — and no
// allocation made while parsing it may be larger than the stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/two_branch.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/serialize.h"
#include "runtime/deployed.h"
#include "tensor/crc32c.h"

namespace {

// Largest single operator-new request the code under test may make; 0 is
// no limit. A larger request throws std::bad_alloc at once, so a loader that
// sizes a buffer from a forged count fails the test here instead of
// allocating (and zero-filling) gigabytes.
thread_local size_t g_alloc_cap = 0;

}  // namespace

void* operator new(std::size_t n) {
  if (g_alloc_cap != 0 && n > g_alloc_cap) throw std::bad_alloc();
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
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
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
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
  s += blob;
  return std::vector<uint8_t>(s.begin(), s.end());
}

/// The framed section nn::save_layer writes for `layer`.
std::string saved(const nn::Layer& layer) {
  std::ostringstream os(std::ios::binary);
  nn::save_layer(os, layer);
  return os.str();
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

std::string residual_head(int64_t in_c, int64_t out_c, int64_t internal) {
  std::string s;
  put_string(s, "ResidualBlock");
  for (int64_t v : {in_c, out_c, int64_t{1}, internal}) put_i64(s, v);
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
    std::string s;
    put_string(s, "DepthwiseConv2d");
    for (int64_t v : {int64_t{1} << 40, int64_t{3}, int64_t{1}, int64_t{1}}) {
      put_i64(s, v);
    }
    put_u32(s, 0);  // bias
    cases.push_back({"DepthwiseConv2d 2^40 channels",
                     model_stream(framed(s))});
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
                       int64_t{1} << 20, int64_t{1} << 20, int64_t{1} << 20)))});
  {
    // conv1 must be [internal=1, in=2, 3, 3]; this one is [2, 2, 3, 3].
    Rng rng(1);
    nn::Conv2d wide(2, 2, {.kernel = 3, .stride = 1, .pad = 1, .bias = false},
                    rng);
    const std::string body = residual_head(2, 2, 1) + saved(wide) +
                             saved(nn::BatchNorm2d(1)) + saved(wide) +
                             saved(nn::BatchNorm2d(2));
    cases.push_back({"ResidualBlock child wider than the block",
                     model_stream(framed(body))});
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
    if (c.two_branch) {
      std::istringstream is(c.bytes, std::ios::binary);
      expect_rejected(c.name + " (load_two_branch)", c.bytes.size(),
                      [&] { core::load_two_branch(is); });
      continue;
    }
    std::istringstream is(c.bytes, std::ios::binary);
    expect_rejected(c.name + " (load_model)", c.bytes.size(),
                    [&] { nn::load_model(is); });
    const std::vector<uint8_t> image = ta_image(c.bytes);
    expect_rejected(c.name + " (make_tbnet_ta)", image.size(),
                    [&] { runtime::make_tbnet_ta(image); });
  }
}

}  // namespace
}  // namespace tbnet
