#include "nn/serialize.h"

#include <cstring>
#include <stdexcept>

#include "tensor/crc32c.h"

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/flatten.h"
#include "nn/pool.h"
#include "nn/residual.h"
#include "nn/sequential.h"

namespace tbnet::nn {
namespace {

/// A section frame: u32(crc32c of the body) i64(body length).
constexpr size_t kFrameBytes = sizeof(uint32_t) + sizeof(int64_t);

void put_string(std::vector<uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<uint32_t>(s.size()));
  put_bytes(out, s.data(), s.size());
}

void put_tensor(std::vector<uint8_t>& out, const Tensor& t) {
  put_u32(out, static_cast<uint32_t>(t.shape().ndim()));
  for (int64_t d : t.shape().dims()) put_i64(out, d);
  put_floats(out, t.data(), t.numel());
}

std::string read_string(ByteReader& r) {
  const std::span<const uint8_t> s = r.take(r.u32("string length"), "string");
  return std::string(s.begin(), s.end());
}

/// Bytes that a layer of prod(extents) parameters, `bytes_each` bytes
/// apiece, takes in the stream. Throws unless every extent is positive and
/// the product (overflow-checked) fits in what is left of the section: the
/// check runs before the layer is built, so a forged extent cannot make a
/// constructor allocate and initialize more than the stream holds.
int64_t param_bytes(const ByteReader& r, std::initializer_list<int64_t> extents,
                    int64_t bytes_each) {
  const auto left = static_cast<int64_t>(r.left());
  int64_t bytes = bytes_each;
  for (int64_t e : extents) {
    if (e <= 0 || e > left / bytes) {
      throw std::runtime_error("model stream: layer larger than its section");
    }
    bytes *= e;
  }
  return bytes;
}

/// Reads a tensor that must have shape `want` (whose element count the
/// caller bounded with param_bytes). The header is compared dim by dim
/// before the data is touched.
Tensor read_tensor(ByteReader& r, const Shape& want) {
  if (r.u32("tensor rank") != static_cast<uint32_t>(want.ndim())) {
    throw std::runtime_error("model stream: tensor rank mismatch");
  }
  for (int64_t d : want.dims()) {
    if (r.i64("tensor dim") != d) {
      throw std::runtime_error("model stream: tensor shape mismatch");
    }
  }
  return Tensor(want, r.floats(want.numel(), "tensor"));
}

/// Checks a convolution window: stride >= 1 and 0 <= pad < kernel, as every
/// writer emits (the kernel extent itself goes through param_bytes).
void check_window(int64_t kernel, int64_t stride, int64_t pad) {
  if (stride < 1 || pad < 0 || pad >= kernel) {
    throw std::runtime_error("model stream: bad convolution window");
  }
}

/// Quantized-weight payload: [out, k] extents, per-channel
/// scales, the activation quantizer, then the raw int8 bytes. qsum is
/// derivable and is recomputed on load.
void write_quant(std::vector<uint8_t>& out, const QuantizedWeights& qw) {
  const auto rows = static_cast<int64_t>(qw.scale.size());
  put_i64(out, rows);
  put_i64(out, static_cast<int64_t>(qw.q.size()) / rows);
  put_floats(out, qw.scale.data(), rows);
  put_f32(out, qw.act.scale);
  put_i64(out, qw.act.zero_point);
  put_bytes(out, qw.q.data(), qw.q.size());
}

QuantizedWeights read_quant(ByteReader& r, int64_t expect_out,
                            int64_t expect_k) {
  const int64_t out = r.i64("quant rows");
  const int64_t k = r.i64("quant columns");
  if (out != expect_out || k != expect_k) {
    throw std::runtime_error("model stream: quantized weight shape mismatch");
  }
  QuantizedWeights qw;
  qw.scale = r.floats(out, "quant scales");
  qw.act.scale = r.f32("quant activation scale");
  qw.act.zero_point = static_cast<int32_t>(r.i64("quant zero point"));
  const std::span<const uint8_t> q = r.take(out * k, "quant weights");
  qw.q.assign(q.begin(), q.end());
  qw.qsum.resize(static_cast<size_t>(out));
  for (int64_t o = 0; o < out; ++o) {
    int32_t sum = 0;
    const int8_t* row = qw.q.data() + o * k;
    for (int64_t j = 0; j < k; ++j) sum += row[j];
    qw.qsum[static_cast<size_t>(o)] = sum;
  }
  return qw;
}

/// The f32 fallback weight of a quantized layer: w = q * scale[o].
Tensor dequantized_weight(const QuantizedWeights& qw, const Shape& shape) {
  Tensor w{shape};
  const int64_t out = static_cast<int64_t>(qw.scale.size());
  const int64_t k = w.numel() / out;
  for (int64_t o = 0; o < out; ++o) {
    const float s = qw.scale[static_cast<size_t>(o)];
    const int8_t* row = qw.q.data() + o * k;
    float* dst = w.data() + o * k;
    for (int64_t j = 0; j < k; ++j) dst[j] = static_cast<float>(row[j]) * s;
  }
  return w;
}

/// What a truncated layer-body field reports.
constexpr const char* kField = "layer field";

/// The unframed kind + config + tensors payload of one layer. Nested layers
/// (Sequential / ResidualBlock children) go through the public framed
/// save_layer, so every node in the tree carries its own checksum and the
/// root frame covers the whole image.
void save_layer_body(std::vector<uint8_t>& out, const Layer& layer) {
  put_string(out, layer.kind());
  if (const auto* conv = dynamic_cast<const Conv2d*>(&layer)) {
    put_i64(out, conv->in_channels());
    put_i64(out, conv->out_channels());
    put_i64(out, conv->options().kernel);
    put_i64(out, conv->options().stride);
    put_i64(out, conv->options().pad);
    put_u32(out, conv->has_bias() ? 1 : 0);
    put_u32(out, conv->quantized() ? 1 : 0);
    if (conv->quantized()) {
      write_quant(out, conv->quant());
    } else {
      put_tensor(out, conv->weight());
    }
    if (conv->has_bias()) put_tensor(out, conv->bias());
  } else if (const auto* bn = dynamic_cast<const BatchNorm2d*>(&layer)) {
    put_i64(out, bn->channels());
    put_f32(out, bn->eps());
    put_f32(out, bn->momentum());
    put_tensor(out, bn->gamma());
    put_tensor(out, bn->beta());
    put_tensor(out, bn->running_mean());
    put_tensor(out, bn->running_var());
  } else if (dynamic_cast<const ReLU*>(&layer) != nullptr) {
    // no state
  } else if (const auto* pool = dynamic_cast<const MaxPool2d*>(&layer)) {
    put_i64(out, pool->kernel());
    put_i64(out, pool->stride());
  } else if (dynamic_cast<const GlobalAvgPool2d*>(&layer) != nullptr) {
    // no state
  } else if (dynamic_cast<const Flatten*>(&layer) != nullptr) {
    // no state
  } else if (const auto* dense = dynamic_cast<const Dense*>(&layer)) {
    put_i64(out, dense->in_features());
    put_i64(out, dense->out_features());
    put_u32(out, dense->has_bias() ? 1 : 0);
    put_u32(out, dense->quantized() ? 1 : 0);
    if (dense->quantized()) {
      write_quant(out, dense->quant());
    } else {
      put_tensor(out, dense->weight());
    }
    if (dense->has_bias()) put_tensor(out, dense->bias());
  } else if (const auto* seq = dynamic_cast<const Sequential*>(&layer)) {
    put_u32(out, static_cast<uint32_t>(seq->size()));
    for (int i = 0; i < seq->size(); ++i) save_layer(out, seq->layer(i));
  } else if (const auto* res = dynamic_cast<const ResidualBlock*>(&layer)) {
    put_i64(out, res->in_channels());
    put_i64(out, res->out_channels());
    put_i64(out, res->stride());
    put_i64(out, res->internal_channels());
    save_layer(out, res->conv1());
    save_layer(out, res->bn1());
    save_layer(out, res->conv2());
    save_layer(out, res->bn2());
    if (res->has_downsample()) {
      save_layer(out, res->down_conv());
      save_layer(out, res->down_bn());
    }
  } else {
    throw std::runtime_error("save_layer: unsupported layer kind '" +
                             layer.kind() + "'");
  }
}

/// The next child section, which must parse as an L.
template <typename L>
std::unique_ptr<L> load_child(ByteReader& r) {
  std::unique_ptr<Layer> layer = load_layer(r);
  if (dynamic_cast<L*>(layer.get()) == nullptr) {
    throw std::runtime_error("load_layer: malformed ResidualBlock");
  }
  return std::unique_ptr<L>(static_cast<L*>(layer.release()));
}

/// Parses one unframed layer body. Nested layers are framed sections of
/// this body and parse in place, each within its own length. Every layer is
/// built from the tensors it parsed, so nothing is initialized only to be
/// overwritten.
std::unique_ptr<Layer> parse_body(ByteReader& r) {
  const std::string kind = read_string(r);
  if (kind == "Conv2d") {
    const int64_t in_c = r.i64(kField);
    const int64_t out_c = r.i64(kField);
    Conv2d::Options opt;
    opt.kernel = r.i64(kField);
    opt.stride = r.i64(kField);
    opt.pad = r.i64(kField);
    opt.bias = r.u32(kField) != 0;
    const bool quantized = r.u32(kField) != 0;
    param_bytes(r, {out_c, in_c, opt.kernel, opt.kernel},
                quantized ? 1 : sizeof(float));
    check_window(opt.kernel, opt.stride, opt.pad);
    const Shape wshape{out_c, in_c, opt.kernel, opt.kernel};
    QuantizedWeights qw;
    Tensor weight;
    if (quantized) {
      qw = read_quant(r, out_c, in_c * opt.kernel * opt.kernel);
      weight = dequantized_weight(qw, wshape);
    } else {
      weight = read_tensor(r, wshape);
    }
    Tensor bias = opt.bias ? read_tensor(r, Shape{out_c}) : Tensor();
    auto conv = std::make_unique<Conv2d>(opt, std::move(weight), std::move(bias));
    if (quantized) conv->set_quantized(std::move(qw));
    return conv;
  }
  if (kind == "BatchNorm2d") {
    const int64_t c = r.i64(kField);
    const float eps = r.f32(kField);
    const float momentum = r.f32(kField);
    param_bytes(r, {c, 4}, sizeof(float));  // gamma, beta, mean, var
    Tensor gamma = read_tensor(r, Shape{c});
    Tensor beta = read_tensor(r, Shape{c});
    Tensor mean = read_tensor(r, Shape{c});
    Tensor var = read_tensor(r, Shape{c});
    return std::make_unique<BatchNorm2d>(std::move(gamma), std::move(beta),
                                         std::move(mean), std::move(var), eps,
                                         momentum);
  }
  if (kind == "ReLU") return std::make_unique<ReLU>();
  if (kind == "MaxPool2d") {
    const int64_t k = r.i64(kField);
    const int64_t s = r.i64(kField);
    if (k < 1 || s < 1) throw std::runtime_error("model stream: bad pool window");
    return std::make_unique<MaxPool2d>(k, s);
  }
  if (kind == "GlobalAvgPool2d") return std::make_unique<GlobalAvgPool2d>();
  if (kind == "Flatten") return std::make_unique<Flatten>();
  if (kind == "Dense") {
    const int64_t in_f = r.i64(kField);
    const int64_t out_f = r.i64(kField);
    const bool bias = r.u32(kField) != 0;
    const bool quantized = r.u32(kField) != 0;
    param_bytes(r, {out_f, in_f}, quantized ? 1 : sizeof(float));
    QuantizedWeights qw;
    Tensor weight;
    if (quantized) {
      qw = read_quant(r, out_f, in_f);
      weight = dequantized_weight(qw, Shape{out_f, in_f});
    } else {
      weight = read_tensor(r, Shape{out_f, in_f});
    }
    Tensor b = bias ? read_tensor(r, Shape{out_f}) : Tensor();
    auto dense = std::make_unique<Dense>(std::move(weight), std::move(b));
    if (quantized) dense->set_quantized(std::move(qw));
    return dense;
  }
  if (kind == "Sequential") {
    const uint32_t n = r.u32(kField);
    auto seq = std::make_unique<Sequential>();
    for (uint32_t i = 0; i < n; ++i) seq->add(load_layer(r));
    return seq;
  }
  if (kind == "ResidualBlock") {
    const int64_t in_c = r.i64(kField);
    const int64_t out_c = r.i64(kField);
    const int64_t stride = r.i64(kField);
    const int64_t internal = r.i64(kField);
    // The block is built from its parsed members, which the ResidualBlock
    // constructor holds to the member rule (nn/residual.h); the header must
    // then describe that block.
    ResidualBlock::Members m;
    m.conv1 = load_child<Conv2d>(r);
    m.bn1 = load_child<BatchNorm2d>(r);
    m.conv2 = load_child<Conv2d>(r);
    m.bn2 = load_child<BatchNorm2d>(r);
    if (stride != 1 || in_c != out_c) {
      m.down_conv = load_child<Conv2d>(r);
      m.down_bn = load_child<BatchNorm2d>(r);
    }
    auto block = std::make_unique<ResidualBlock>(std::move(m));
    if (block->in_channels() != in_c || block->out_channels() != out_c ||
        block->stride() != stride || block->internal_channels() != internal) {
      throw std::runtime_error(
          "load_layer: ResidualBlock header disagrees with its members");
    }
    return block;
  }
  throw std::runtime_error("load_layer: unknown layer kind '" + kind + "'");
}

}  // namespace

void save_layer(std::vector<uint8_t>& out, const Layer& layer) {
  // Frame (format v4): crc + len precede the body, so they are patched in
  // once it is written. Nested sections are written once, in place.
  const size_t frame = out.size();
  out.resize(frame + kFrameBytes);
  save_layer_body(out, layer);
  const size_t body = frame + kFrameBytes;
  put_at(out, frame, crc32c(out.data() + body, out.size() - body));
  put_at(out, frame + sizeof(uint32_t),
         static_cast<int64_t>(out.size() - body));
}

std::unique_ptr<Layer> load_layer(ByteReader& r) {
  // The section is verified before a single field of its body is parsed;
  // the body then parses in place, within its own length.
  const uint32_t crc = r.u32("section checksum");
  const std::span<const uint8_t> body =
      r.take(r.i64("section length"), "layer section");
  if (crc32c(body.data(), body.size()) != crc) {
    throw IntegrityError(
        "layer section checksum mismatch — corrupted model image");
  }
  ByteReader br(body);
  return parse_body(br);
}

void save_model(std::vector<uint8_t>& out, const Layer& model) {
  const size_t header = out.size();
  put_bytes(out, "TBNM", 4);
  put_u32(out, kModelFormatVersion);
  put_u32(out, crc32c(out.data() + header, out.size() - header));
  save_layer(out, model);
}

std::unique_ptr<Layer> load_model(ByteReader& r) {
  const std::span<const uint8_t> header = r.take(8, "model header");
  if (std::memcmp(header.data(), "TBNM", 4) != 0) {
    throw std::runtime_error("load_model: bad magic");
  }
  uint32_t version = 0;
  std::memcpy(&version, header.data() + 4, sizeof(version));
  if (version != kModelFormatVersion) {
    throw std::runtime_error("load_model: unsupported version " +
                             std::to_string(version));
  }
  if (r.u32("header checksum") != crc32c(header.data(), header.size())) {
    throw IntegrityError(
        "model header checksum mismatch — corrupted model image");
  }
  return load_layer(r);
}

}  // namespace tbnet::nn
