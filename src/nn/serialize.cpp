#include "nn/serialize.h"

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "tensor/crc32c.h"

#include "nn/activations.h"
#include "nn/batchnorm.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/depthwise.h"
#include "nn/flatten.h"
#include "nn/pool.h"
#include "nn/residual.h"
#include "nn/sequential.h"

namespace tbnet::nn {
namespace {

void write_u32(std::ostream& os, uint32_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_i64(std::ostream& os, int64_t v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_f32(std::ostream& os, float v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

void write_string(std::ostream& os, const std::string& s) {
  write_u32(os, static_cast<uint32_t>(s.size()));
  os.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void write_tensor(std::ostream& os, const Tensor& t) {
  write_u32(os, static_cast<uint32_t>(t.shape().ndim()));
  for (int64_t d : t.shape().dims()) write_i64(os, d);
  os.write(reinterpret_cast<const char*>(t.data()),
           static_cast<std::streamsize>(t.numel() * sizeof(float)));
}

/// One layer section's bytes, consumed front to back. Every read checks
/// what is left first, so a forged count or extent fails before anything of
/// that size is allocated.
struct Reader {
  const char* p;
  int64_t left;

  const char* take(int64_t n, const char* what) {
    if (n < 0 || n > left) {
      throw std::runtime_error(std::string("model stream truncated (") +
                               what + ")");
    }
    const char* at = p;
    p += n;
    left -= n;
    return at;
  }
};

template <typename T>
T read_pod(Reader& r, const char* what) {
  T v;
  std::memcpy(&v, r.take(sizeof(T), what), sizeof(T));
  return v;
}

uint32_t read_u32(Reader& r) { return read_pod<uint32_t>(r, "u32"); }
int64_t read_i64(Reader& r) { return read_pod<int64_t>(r, "i64"); }
float read_f32(Reader& r) { return read_pod<float>(r, "f32"); }

std::string read_string(Reader& r) {
  const uint32_t n = read_u32(r);
  if (n > (1u << 20)) throw std::runtime_error("model stream: string too long");
  return std::string(r.take(n, "string"), n);
}

/// Bytes that a layer of prod(extents) parameters, `bytes_each` bytes
/// apiece, takes in the stream. Throws unless every extent is positive and
/// the product (overflow-checked) fits in what is left of the section: the
/// check runs before the layer is built, so a forged extent cannot make a
/// constructor allocate and initialize more than the stream holds.
int64_t param_bytes(const Reader& r, std::initializer_list<int64_t> extents,
                    int64_t bytes_each) {
  int64_t bytes = bytes_each;
  for (int64_t e : extents) {
    if (e <= 0 || e > r.left / bytes) {
      throw std::runtime_error("model stream: layer larger than its section");
    }
    bytes *= e;
  }
  return bytes;
}

/// Reads a tensor that must have shape `want` (whose element count the
/// caller bounded with param_bytes). The header is compared dim by dim
/// before the data is touched.
Tensor read_tensor(Reader& r, const Shape& want) {
  const uint32_t rank = read_u32(r);
  if (rank != static_cast<uint32_t>(want.ndim())) {
    throw std::runtime_error("model stream: tensor rank mismatch");
  }
  for (int64_t d : want.dims()) {
    if (read_i64(r) != d) {
      throw std::runtime_error("model stream: tensor shape mismatch");
    }
  }
  const int64_t n = want.numel();
  const char* bytes = r.take(n * static_cast<int64_t>(sizeof(float)), "tensor");
  std::vector<float> data(static_cast<size_t>(n));
  std::memcpy(data.data(), bytes, data.size() * sizeof(float));
  return Tensor(want, std::move(data));
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
void write_quant(std::ostream& os, const QuantizedWeights& qw) {
  const int64_t out = static_cast<int64_t>(qw.scale.size());
  const int64_t k = static_cast<int64_t>(qw.q.size()) / out;
  write_i64(os, out);
  write_i64(os, k);
  os.write(reinterpret_cast<const char*>(qw.scale.data()),
           static_cast<std::streamsize>(out * sizeof(float)));
  write_f32(os, qw.act.scale);
  write_i64(os, qw.act.zero_point);
  os.write(reinterpret_cast<const char*>(qw.q.data()),
           static_cast<std::streamsize>(qw.q.size()));
}

QuantizedWeights read_quant(Reader& r, int64_t expect_out, int64_t expect_k) {
  const int64_t out = read_i64(r);
  const int64_t k = read_i64(r);
  if (out != expect_out || k != expect_k) {
    throw std::runtime_error("model stream: quantized weight shape mismatch");
  }
  QuantizedWeights qw;
  qw.scale.resize(static_cast<size_t>(out));
  std::memcpy(qw.scale.data(),
              r.take(out * static_cast<int64_t>(sizeof(float)), "quant"),
              qw.scale.size() * sizeof(float));
  qw.act.scale = read_f32(r);
  qw.act.zero_point = static_cast<int32_t>(read_i64(r));
  const auto* q = reinterpret_cast<const int8_t*>(r.take(out * k, "quant"));
  qw.q.assign(q, q + out * k);
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

/// std::streambuf that counts bytes without storing them.
class CountingBuf : public std::streambuf {
 public:
  int64_t count = 0;

 protected:
  int overflow(int ch) override {
    ++count;
    return ch;
  }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    count += n;
    return n;
  }
};

/// The unframed kind + config + tensors payload of one layer. Nested layers
/// (Sequential / ResidualBlock children) go through the public framed
/// save_layer, so every node in the tree carries its own checksum and the
/// root frame covers the whole image.
void save_layer_body(std::ostream& os, const Layer& layer) {
  write_string(os, layer.kind());
  if (const auto* conv = dynamic_cast<const Conv2d*>(&layer)) {
    write_i64(os, conv->in_channels());
    write_i64(os, conv->out_channels());
    write_i64(os, conv->options().kernel);
    write_i64(os, conv->options().stride);
    write_i64(os, conv->options().pad);
    write_u32(os, conv->has_bias() ? 1 : 0);
    write_u32(os, conv->quantized() ? 1 : 0);
    if (conv->quantized()) {
      write_quant(os, conv->quant());
    } else {
      write_tensor(os, conv->weight());
    }
    if (conv->has_bias()) write_tensor(os, const_cast<Conv2d*>(conv)->bias());
  } else if (const auto* dw = dynamic_cast<const DepthwiseConv2d*>(&layer)) {
    write_i64(os, dw->channels());
    write_i64(os, dw->options().kernel);
    write_i64(os, dw->options().stride);
    write_i64(os, dw->options().pad);
    write_u32(os, dw->has_bias() ? 1 : 0);
    write_tensor(os, dw->weight());
    if (dw->has_bias()) {
      write_tensor(os, const_cast<DepthwiseConv2d*>(dw)->bias());
    }
  } else if (const auto* bn = dynamic_cast<const BatchNorm2d*>(&layer)) {
    write_i64(os, bn->channels());
    write_f32(os, bn->eps());
    write_f32(os, bn->momentum());
    write_tensor(os, bn->gamma());
    write_tensor(os, bn->beta());
    write_tensor(os, bn->running_mean());
    write_tensor(os, bn->running_var());
  } else if (dynamic_cast<const ReLU*>(&layer) != nullptr) {
    // no state
  } else if (const auto* pool = dynamic_cast<const MaxPool2d*>(&layer)) {
    write_i64(os, pool->kernel());
    write_i64(os, pool->stride());
  } else if (dynamic_cast<const GlobalAvgPool2d*>(&layer) != nullptr) {
    // no state
  } else if (dynamic_cast<const Flatten*>(&layer) != nullptr) {
    // no state
  } else if (const auto* dense = dynamic_cast<const Dense*>(&layer)) {
    write_i64(os, dense->in_features());
    write_i64(os, dense->out_features());
    write_u32(os, dense->has_bias() ? 1 : 0);
    write_u32(os, dense->quantized() ? 1 : 0);
    if (dense->quantized()) {
      write_quant(os, dense->quant());
    } else {
      write_tensor(os, dense->weight());
    }
    if (dense->has_bias()) write_tensor(os, const_cast<Dense*>(dense)->bias());
  } else if (const auto* seq = dynamic_cast<const Sequential*>(&layer)) {
    write_u32(os, static_cast<uint32_t>(seq->size()));
    for (int i = 0; i < seq->size(); ++i) save_layer(os, seq->layer(i));
  } else if (const auto* res = dynamic_cast<const ResidualBlock*>(&layer)) {
    auto& block = const_cast<ResidualBlock&>(*res);
    write_i64(os, res->in_channels());
    write_i64(os, res->out_channels());
    write_i64(os, res->stride());
    write_i64(os, res->internal_channels());
    save_layer(os, block.conv1());
    save_layer(os, block.bn1());
    save_layer(os, block.conv2());
    save_layer(os, block.bn2());
    if (res->has_downsample()) {
      save_layer(os, block.down_conv());
      save_layer(os, block.down_bn());
    }
  } else {
    throw std::runtime_error("save_layer: unsupported layer kind '" +
                             layer.kind() + "'");
  }
}

std::unique_ptr<Layer> parse_section(Reader& r);

/// Parses one unframed layer body. Nested layers are framed sections of
/// this body and parse in place, each within its own length.
std::unique_ptr<Layer> parse_body(Reader& r) {
  const std::string kind = read_string(r);
  Rng rng(0);  // weights are overwritten right after construction
  if (kind == "Conv2d") {
    const int64_t in_c = read_i64(r);
    const int64_t out_c = read_i64(r);
    Conv2d::Options opt;
    opt.kernel = read_i64(r);
    opt.stride = read_i64(r);
    opt.pad = read_i64(r);
    opt.bias = read_u32(r) != 0;
    const bool quantized = read_u32(r) != 0;
    param_bytes(r, {out_c, in_c, opt.kernel, opt.kernel},
                quantized ? 1 : sizeof(float));
    check_window(opt.kernel, opt.stride, opt.pad);
    auto conv = std::make_unique<Conv2d>(in_c, out_c, opt, rng);
    const Shape wshape{out_c, in_c, opt.kernel, opt.kernel};
    if (quantized) {
      QuantizedWeights qw = read_quant(r, out_c, in_c * opt.kernel * opt.kernel);
      conv->weight() = dequantized_weight(qw, wshape);
      conv->set_quantized(std::move(qw));
    } else {
      conv->weight() = read_tensor(r, wshape);
    }
    if (opt.bias) conv->bias() = read_tensor(r, Shape{out_c});
    return conv;
  }
  if (kind == "DepthwiseConv2d") {
    const int64_t channels = read_i64(r);
    DepthwiseConv2d::Options opt;
    opt.kernel = read_i64(r);
    opt.stride = read_i64(r);
    opt.pad = read_i64(r);
    opt.bias = read_u32(r) != 0;
    param_bytes(r, {channels, opt.kernel, opt.kernel}, sizeof(float));
    check_window(opt.kernel, opt.stride, opt.pad);
    auto dw = std::make_unique<DepthwiseConv2d>(channels, opt, rng);
    dw->weight() = read_tensor(r, Shape{channels, opt.kernel, opt.kernel});
    if (opt.bias) dw->bias() = read_tensor(r, Shape{channels});
    return dw;
  }
  if (kind == "BatchNorm2d") {
    const int64_t c = read_i64(r);
    const float eps = read_f32(r);
    const float momentum = read_f32(r);
    param_bytes(r, {c, 4}, sizeof(float));  // gamma, beta, mean, var
    auto bn = std::make_unique<BatchNorm2d>(c, eps, momentum);
    bn->gamma() = read_tensor(r, Shape{c});
    bn->beta() = read_tensor(r, Shape{c});
    bn->running_mean() = read_tensor(r, Shape{c});
    bn->running_var() = read_tensor(r, Shape{c});
    return bn;
  }
  if (kind == "ReLU") return std::make_unique<ReLU>();
  if (kind == "MaxPool2d") {
    const int64_t k = read_i64(r);
    const int64_t s = read_i64(r);
    if (k < 1 || s < 1) throw std::runtime_error("model stream: bad pool window");
    return std::make_unique<MaxPool2d>(k, s);
  }
  if (kind == "GlobalAvgPool2d") return std::make_unique<GlobalAvgPool2d>();
  if (kind == "Flatten") return std::make_unique<Flatten>();
  if (kind == "Dense") {
    const int64_t in_f = read_i64(r);
    const int64_t out_f = read_i64(r);
    const bool bias = read_u32(r) != 0;
    const bool quantized = read_u32(r) != 0;
    param_bytes(r, {out_f, in_f}, quantized ? 1 : sizeof(float));
    auto dense = std::make_unique<Dense>(in_f, out_f, rng, bias);
    if (quantized) {
      QuantizedWeights qw = read_quant(r, out_f, in_f);
      dense->weight() = dequantized_weight(qw, Shape{out_f, in_f});
      dense->set_quantized(std::move(qw));
    } else {
      dense->weight() = read_tensor(r, Shape{out_f, in_f});
    }
    if (bias) dense->bias() = read_tensor(r, Shape{out_f});
    return dense;
  }
  if (kind == "Sequential") {
    const uint32_t n = read_u32(r);
    auto seq = std::make_unique<Sequential>();
    for (uint32_t i = 0; i < n; ++i) seq->add(parse_section(r));
    return seq;
  }
  if (kind == "ResidualBlock") {
    const int64_t in_c = read_i64(r);
    const int64_t out_c = read_i64(r);
    const int64_t stride = read_i64(r);
    const int64_t internal = read_i64(r);
    if (stride < 1 || internal > out_c) {
      throw std::runtime_error("load_layer: malformed ResidualBlock");
    }
    // The block is built at its stored internal width. Its convolutions
    // (int8 at the least, one byte per weight) must fit in what is left.
    const bool down = stride != 1 || in_c != out_c;
    if (param_bytes(r, {internal, in_c, 3, 3}, 1) +
            param_bytes(r, {out_c, internal, 3, 3}, 1) +
            (down ? param_bytes(r, {out_c, in_c}, 1) : 0) >
        r.left) {
      throw std::runtime_error("model stream: layer larger than its section");
    }
    auto block =
        std::make_unique<ResidualBlock>(in_c, out_c, stride, rng, internal);
    auto copy_into = [&r](Conv2d& conv, BatchNorm2d& bn) {
      auto loaded_conv = parse_section(r);
      auto loaded_bn = parse_section(r);
      auto* c = dynamic_cast<Conv2d*>(loaded_conv.get());
      auto* b = dynamic_cast<BatchNorm2d*>(loaded_bn.get());
      if (!c || !b || c->weight().shape() != conv.weight().shape() ||
          b->channels() != bn.channels()) {
        throw std::runtime_error("load_layer: malformed ResidualBlock");
      }
      conv.weight() = c->weight();
      // A quantized member keeps its quantization through the reload (the
      // weight copy above is only the f32 fallback).
      if (c->quantized()) conv.set_quantized(QuantizedWeights(c->quant()));
      bn.gamma() = b->gamma();
      bn.beta() = b->beta();
      bn.running_mean() = b->running_mean();
      bn.running_var() = b->running_var();
    };
    copy_into(block->conv1(), block->bn1());
    copy_into(block->conv2(), block->bn2());
    if (down) copy_into(block->down_conv(), block->down_bn());
    return block;
  }
  throw std::runtime_error("load_layer: unknown layer kind '" + kind + "'");
}

/// Verifies one framed section, u32(crc) i64(len) body[len], and parses
/// its body in place.
std::unique_ptr<Layer> parse_section(Reader& r) {
  const uint32_t crc = read_u32(r);
  const int64_t len = read_i64(r);
  Reader body{r.take(len, "layer section"), len};
  if (crc32c(body.p, static_cast<size_t>(len)) != crc) {
    throw IntegrityError(
        "layer section checksum mismatch — corrupted model image");
  }
  return parse_body(body);
}

/// Bytes between the read position of `is` and its end.
int64_t bytes_left(std::istream& is) {
  const std::istream::pos_type here = is.tellg();
  if (here < 0) throw std::runtime_error("model stream: not seekable");
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end = is.tellg();
  is.seekg(here);
  return static_cast<int64_t>(end - here);
}

}  // namespace

void save_layer(std::ostream& os, const Layer& layer) {
  // Frame (format v4): buffer the body, then emit crc + len + bytes so the
  // loader can verify the section before parsing a single field of it.
  std::ostringstream body;
  save_layer_body(body, layer);
  const std::string bytes = body.str();
  write_u32(os, crc32c(bytes.data(), bytes.size()));
  write_i64(os, static_cast<int64_t>(bytes.size()));
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::unique_ptr<Layer> load_layer(std::istream& is) {
  char head[12];  // the frame: u32(crc) i64(len)
  is.read(head, sizeof(head));
  if (!is) throw std::runtime_error("model stream truncated (layer section)");
  int64_t len = 0;
  std::memcpy(&len, head + 4, sizeof(len));
  // Read only once the stream is known to hold it: a forged length must
  // not size a buffer.
  if (len < 0 || len > bytes_left(is)) {
    throw std::runtime_error("model stream truncated (layer section)");
  }
  std::string bytes(head, sizeof(head));
  bytes.resize(sizeof(head) + static_cast<size_t>(len));
  is.read(bytes.data() + sizeof(head), static_cast<std::streamsize>(len));
  if (!is) throw std::runtime_error("model stream truncated (layer section)");
  Reader r{bytes.data(), static_cast<int64_t>(bytes.size())};
  return parse_section(r);
}

void save_model(std::ostream& os, const Layer& model) {
  char header[8] = {'T', 'B', 'N', 'M'};
  const uint32_t version = kModelFormatVersion;
  std::memcpy(header + 4, &version, sizeof(version));
  os.write(header, sizeof(header));
  write_u32(os, crc32c(header, sizeof(header)));
  save_layer(os, model);
}

std::unique_ptr<Layer> load_model(std::istream& is) {
  char header[8] = {};
  is.read(header, 4);
  if (!is || std::memcmp(header, "TBNM", 4) != 0) {
    throw std::runtime_error("load_model: bad magic");
  }
  uint32_t version = 0;
  is.read(header + 4, sizeof(version));
  std::memcpy(&version, header + 4, sizeof(version));
  if (!is || version != kModelFormatVersion) {
    throw std::runtime_error("load_model: unsupported version " +
                             std::to_string(version));
  }
  uint32_t crc = 0;
  is.read(reinterpret_cast<char*>(&crc), sizeof(crc));
  if (!is) throw std::runtime_error("model stream truncated (u32)");
  if (crc != crc32c(header, sizeof(header))) {
    throw IntegrityError(
        "model header checksum mismatch — corrupted model image");
  }
  return load_layer(is);
}

void save_model_file(const std::string& path, const Layer& model) {
  std::ofstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("save_model_file: cannot open " + path);
  save_model(f, model);
}

std::unique_ptr<Layer> load_model_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("load_model_file: cannot open " + path);
  return load_model(f);
}

int64_t serialized_size(const Layer& model) {
  CountingBuf buf;
  std::ostream os(&buf);
  save_model(os, model);
  return buf.count;
}

}  // namespace tbnet::nn
