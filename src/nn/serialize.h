#pragma once
// Binary model (de)serialization.
//
// Format: a small tagged tree mirroring the layer structure. This is the
// on-disk / in-TA ("trusted application") representation used by the
// deployment packager: the secure branch M_T is serialized with this code,
// measured, and loaded inside the simulated TEE.
//
//   file    := magic "TBNM" u32(version) u32(header_crc) layer
//   layer   := u32(crc) i64(len) body[len]
//   body    := string(kind) kind-specific-config tensors
//
// All integers little-endian; tensors are rank + dims + raw float32.

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "nn/layer.h"
#include "tensor/bytes.h"

namespace tbnet::nn {

/// A checksum failed while loading a model image: the bytes were damaged
/// after serialization (bit rot, truncated copy, tampering, or an injected
/// tee::FaultInjector corruption). Distinct from plain std::runtime_error
/// parse failures so deployment code can map it to the typed
/// runtime::Status::kIntegrityError — a corrupted image must be rejected
/// at deploy, never silently produce wrong logits.
class IntegrityError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Version history:
///   1 — initial format.
///   2 — DepthwiseConv2d gains an optional bias (has_bias flag + tensor),
///       so deploy-time BN folding can absorb into depthwise stages too.
///   3 — Conv2d / Dense gain a quantized flag: a quantized layer ships its
///       per-channel scales, activation quantizer, and raw int8 weight bytes
///       INSTEAD of the float32 weight (~4x smaller TA images); the loader
///       rebuilds the f32 fallback as q * scale and re-attaches the
///       quantization (nn/quant.h).
///   4 — integrity checksums: the header gains a CRC32C over the magic +
///       version bytes, and every layer section is framed as
///       u32(crc32c) i64(len) body — nested layers (Sequential /
///       ResidualBlock children) carry their own frames inside the parent's
///       body, so the root frame doubles as a whole-image checksum. Loaders
///       verify every frame and throw IntegrityError on mismatch.
/// Writers emit v4 and the loaders read v4 only: a TA image is hostile
/// input, and v1–v3 carried no checksums. The loader reads the nine kinds
/// this library writes (Conv2d, BatchNorm2d, ReLU, MaxPool2d,
/// GlobalAvgPool2d, Flatten, Dense, Sequential, ResidualBlock) and rejects
/// any other kind with std::runtime_error.
/// It reads through one bounded ByteReader (tensor/bytes.h) and checks every
/// section length, tensor shape and layer parameter count against the bytes
/// actually left before it allocates or builds anything. Each layer is then
/// built from the tensors it parsed, with nothing drawn to be overwritten. A
/// ResidualBlock is built from its parsed member sections: they must follow
/// the member rule (nn/residual.h) and match the block's header, so a member
/// field the block would ignore (a bias, another stride) is rejected rather
/// than dropped.
inline constexpr uint32_t kModelFormatVersion = 4;

/// Appends a layer tree (any Layer produced by this library) as one
/// checksummed v4 section (crc + len + body).
void save_layer(std::vector<uint8_t>& out, const Layer& layer);

/// Reads one v4 section from `r`. Malformed or truncated input throws
/// std::runtime_error, a checksum mismatch IntegrityError (a subclass);
/// nothing else escapes.
std::unique_ptr<Layer> load_layer(ByteReader& r);

/// Whole-model forms: the magic/version header, then the root section.
/// load_model reads exactly that much of `r`, so several streams can follow
/// one another in one buffer.
void save_model(std::vector<uint8_t>& out, const Layer& model);
std::unique_ptr<Layer> load_model(ByteReader& r);

}  // namespace tbnet::nn
