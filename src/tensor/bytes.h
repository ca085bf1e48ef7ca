#pragma once
// The byte codec under every wire format this library reads: model streams
// (nn/serialize), two-branch streams (core/two_branch), the TA image and the
// kCmdRun / kCmdSetWidth payloads (runtime/deployed, tee/optee_api). In
// TBNet the REE is the attacker, so these bytes are hostile input. A
// ByteReader checks the bytes left before every read touches or allocates
// anything; a read that does not fit throws std::runtime_error and consumes
// nothing. Values are stored as the host lays them out (little-endian on
// every supported target).

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace tbnet {

/// Reads a byte span front to back.
class ByteReader {
 public:
  explicit ByteReader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  /// Bytes consumed so far / still unread.
  size_t pos() const { return pos_; }
  size_t left() const { return bytes_.size() - pos_; }

  /// The next `n` bytes, as a view into the span. `n` may come from the
  /// input itself: a negative or oversized count is rejected.
  std::span<const uint8_t> take(int64_t n, const char* what) {
    if (n < 0 || static_cast<uint64_t>(n) > left()) fail(what);
    const std::span<const uint8_t> out =
        bytes_.subspan(pos_, static_cast<size_t>(n));
    pos_ += out.size();
    return out;
  }

  uint32_t u32(const char* what) { return pod<uint32_t>(what); }
  int64_t i64(const char* what) { return pod<int64_t>(what); }
  float f32(const char* what) { return pod<float>(what); }

  /// `count` floats. The count is bounded by the bytes left before it is
  /// multiplied, so a huge one cannot wrap the byte size.
  std::vector<float> floats(int64_t count, const char* what) {
    if (count < 0 || static_cast<uint64_t>(count) > left() / sizeof(float)) {
      fail(what);
    }
    return array<float>(count, what);
  }

  /// An i64 count, then that many i64 values (what put_i64s writes).
  std::vector<int64_t> i64s(const char* what) {
    const size_t start = pos_;
    const int64_t count = i64(what);
    if (count < 0 || static_cast<uint64_t>(count) > left() / sizeof(int64_t)) {
      pos_ = start;
      fail(what);
    }
    return array<int64_t>(count, what);
  }

 private:
  [[noreturn]] static void fail(const char* what) {
    throw std::runtime_error(std::string("truncated input (") + what + ")");
  }

  template <typename T>
  T pod(const char* what) {
    T v;
    std::memcpy(&v, take(sizeof(T), what).data(), sizeof(T));
    return v;
  }

  /// `count` values of T; the caller has bounded `count` by left().
  template <typename T>
  std::vector<T> array(int64_t count, const char* what) {
    std::vector<T> out(static_cast<size_t>(count));
    const std::span<const uint8_t> bytes =
        take(count * static_cast<int64_t>(sizeof(T)), what);
    if (!out.empty()) std::memcpy(out.data(), bytes.data(), bytes.size());
    return out;
  }

  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

/// Appenders for the formats ByteReader reads.
inline void put_bytes(std::vector<uint8_t>& out, const void* data, size_t n) {
  if (n == 0) return;
  const size_t at = out.size();
  out.resize(at + n);
  std::memcpy(out.data() + at, data, n);
}
inline void put_u32(std::vector<uint8_t>& out, uint32_t v) {
  put_bytes(out, &v, sizeof(v));
}
inline void put_i64(std::vector<uint8_t>& out, int64_t v) {
  put_bytes(out, &v, sizeof(v));
}
inline void put_f32(std::vector<uint8_t>& out, float v) {
  put_bytes(out, &v, sizeof(v));
}
inline void put_floats(std::vector<uint8_t>& out, const float* data,
                       int64_t count) {
  put_bytes(out, data, static_cast<size_t>(count) * sizeof(float));
}
inline void put_i64s(std::vector<uint8_t>& out, const std::vector<int64_t>& v) {
  put_i64(out, static_cast<int64_t>(v.size()));
  put_bytes(out, v.data(), v.size() * sizeof(int64_t));
}

/// Overwrites the bytes at `at` that a placeholder reserved: a length or a
/// checksum that precedes the bytes it describes, known once they are
/// written.
template <typename T>
void put_at(std::vector<uint8_t>& out, size_t at, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  std::memcpy(out.data() + at, &v, sizeof(v));
}

}  // namespace tbnet
