// Binary encode/decode primitives.
//
// ByteWriter appends little-endian primitives to a growable buffer and
// optionally supports CDR-style alignment (used by the CORBA-like platform).
// ByteReader is the bounds-checked mirror; it throws DecodeError instead of
// reading past the end.
//
// ByteWriter's backing buffer comes from BufferPool: construction acquires
// a recycled vector (capacity intact from a previous request), destruction
// recycles whatever was not take()n out. take() transfers ownership to the
// caller. A delivered payload is recycled where its hop ends, on the
// receive path; a dropped one is simply freed (see DESIGN.md §10).
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/buffer_pool.h"
#include "common/error.h"

namespace cqos {

/// Bytes ByteWriter::put_varint(v) writes.
inline std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

class ByteWriter {
 public:
  ByteWriter() : buf_(BufferPool::acquire()) {}
  explicit ByteWriter(std::size_t reserve) : buf_(BufferPool::acquire(reserve)) {}
  ~ByteWriter() { BufferPool::recycle(std::move(buf_)); }

  ByteWriter(const ByteWriter&) = delete;
  ByteWriter& operator=(const ByteWriter&) = delete;

  void put_u8(std::uint8_t v) { buf_.push_back(v); }

  void put_u16(std::uint16_t v) { put_le(v); }
  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }
  void put_i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }

  void put_f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    put_u64(bits);
  }

  /// Unsigned LEB128; the compact length encoding used by the RMI-like
  /// platform's stream format.
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      put_u8(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    put_u8(static_cast<std::uint8_t>(v));
  }

  void put_bytes(std::span<const std::uint8_t> data) {
    buf_.insert(buf_.end(), data.begin(), data.end());
  }

  /// Length-prefixed (varint) byte string.
  void put_blob(std::span<const std::uint8_t> data) {
    put_varint(data.size());
    put_bytes(data);
  }

  /// Length-prefixed (varint) string.
  void put_string(std::string_view s) {
    put_varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Pad with zero bytes until the write position is a multiple of `n`.
  /// Models CDR alignment rules in the CORBA-like encoding.
  void align(std::size_t n) {
    while (buf_.size() % n != 0) buf_.push_back(0);
  }

  /// Overwrite 4 bytes at `offset` (little-endian). Used to patch frame
  /// lengths after the body is written.
  void patch_u32(std::size_t offset, std::uint32_t v) {
    for (std::size_t i = 0; i < 4; ++i) {
      buf_.at(offset + i) = static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  std::size_t size() const { return buf_.size(); }
  const Bytes& data() const& { return buf_; }
  Bytes take() && { return std::move(buf_); }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  Bytes buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::uint8_t get_u8() {
    check(1);
    return data_[pos_++];
  }

  std::uint16_t get_u16() { return get_le<std::uint16_t>(); }
  std::uint32_t get_u32() { return get_le<std::uint32_t>(); }
  std::uint64_t get_u64() { return get_le<std::uint64_t>(); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }

  double get_f64() {
    std::uint64_t bits = get_u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::uint64_t get_varint() {
    std::uint64_t v = 0;
    int shift = 0;
    for (;;) {
      std::uint8_t b = get_u8();
      std::uint64_t group = b & 0x7f;
      // The 10th group sits at shift 63: only its low bit fits in a u64.
      // Anything else would silently truncate, so reject it.
      if (shift == 63 && group > 1) throw DecodeError("varint overflows u64");
      v |= group << shift;
      if ((b & 0x80) == 0) return v;
      shift += 7;
      if (shift > 63) throw DecodeError("varint too long");
    }
  }

  Bytes get_bytes(std::size_t n) {
    check(n);
    Bytes out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
              data_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
    pos_ += n;
    return out;
  }

  /// Zero-copy read: a span over the next `n` bytes of the underlying
  /// buffer. Valid only while that buffer outlives the span — use for
  /// transient views (hash input, string construction), not for storage.
  std::span<const std::uint8_t> view(std::size_t n) {
    check(n);
    auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  Bytes get_blob() {
    std::uint64_t n = get_varint();
    if (n > remaining()) throw DecodeError("blob length exceeds buffer");
    return get_bytes(static_cast<std::size_t>(n));
  }

  std::string get_string() {
    std::uint64_t n = get_varint();
    if (n > remaining()) throw DecodeError("string length exceeds buffer");
    check(n);
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  /// Skip CDR alignment padding.
  void align(std::size_t n) {
    while (pos_ % n != 0) {
      check(1);
      ++pos_;
    }
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }
  std::size_t position() const { return pos_; }

 private:
  template <typename T>
  T get_le() {
    check(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<T>(data_[pos_ + i]) << (8 * i));
    }
    pos_ += sizeof(T);
    return v;
  }

  void check(std::size_t n) const {
    if (pos_ + n > data_.size()) {
      throw DecodeError("read past end of buffer (" + std::to_string(n) +
                        " bytes at offset " + std::to_string(pos_) + " of " +
                        std::to_string(data_.size()) + ")");
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace cqos
