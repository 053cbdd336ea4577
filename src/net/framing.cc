#include "net/framing.h"

#include <utility>

namespace cqos::net {

Bytes encode_frame(const std::string& from, const std::string& to,
                   std::span<const std::uint8_t> payload) {
  ByteWriter w(4 + frame_overhead(from, to) + payload.size());
  w.put_u32(0);  // length placeholder
  w.put_u8(static_cast<std::uint8_t>(FrameType::kData));
  w.put_string(from);
  w.put_string(to);
  w.put_bytes(payload);
  w.patch_u32(0, static_cast<std::uint32_t>(w.size() - 4));
  return std::move(w).take();
}

std::size_t frame_overhead(const std::string& from, const std::string& to) {
  return 1 + varint_size(from.size()) + from.size() + varint_size(to.size()) +
         to.size();
}

bool FrameDecoder::fail(const std::string& why) {
  failed_ = true;
  error_ = why;
  buf_.clear();
  pos_ = 0;
  return false;
}

bool FrameDecoder::feed(std::span<const std::uint8_t> data) {
  if (failed_) return false;
  buf_.insert(buf_.end(), data.begin(), data.end());
  for (;;) {
    std::size_t avail = buf_.size() - pos_;
    if (avail < 4) break;
    const std::uint8_t* p = buf_.data() + pos_;
    std::uint32_t body_len = static_cast<std::uint32_t>(p[0]) |
                             static_cast<std::uint32_t>(p[1]) << 8 |
                             static_cast<std::uint32_t>(p[2]) << 16 |
                             static_cast<std::uint32_t>(p[3]) << 24;
    // Reject before buffering the body: the length prefix alone must not
    // make us accumulate max_frame_bytes+1 bytes waiting for a frame we
    // would refuse anyway.
    if (body_len > max_frame_bytes_) {
      return fail("frame of " + std::to_string(body_len) +
                  " bytes exceeds max " + std::to_string(max_frame_bytes_));
    }
    if (avail < 4 + static_cast<std::size_t>(body_len)) break;
    ByteReader r(std::span<const std::uint8_t>(buf_.data() + pos_ + 4,
                                               body_len));
    try {
      std::uint8_t type = r.get_u8();
      if (type != static_cast<std::uint8_t>(FrameType::kData)) {
        return fail("unknown frame type " + std::to_string(type));
      }
      Frame f;
      f.from = r.get_string();
      f.to = r.get_string();
      f.payload = r.get_bytes(r.remaining());
      ready_.push_back(std::move(f));
    } catch (const DecodeError& e) {
      return fail(std::string("malformed frame: ") + e.what());
    }
    pos_ += 4 + body_len;
  }
  // Compact once the parsed prefix dominates the buffer, so a long-lived
  // connection does not grow its accumulation buffer without bound.
  if (pos_ > 0 && (pos_ == buf_.size() || pos_ >= 64 * 1024)) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  return true;
}

std::optional<Frame> FrameDecoder::next() {
  if (ready_.empty()) return std::nullopt;
  Frame f = std::move(ready_.front());
  ready_.pop_front();
  return f;
}

}  // namespace cqos::net
