#include "platform/corba/giop.h"

#include "platform/corba/cdr.h"

namespace cqos::corba {
namespace {

enum class MsgType : std::uint8_t {
  kRequest = 0,
  kReply = 1,
  kPing = 7,
  kPong = 8,
};

enum class ReplyStatus : std::uint8_t {
  kNoException = 0,
  kUserException = 1,
  kSystemException = 2,
};

constexpr std::uint8_t kMagic[4] = {'G', 'I', 'O', 'P'};
constexpr std::uint8_t kVersionMajor = 1;
constexpr std::uint8_t kVersionMinor = 2;
constexpr std::uint8_t kFlagsLittleEndian = 1;
constexpr std::size_t kSizeOffset = 8;  // body-size field position

/// Write the 12-byte header and the request id; finish_frame() patches the
/// body size once the body follows.
void begin_frame(ByteWriter& w, MsgType type, std::uint64_t request_id) {
  w.put_bytes(kMagic);
  w.put_u8(kVersionMajor);
  w.put_u8(kVersionMinor);
  w.put_u8(kFlagsLittleEndian);
  w.put_u8(static_cast<std::uint8_t>(type));
  w.put_u32(0);  // body size, patched by finish_frame
  w.align(8);
  w.put_u64(request_id);
}

Bytes finish_frame(ByteWriter& w) {
  w.patch_u32(kSizeOffset, static_cast<std::uint32_t>(w.size() - 12));
  return std::move(w).take();
}

class GiopCodec : public plat::Codec {
 public:
  plat::Frame decode(const Bytes& bytes) const override {
    ByteReader r(bytes);
    Bytes magic = r.get_bytes(4);
    if (!std::equal(magic.begin(), magic.end(), kMagic)) {
      throw DecodeError("bad GIOP magic");
    }
    std::uint8_t major = r.get_u8();
    std::uint8_t minor = r.get_u8();
    if (major != kVersionMajor || minor != kVersionMinor) {
      throw DecodeError("unsupported GIOP version");
    }
    (void)r.get_u8();  // flags (always little-endian here)
    const auto type = static_cast<MsgType>(r.get_u8());
    std::uint32_t body_size = r.get_u32();
    r.align(8);
    const std::uint64_t id = r.get_u64();
    if (body_size + 12 < r.position()) throw DecodeError("GIOP size underflow");

    switch (type) {
      case MsgType::kRequest: {
        std::string reply_to = decode_cdr_string(r);
        std::string object_key = decode_cdr_string(r);
        std::string operation = decode_cdr_string(r);
        PiggybackMap service_context = decode_service_context(r);
        r.align(4);
        std::uint32_t n = r.get_u32();
        if (n > r.remaining()) throw DecodeError("param count too large");
        ValueList params;
        params.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) params.push_back(decode_any(r));
        return plat::Frame::request(id, std::move(reply_to),
                                    std::move(object_key), std::move(operation),
                                    std::move(service_context),
                                    std::move(params));
      }
      case MsgType::kReply: {
        const bool ok =
            static_cast<ReplyStatus>(r.get_u8()) == ReplyStatus::kNoException;
        PiggybackMap service_context = decode_service_context(r);
        if (ok) {
          return plat::Frame::answer(id, true, decode_any(r), {},
                                     std::move(service_context));
        }
        return plat::Frame::answer(id, false, {}, decode_cdr_string(r),
                                   std::move(service_context));
      }
      case MsgType::kPing:
        return plat::Frame::ping(id, decode_cdr_string(r));
      case MsgType::kPong:
        return plat::Frame::answer(id, r.get_u8() != 0);
      default:
        throw DecodeError("unexpected GIOP message type");
    }
  }

  Bytes encode_request(std::uint64_t id, const std::string& reply_to,
                       const std::string& target, const std::string& method,
                       const PiggybackMap& pb,
                       const ValueList& params) const override {
    ByteWriter w(256);
    begin_frame(w, MsgType::kRequest, id);
    encode_cdr_string(w, reply_to);
    encode_cdr_string(w, target);
    encode_cdr_string(w, method);
    encode_service_context(w, pb);
    w.align(4);
    w.put_u32(static_cast<std::uint32_t>(params.size()));
    for (const auto& p : params) encode_any(w, p);
    return finish_frame(w);
  }
  /// kUnreachable (a no-such-object reply) travels as a system exception.
  Bytes encode_reply(std::uint64_t id,
                     const plat::Reply& reply) const override {
    ReplyStatus status = reply.ok() ? ReplyStatus::kNoException
                         : reply.status == plat::ReplyStatus::kAppError
                             ? ReplyStatus::kUserException
                             : ReplyStatus::kSystemException;
    ByteWriter w(128);
    begin_frame(w, MsgType::kReply, id);
    w.put_u8(static_cast<std::uint8_t>(status));
    encode_service_context(w, reply.piggyback);
    if (reply.ok()) {
      encode_any(w, reply.result);
    } else {
      encode_cdr_string(w, reply.error);
    }
    return finish_frame(w);
  }
  Bytes encode_ping(std::uint64_t id,
                    const std::string& reply_to) const override {
    ByteWriter w(48);
    begin_frame(w, MsgType::kPing, id);
    encode_cdr_string(w, reply_to);
    return finish_frame(w);
  }
  Bytes encode_pong(std::uint64_t id) const override {
    ByteWriter w(32);
    begin_frame(w, MsgType::kPong, id);
    w.put_u8(1);
    return finish_frame(w);
  }
  std::string not_found(const std::string& target) const override {
    return "OBJECT_NOT_EXIST: " + target;
  }
};

}  // namespace

const plat::Codec& giop_codec() {
  static const GiopCodec codec;
  return codec;
}

}  // namespace cqos::corba
