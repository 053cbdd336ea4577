#include "platform/corba/giop.h"

#include "platform/corba/cdr.h"

namespace cqos::corba {
namespace {

constexpr std::uint8_t kMagic[4] = {'G', 'I', 'O', 'P'};
constexpr std::uint8_t kVersionMajor = 1;
constexpr std::uint8_t kVersionMinor = 2;
constexpr std::uint8_t kFlagsLittleEndian = 1;
constexpr std::size_t kSizeOffset = 8;  // body-size field position

}  // namespace

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

void finish_frame(ByteWriter& w) {
  w.patch_u32(kSizeOffset, static_cast<std::uint32_t>(w.size() - 12));
}

GiopHeader read_frame(ByteReader& r) {
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
  GiopHeader h;
  h.type = static_cast<MsgType>(r.get_u8());
  std::uint32_t body_size = r.get_u32();
  r.align(8);
  h.request_id = r.get_u64();
  if (body_size + 12 < r.position()) throw DecodeError("GIOP size underflow");
  return h;
}

namespace {

Bytes reply_message(std::uint64_t request_id, GiopReplyStatus status,
                    const PiggybackMap& service_context, const Value& result,
                    const std::string& error) {
  ByteWriter w(128);
  begin_frame(w, MsgType::kReply, request_id);
  w.put_u8(static_cast<std::uint8_t>(status));
  encode_service_context(w, service_context);
  if (status == GiopReplyStatus::kNoException) {
    encode_any(w, result);
  } else {
    encode_cdr_string(w, error);
  }
  finish_frame(w);
  return std::move(w).take();
}

}  // namespace

Bytes encode_request(std::uint64_t request_id, const RequestBody& body) {
  return giop_codec().encode_request(request_id, body.reply_to,
                                     body.object_key, body.operation,
                                     body.service_context, body.params);
}

RequestBody decode_request_body(ByteReader& r) {
  RequestBody body;
  body.reply_to = decode_cdr_string(r);
  body.object_key = decode_cdr_string(r);
  body.operation = decode_cdr_string(r);
  body.service_context = decode_service_context(r);
  r.align(4);
  std::uint32_t n = r.get_u32();
  if (n > r.remaining()) throw DecodeError("param count too large");
  body.params.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) body.params.push_back(decode_any(r));
  return body;
}

Bytes encode_reply(std::uint64_t request_id, const ReplyBody& body) {
  return reply_message(request_id, body.status, body.service_context,
                       body.result, body.error);
}

ReplyBody decode_reply_body(ByteReader& r) {
  ReplyBody body;
  body.status = static_cast<GiopReplyStatus>(r.get_u8());
  body.service_context = decode_service_context(r);
  if (body.status == GiopReplyStatus::kNoException) {
    body.result = decode_any(r);
  } else {
    body.error = decode_cdr_string(r);
  }
  return body;
}

namespace {

class GiopCodec : public plat::Codec {
 public:
  plat::Frame decode(const Bytes& bytes) const override {
    ByteReader r(bytes);
    GiopHeader header = read_frame(r);
    switch (header.type) {
      case MsgType::kRequest: {
        RequestBody b = decode_request_body(r);
        return plat::Frame::request(
            header.request_id, std::move(b.reply_to), std::move(b.object_key),
            std::move(b.operation), std::move(b.service_context),
            std::move(b.params));
      }
      case MsgType::kReply: {
        ReplyBody b = decode_reply_body(r);
        return plat::Frame::answer(
            header.request_id, b.status == GiopReplyStatus::kNoException,
            std::move(b.result), std::move(b.error),
            std::move(b.service_context));
      }
      case MsgType::kPing:
        return plat::Frame::ping(header.request_id, decode_cdr_string(r));
      case MsgType::kPong:
        return plat::Frame::answer(header.request_id, r.get_u8() != 0);
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
    finish_frame(w);
    return std::move(w).take();
  }
  /// kUnreachable (a no-such-object reply) travels as a system exception.
  Bytes encode_reply(std::uint64_t id,
                     const plat::Reply& reply) const override {
    GiopReplyStatus status =
        reply.ok() ? GiopReplyStatus::kNoException
        : reply.status == plat::ReplyStatus::kAppError
            ? GiopReplyStatus::kUserException
            : GiopReplyStatus::kSystemException;
    return reply_message(id, status, reply.piggyback, reply.result,
                         reply.error);
  }
  Bytes encode_ping(std::uint64_t id,
                    const std::string& reply_to) const override {
    ByteWriter w(48);
    begin_frame(w, MsgType::kPing, id);
    encode_cdr_string(w, reply_to);
    finish_frame(w);
    return std::move(w).take();
  }
  Bytes encode_pong(std::uint64_t id) const override {
    ByteWriter w(32);
    begin_frame(w, MsgType::kPong, id);
    w.put_u8(1);
    finish_frame(w);
    return std::move(w).take();
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
