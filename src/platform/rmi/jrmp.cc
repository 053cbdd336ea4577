#include "platform/rmi/jrmp.h"

namespace cqos::rmi {
namespace {

enum class MsgType : std::uint8_t {
  kCall = 1,
  kReturn = 2,
  kPing = 3,
  kPong = 4,
};

constexpr std::uint8_t kMagic = 0x4a;  // 'J'

void begin_message(ByteWriter& w, MsgType type, std::uint64_t call_id) {
  w.put_u8(kMagic);
  w.put_u8(static_cast<std::uint8_t>(type));
  w.put_varint(call_id);
}

class JrmpCodec : public plat::Codec {
 public:
  plat::Frame decode(const Bytes& bytes) const override {
    ByteReader r(bytes);
    if (r.get_u8() != kMagic) throw DecodeError("bad JRMP magic");
    const auto type = static_cast<MsgType>(r.get_u8());
    const std::uint64_t id = r.get_varint();
    switch (type) {
      case MsgType::kCall: {
        std::string reply_to = r.get_string();
        std::string target = r.get_string();
        std::string method = r.get_string();
        PiggybackMap pb = decode_piggyback(r);
        std::uint64_t n = r.get_varint();
        if (n > r.remaining()) throw DecodeError("param count too large");
        ValueList params;
        params.reserve(n);
        for (std::uint64_t i = 0; i < n; ++i) {
          params.push_back(Value::decode(r));
        }
        return plat::Frame::request(id, std::move(reply_to), std::move(target),
                                    std::move(method), std::move(pb),
                                    std::move(params));
      }
      case MsgType::kReturn: {
        const bool ok = r.get_u8() != 0;
        Value result;
        std::string error;
        if (ok) {
          result = Value::decode(r);
        } else {
          error = r.get_string();
        }
        return plat::Frame::answer(id, ok, std::move(result), std::move(error),
                                   decode_piggyback(r));
      }
      case MsgType::kPing:
        return plat::Frame::ping(id, r.get_string());
      case MsgType::kPong:
        return plat::Frame::answer(id, r.get_u8() != 0);
      default:
        throw DecodeError("unexpected JRMP message type");
    }
  }

  Bytes encode_request(std::uint64_t id, const std::string& reply_to,
                       const std::string& target, const std::string& method,
                       const PiggybackMap& pb,
                       const ValueList& params) const override {
    // Exact-size pre-pass for the dominant part (the params); the strings
    // and piggyback get a small headroom constant. With the BufferPool warm
    // this only matters for the first call on a thread.
    ByteWriter w(64 + reply_to.size() + target.size() + method.size() +
                 Value::encoded_list_size(params));
    begin_message(w, MsgType::kCall, id);
    w.put_string(reply_to);
    w.put_string(target);
    w.put_string(method);
    encode_piggyback(w, pb);
    w.put_varint(params.size());
    for (const auto& p : params) p.encode(w);
    return std::move(w).take();
  }
  Bytes encode_reply(std::uint64_t id,
                     const plat::Reply& reply) const override {
    const bool ok = reply.ok();
    ByteWriter w(32 + (ok ? reply.result.encoded_size()
                          : reply.error.size() + 10));
    begin_message(w, MsgType::kReturn, id);
    w.put_u8(ok ? 1 : 0);
    if (ok) {
      reply.result.encode(w);
    } else {
      w.put_string(reply.error);
    }
    encode_piggyback(w, reply.piggyback);
    return std::move(w).take();
  }
  Bytes encode_ping(std::uint64_t id,
                    const std::string& reply_to) const override {
    ByteWriter w(48);
    begin_message(w, MsgType::kPing, id);
    w.put_string(reply_to);
    return std::move(w).take();
  }
  Bytes encode_pong(std::uint64_t id) const override {
    ByteWriter w(16);
    begin_message(w, MsgType::kPong, id);
    w.put_u8(1);
    return std::move(w).take();
  }
  std::string not_found(const std::string& target) const override {
    return "NoSuchObjectException: " + target;
  }
};

}  // namespace

const plat::Codec& jrmp_codec() {
  static const JrmpCodec codec;
  return codec;
}

}  // namespace cqos::rmi
