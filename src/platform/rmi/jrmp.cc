#include "platform/rmi/jrmp.h"

namespace cqos::rmi {

void begin_message(ByteWriter& w, MsgType type, std::uint64_t call_id) {
  w.put_u8(kMagic);
  w.put_u8(static_cast<std::uint8_t>(type));
  w.put_varint(call_id);
}

Header read_header(ByteReader& r) {
  if (r.get_u8() != kMagic) throw DecodeError("bad JRMP magic");
  Header h;
  h.type = static_cast<MsgType>(r.get_u8());
  h.call_id = r.get_varint();
  return h;
}

namespace {

Bytes return_message(std::uint64_t call_id, bool ok, const Value& result,
                     const std::string& error, const PiggybackMap& pb) {
  ByteWriter w(32 + (ok ? result.encoded_size() : error.size() + 10));
  begin_message(w, MsgType::kReturn, call_id);
  w.put_u8(ok ? 1 : 0);
  if (ok) {
    result.encode(w);
  } else {
    w.put_string(error);
  }
  encode_piggyback(w, pb);
  return std::move(w).take();
}

}  // namespace

Bytes encode_call(std::uint64_t call_id, const CallBody& body) {
  return jrmp_codec().encode_request(call_id, body.reply_to, body.target,
                                     body.method, body.piggyback, body.params);
}

CallBody decode_call_body(ByteReader& r) {
  CallBody body;
  body.reply_to = r.get_string();
  body.target = r.get_string();
  body.method = r.get_string();
  body.piggyback = decode_piggyback(r);
  std::uint64_t n = r.get_varint();
  if (n > r.remaining()) throw DecodeError("param count too large");
  body.params.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) body.params.push_back(Value::decode(r));
  return body;
}

Bytes encode_return(std::uint64_t call_id, const ReturnBody& body) {
  return return_message(call_id, body.ok, body.result, body.error,
                        body.piggyback);
}

ReturnBody decode_return_body(ByteReader& r) {
  ReturnBody body;
  body.ok = r.get_u8() != 0;
  if (body.ok) {
    body.result = Value::decode(r);
  } else {
    body.error = r.get_string();
  }
  body.piggyback = decode_piggyback(r);
  return body;
}

namespace {

class JrmpCodec : public plat::Codec {
 public:
  plat::Frame decode(const Bytes& bytes) const override {
    ByteReader r(bytes);
    Header h = read_header(r);
    switch (h.type) {
      case MsgType::kCall: {
        CallBody b = decode_call_body(r);
        return plat::Frame::request(h.call_id, std::move(b.reply_to),
                                    std::move(b.target), std::move(b.method),
                                    std::move(b.piggyback),
                                    std::move(b.params));
      }
      case MsgType::kReturn: {
        ReturnBody b = decode_return_body(r);
        return plat::Frame::answer(h.call_id, b.ok, std::move(b.result),
                                   std::move(b.error), std::move(b.piggyback));
      }
      case MsgType::kPing:
        return plat::Frame::ping(h.call_id, r.get_string());
      case MsgType::kPong:
        return plat::Frame::answer(h.call_id, r.get_u8() != 0);
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
    return return_message(id, reply.ok(), reply.result, reply.error,
                          reply.piggyback);
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
