#include "platform/corba/cdr.h"

namespace cqos::corba {

void encode_cdr_string(ByteWriter& w, std::string_view s) {
  w.align(4);
  w.put_u32(static_cast<std::uint32_t>(s.size() + 1));
  w.put_bytes({reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  w.put_u8(0);
}

std::string decode_cdr_string(ByteReader& r) {
  r.align(4);
  std::uint32_t len = r.get_u32();
  if (len == 0) throw DecodeError("CDR string length 0");
  // View, not get_bytes: the string is built straight from the frame
  // buffer without an intermediate Bytes copy.
  std::span<const std::uint8_t> raw = r.view(len);
  if (raw.back() != 0) throw DecodeError("CDR string missing NUL");
  return std::string(reinterpret_cast<const char*>(raw.data()), len - 1);
}

void encode_any(ByteWriter& w, const Value& v) {
  switch (v.type()) {
    case Value::Type::kNull:
      w.put_u8(static_cast<std::uint8_t>(TcKind::kNull));
      break;
    case Value::Type::kBool:
      w.put_u8(static_cast<std::uint8_t>(TcKind::kBoolean));
      w.put_u8(v.as_bool() ? 1 : 0);
      break;
    case Value::Type::kI64:
      w.put_u8(static_cast<std::uint8_t>(TcKind::kLongLong));
      w.align(8);
      w.put_i64(v.as_i64());
      break;
    case Value::Type::kF64:
      w.put_u8(static_cast<std::uint8_t>(TcKind::kDouble));
      w.align(8);
      w.put_f64(v.as_f64());
      break;
    case Value::Type::kString:
      w.put_u8(static_cast<std::uint8_t>(TcKind::kString));
      encode_cdr_string(w, v.as_string());
      break;
    case Value::Type::kBytes: {
      w.put_u8(static_cast<std::uint8_t>(TcKind::kOctetSeq));
      w.align(4);
      const Bytes& b = v.as_bytes();
      w.put_u32(static_cast<std::uint32_t>(b.size()));
      w.put_bytes(b);
      break;
    }
    case Value::Type::kList: {
      w.put_u8(static_cast<std::uint8_t>(TcKind::kAnySeq));
      w.align(4);
      const ValueList& list = v.as_list();
      w.put_u32(static_cast<std::uint32_t>(list.size()));
      for (const auto& elem : list) encode_any(w, elem);
      break;
    }
  }
}

Value decode_any(ByteReader& r, int depth) {
  auto kind = static_cast<TcKind>(r.get_u8());
  switch (kind) {
    case TcKind::kNull:
      return Value();
    case TcKind::kBoolean:
      return Value(r.get_u8() != 0);
    case TcKind::kLongLong:
      r.align(8);
      return Value(r.get_i64());
    case TcKind::kDouble:
      r.align(8);
      return Value(r.get_f64());
    case TcKind::kString:
      return Value(decode_cdr_string(r));
    case TcKind::kOctetSeq: {
      r.align(4);
      std::uint32_t n = r.get_u32();
      return Value(r.get_bytes(n));
    }
    case TcKind::kAnySeq: {
      if (depth >= Value::kMaxNesting) {
        throw DecodeError("Any sequences nested too deep");
      }
      r.align(4);
      std::uint32_t n = r.get_u32();
      if (n > r.remaining()) throw DecodeError("Any sequence too long");
      ValueList list;
      list.reserve(n);
      for (std::uint32_t i = 0; i < n; ++i) {
        list.push_back(decode_any(r, depth + 1));
      }
      return Value(std::move(list));
    }
  }
  throw DecodeError("unknown TypeCode kind");
}

void encode_service_context(ByteWriter& w, const PiggybackMap& pb) {
  w.align(4);
  w.put_u32(static_cast<std::uint32_t>(pb.size()));
  for (const auto& [key, value] : pb) {
    encode_cdr_string(w, key);
    encode_any(w, value);
  }
}

PiggybackMap decode_service_context(ByteReader& r) {
  r.align(4);
  std::uint32_t n = r.get_u32();
  if (n > r.remaining()) throw DecodeError("service context too long");
  PiggybackMap pb;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::string key = decode_cdr_string(r);
    Value value = decode_any(r);
    // emplace would silently drop the second entry, so a malformed or
    // adversarial frame would decode differently from what was encoded.
    if (!pb.emplace(std::move(key), std::move(value)).second) {
      throw DecodeError("duplicate service context key");
    }
  }
  return pb;
}

}  // namespace cqos::corba
