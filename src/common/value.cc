#include "common/value.h"

#include <sstream>

namespace cqos {

void Value::encode(ByteWriter& w) const {
  w.put_u8(static_cast<std::uint8_t>(type()));
  switch (type()) {
    case Type::kNull:
      break;
    case Type::kBool:
      w.put_u8(std::get<bool>(v_) ? 1 : 0);
      break;
    case Type::kI64:
      w.put_i64(std::get<std::int64_t>(v_));
      break;
    case Type::kF64:
      w.put_f64(std::get<double>(v_));
      break;
    case Type::kString:
      w.put_string(std::get<std::string>(v_));
      break;
    case Type::kBytes:
      w.put_blob(std::get<Bytes>(v_));
      break;
    case Type::kList: {
      const auto& list = std::get<ValueList>(v_);
      w.put_varint(list.size());
      for (const auto& v : list) v.encode(w);
      break;
    }
  }
}

Value Value::decode(ByteReader& r, int depth) {
  auto tag = r.get_u8();
  switch (static_cast<Type>(tag)) {
    case Type::kNull:
      return Value();
    case Type::kBool:
      return Value(r.get_u8() != 0);
    case Type::kI64:
      return Value(r.get_i64());
    case Type::kF64:
      return Value(r.get_f64());
    case Type::kString:
      return Value(r.get_string());
    case Type::kBytes:
      return Value(r.get_blob());
    case Type::kList: {
      if (depth >= kMaxNesting) throw DecodeError("lists nested too deep");
      std::uint64_t n = r.get_varint();
      if (n > r.remaining()) throw DecodeError("list length exceeds buffer");
      ValueList list;
      list.reserve(static_cast<std::size_t>(n));
      for (std::uint64_t i = 0; i < n; ++i) {
        list.push_back(decode(r, depth + 1));
      }
      return Value(std::move(list));
    }
  }
  throw DecodeError("unknown value tag " + std::to_string(tag));
}

std::size_t Value::encoded_size() const {
  std::size_t n = 1;  // tag byte
  switch (type()) {
    case Type::kNull:
      break;
    case Type::kBool:
      n += 1;
      break;
    case Type::kI64:
    case Type::kF64:
      n += 8;
      break;
    case Type::kString: {
      const auto& s = std::get<std::string>(v_);
      n += varint_size(s.size()) + s.size();
      break;
    }
    case Type::kBytes: {
      const auto& b = std::get<Bytes>(v_);
      n += varint_size(b.size()) + b.size();
      break;
    }
    case Type::kList: {
      const auto& list = std::get<ValueList>(v_);
      n += varint_size(list.size());
      for (const auto& v : list) n += v.encoded_size();
      break;
    }
  }
  return n;
}

std::size_t Value::encoded_list_size(const ValueList& vals) {
  std::size_t n = varint_size(vals.size());
  for (const auto& v : vals) n += v.encoded_size();
  return n;
}

Bytes Value::encode_list(const ValueList& vals) {
  ByteWriter w(encoded_list_size(vals));
  w.put_varint(vals.size());
  for (const auto& v : vals) v.encode(w);
  return std::move(w).take();
}

ValueList Value::decode_list(std::span<const std::uint8_t> data) {
  ByteReader r(data);
  std::uint64_t n = r.get_varint();
  if (n > r.remaining()) throw DecodeError("list length exceeds buffer");
  ValueList vals;
  vals.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n; ++i) vals.push_back(Value::decode(r));
  if (!r.done()) throw DecodeError("trailing bytes after value list");
  return vals;
}

const char* Value::type_name(Type t) {
  switch (t) {
    case Type::kNull:
      return "null";
    case Type::kBool:
      return "bool";
    case Type::kI64:
      return "i64";
    case Type::kF64:
      return "f64";
    case Type::kString:
      return "string";
    case Type::kBytes:
      return "bytes";
    case Type::kList:
      return "list";
  }
  return "?";
}

std::string Value::to_string() const {
  std::ostringstream os;
  switch (type()) {
    case Type::kNull:
      os << "null";
      break;
    case Type::kBool:
      os << (std::get<bool>(v_) ? "true" : "false");
      break;
    case Type::kI64:
      os << std::get<std::int64_t>(v_);
      break;
    case Type::kF64:
      os << std::get<double>(v_);
      break;
    case Type::kString:
      os << '"' << std::get<std::string>(v_) << '"';
      break;
    case Type::kBytes:
      os << "bytes[" << std::get<Bytes>(v_).size() << "]";
      break;
    case Type::kList: {
      os << "[";
      const auto& list = std::get<ValueList>(v_);
      for (std::size_t i = 0; i < list.size(); ++i) {
        if (i) os << ", ";
        os << list[i].to_string();
      }
      os << "]";
      break;
    }
  }
  return os.str();
}

void encode_piggyback(ByteWriter& w, const PiggybackMap& pb) {
  w.put_varint(pb.size());
  for (const auto& [k, v] : pb) {
    w.put_string(k);
    v.encode(w);
  }
}

PiggybackMap decode_piggyback(ByteReader& r) {
  std::uint64_t n = r.get_varint();
  if (n > r.remaining()) throw DecodeError("piggyback count exceeds buffer");
  PiggybackMap pb;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string k = r.get_string();
    Value v = Value::decode(r);
    if (!pb.emplace(std::move(k), std::move(v)).second) {
      throw DecodeError("duplicate piggyback key");
    }
  }
  return pb;
}

}  // namespace cqos
