// Platform-neutral parameter representation.
//
// The paper represents a request's parameters as "a vector of Java objects
// (java.lang.Objects)". Value is the C++ analogue: a closed variant over the
// types the example applications and micro-protocols need, with a compact
// self-describing binary codec so security micro-protocols can
// serialize/encrypt parameter lists without knowing their shape.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"

namespace cqos {

class Value;
using ValueList = std::vector<Value>;

class Value {
 public:
  enum class Type : std::uint8_t {
    kNull = 0,
    kBool = 1,
    kI64 = 2,
    kF64 = 3,
    kString = 4,
    kBytes = 5,
    kList = 6,
  };

  Value() = default;
  Value(bool b) : v_(b) {}                          // NOLINT(runtime/explicit)
  Value(std::int64_t i) : v_(i) {}                  // NOLINT(runtime/explicit)
  Value(int i) : v_(static_cast<std::int64_t>(i)) {}  // NOLINT
  Value(double d) : v_(d) {}                        // NOLINT(runtime/explicit)
  Value(std::string s) : v_(std::move(s)) {}        // NOLINT(runtime/explicit)
  Value(const char* s) : v_(std::string(s)) {}      // NOLINT(runtime/explicit)
  Value(Bytes b) : v_(std::move(b)) {}              // NOLINT(runtime/explicit)
  Value(ValueList l) : v_(std::move(l)) {}          // NOLINT(runtime/explicit)

  Type type() const { return static_cast<Type>(v_.index()); }
  bool is_null() const { return type() == Type::kNull; }

  bool as_bool() const { return get<bool>("bool"); }
  std::int64_t as_i64() const { return get<std::int64_t>("i64"); }
  double as_f64() const { return get<double>("f64"); }
  const std::string& as_string() const { return get<std::string>("string"); }
  const Bytes& as_bytes() const { return get<Bytes>("bytes"); }
  const ValueList& as_list() const { return get<ValueList>("list"); }
  ValueList& as_list() { return get<ValueList>("list"); }

  bool operator==(const Value& o) const { return v_ == o.v_; }
  bool operator!=(const Value& o) const { return !(*this == o); }

  /// Append the self-describing encoding (1 tag byte + payload).
  void encode(ByteWriter& w) const;
  /// Lists nest at most this deep in a decoded value (here and in the CDR
  /// Any decoder): a hostile frame must not recurse a decoder off the stack.
  static constexpr int kMaxNesting = 64;
  /// Parse one Value from the reader; throws DecodeError on malformed input,
  /// including lists nested deeper than kMaxNesting. `depth` counts the
  /// lists already open around this value.
  static Value decode(ByteReader& r, int depth = 0);

  /// Exact byte count encode() will append (1 tag byte + payload). Lets
  /// writers reserve once up front instead of growing geometrically.
  std::size_t encoded_size() const;
  /// Exact byte count of encode_list()'s output for `vals`.
  static std::size_t encoded_list_size(const ValueList& vals);

  /// Convenience: encode a whole parameter list to a standalone buffer.
  static Bytes encode_list(const ValueList& vals);
  static ValueList decode_list(std::span<const std::uint8_t> data);

  /// Human-readable rendering for logs and examples.
  std::string to_string() const;

 private:
  template <typename T>
  const T& get(const char* name) const {
    if (const T* p = std::get_if<T>(&v_)) return *p;
    throw TypeError(std::string("value is not a ") + name + " (actual " +
                    type_name(type()) + ")");
  }
  template <typename T>
  T& get(const char* name) {
    if (T* p = std::get_if<T>(&v_)) return *p;
    throw TypeError(std::string("value is not a ") + name + " (actual " +
                    type_name(type()) + ")");
  }

  static const char* type_name(Type t);

  std::variant<std::monostate, bool, std::int64_t, double, std::string, Bytes,
               ValueList>
      v_;
};

/// Piggyback fields carried alongside a request/reply (the paper's "field for
/// piggybacking additional parameters onto the request", e.g. priority,
/// principal, HMAC). Maps cleanly onto CORBA service contexts.
using PiggybackMap = std::map<std::string, Value>;

/// Encode/decode a piggyback map (sorted keys, deterministic bytes).
void encode_piggyback(ByteWriter& w, const PiggybackMap& pb);
PiggybackMap decode_piggyback(ByteReader& r);

}  // namespace cqos
