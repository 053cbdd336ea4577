#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/value.h"

namespace cqos {
namespace {

TEST(Value, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), Value::Type::kNull);
}

TEST(Value, TypedAccessors) {
  EXPECT_EQ(Value(true).as_bool(), true);
  EXPECT_EQ(Value(std::int64_t{-42}).as_i64(), -42);
  EXPECT_DOUBLE_EQ(Value(3.25).as_f64(), 3.25);
  EXPECT_EQ(Value("hello").as_string(), "hello");
  Bytes b{1, 2, 3};
  EXPECT_EQ(Value(b).as_bytes(), b);
  ValueList list{Value(1), Value("x")};
  EXPECT_EQ(Value(list).as_list().size(), 2u);
}

TEST(Value, WrongTypeThrows) {
  EXPECT_THROW(Value(1).as_string(), TypeError);
  EXPECT_THROW(Value("s").as_i64(), TypeError);
  EXPECT_THROW(Value().as_bytes(), TypeError);
  EXPECT_THROW(Value(1.5).as_bool(), TypeError);
}

TEST(Value, IntLiteralsBecomeI64) {
  Value v(7);
  EXPECT_EQ(v.type(), Value::Type::kI64);
  EXPECT_EQ(v.as_i64(), 7);
}

TEST(Value, Equality) {
  EXPECT_EQ(Value(1), Value(1));
  EXPECT_NE(Value(1), Value(2));
  EXPECT_NE(Value(1), Value("1"));
  EXPECT_EQ(Value(), Value());
  EXPECT_EQ(Value(ValueList{Value(1)}), Value(ValueList{Value(1)}));
}

Value roundtrip(const Value& v) {
  ByteWriter w;
  v.encode(w);
  ByteReader r(w.data());
  Value out = Value::decode(r);
  EXPECT_TRUE(r.done());
  return out;
}

TEST(Value, EncodeDecodeRoundtripScalar) {
  EXPECT_EQ(roundtrip(Value()), Value());
  EXPECT_EQ(roundtrip(Value(true)), Value(true));
  EXPECT_EQ(roundtrip(Value(false)), Value(false));
  EXPECT_EQ(roundtrip(Value(std::int64_t{1} << 62)), Value(std::int64_t{1} << 62));
  EXPECT_EQ(roundtrip(Value(-1)), Value(-1));
  EXPECT_EQ(roundtrip(Value(2.718281828)), Value(2.718281828));
  EXPECT_EQ(roundtrip(Value("")), Value(""));
  EXPECT_EQ(roundtrip(Value(std::string(1000, 'x'))),
            Value(std::string(1000, 'x')));
}

TEST(Value, EncodeDecodeRoundtripNested) {
  Value nested(ValueList{
      Value(1), Value("two"),
      Value(ValueList{Value(3.0), Value(Bytes{9, 9, 9}), Value()})});
  EXPECT_EQ(roundtrip(nested), nested);
}

TEST(Value, ListCodecRoundtrip) {
  ValueList params{Value(10), Value("abc"), Value(Bytes{0, 255})};
  Bytes encoded = Value::encode_list(params);
  ValueList decoded = Value::decode_list(encoded);
  ASSERT_EQ(decoded.size(), params.size());
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_EQ(decoded[i], params[i]);
  }
}

TEST(Value, DecodeRejectsTruncated) {
  Value v("hello world");
  ByteWriter w;
  v.encode(w);
  Bytes data = w.data();
  data.resize(data.size() - 3);
  ByteReader r(data);
  EXPECT_THROW(Value::decode(r), DecodeError);
}

TEST(Value, DecodeRejectsUnknownTag) {
  Bytes data{0x77};
  ByteReader r(data);
  EXPECT_THROW(Value::decode(r), DecodeError);
}

TEST(Value, DecodeListRejectsTrailingBytes) {
  Bytes encoded = Value::encode_list({Value(1)});
  encoded.push_back(0);
  EXPECT_THROW(Value::decode_list(encoded), DecodeError);
}

TEST(Value, DecodeRejectsHugeListLength) {
  // Claim 2^40 elements with an empty body: must not allocate/loop.
  ByteWriter w;
  w.put_u8(static_cast<std::uint8_t>(Value::Type::kList));
  w.put_varint(std::uint64_t{1} << 40);
  ByteReader r(w.data());
  EXPECT_THROW(Value::decode(r), DecodeError);
}

/// An encoded one-element parameter list whose element is a null wrapped in
/// `depth` one-element lists.
Bytes nested_list(int depth) {
  Bytes out{1};  // varint: one parameter
  for (int i = 0; i < depth; ++i) {
    out.push_back(static_cast<std::uint8_t>(Value::Type::kList));
    out.push_back(1);
  }
  out.push_back(static_cast<std::uint8_t>(Value::Type::kNull));
  return out;
}

TEST(Value, DecodeListRefusesDeepNesting) {
  EXPECT_THROW(Value::decode_list(nested_list(100'000)), DecodeError);
  EXPECT_THROW(Value::decode_list(nested_list(Value::kMaxNesting + 1)),
               DecodeError);
}

TEST(Value, DecodeListTakesNestingAtTheBound) {
  ValueList vals = Value::decode_list(nested_list(Value::kMaxNesting));
  ASSERT_EQ(vals.size(), 1u);
  const Value* v = &vals[0];
  for (int i = 0; i < Value::kMaxNesting; ++i) {
    ASSERT_EQ(v->as_list().size(), 1u);
    v = &v->as_list()[0];
  }
  EXPECT_TRUE(v->is_null());
}

TEST(Value, ToStringRendersStructure) {
  Value v(ValueList{Value(1), Value("x"), Value(Bytes{1, 2})});
  EXPECT_EQ(v.to_string(), "[1, \"x\", bytes[2]]");
  EXPECT_EQ(Value().to_string(), "null");
  EXPECT_EQ(Value(true).to_string(), "true");
}

TEST(Piggyback, Roundtrip) {
  PiggybackMap pb{{"cq.id", Value(std::int64_t{77})},
                  {"cq.prio", Value(9)},
                  {"who", Value("alice")}};
  ByteWriter w;
  encode_piggyback(w, pb);
  ByteReader r(w.data());
  PiggybackMap out = decode_piggyback(r);
  EXPECT_EQ(out, pb);
  EXPECT_TRUE(r.done());
}

TEST(Piggyback, EmptyRoundtrip) {
  ByteWriter w;
  encode_piggyback(w, {});
  ByteReader r(w.data());
  EXPECT_TRUE(decode_piggyback(r).empty());
}

TEST(Piggyback, DuplicateKeyRejected) {
  // encode_piggyback can never produce duplicates (the map dedupes), so
  // hand-craft a frame carrying the same key twice. Decoding must throw
  // instead of silently keeping the first entry.
  ByteWriter w;
  w.put_varint(2);
  w.put_string("cq.id");
  Value(std::int64_t{1}).encode(w);
  w.put_string("cq.id");
  Value(std::int64_t{2}).encode(w);
  ByteReader r(w.data());
  EXPECT_THROW(decode_piggyback(r), DecodeError);
}

// Property: random nested values survive the codec.
class ValueFuzzRoundtrip : public ::testing::TestWithParam<std::uint64_t> {};

Value random_value(Rng& rng, int depth) {
  switch (rng.next_below(depth > 2 ? 6 : 7)) {
    case 0:
      return Value();
    case 1:
      return Value(rng.next_bool(0.5));
    case 2:
      return Value(static_cast<std::int64_t>(rng.next_u64()));
    case 3:
      return Value(rng.next_double() * 1e12 - 5e11);
    case 4: {
      std::string s;
      for (std::uint64_t i = 0, n = rng.next_below(40); i < n; ++i) {
        s.push_back(static_cast<char>('a' + rng.next_below(26)));
      }
      return Value(std::move(s));
    }
    case 5: {
      Bytes b;
      for (std::uint64_t i = 0, n = rng.next_below(64); i < n; ++i) {
        b.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
      }
      return Value(std::move(b));
    }
    default: {
      ValueList list;
      for (std::uint64_t i = 0, n = rng.next_below(5); i < n; ++i) {
        list.push_back(random_value(rng, depth + 1));
      }
      return Value(std::move(list));
    }
  }
}

TEST_P(ValueFuzzRoundtrip, RandomValueSurvivesCodec) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    Value v = random_value(rng, 0);
    EXPECT_EQ(roundtrip(v), v);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ValueFuzzRoundtrip,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace cqos
