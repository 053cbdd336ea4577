// CDR-style marshaling for the CORBA-like ORB.
//
// Values travel as CORBA Anys: a TypeCode kind octet followed by the
// CDR-aligned payload. Primitives are aligned to their natural size and
// strings carry a 4-byte length plus NUL terminator, so this encoding is
// measurably heavier than the RMI stream format — the same asymmetry the
// paper's Table 1 measures between the two platforms.
#pragma once

#include "common/bytes.h"
#include "common/value.h"

namespace cqos::corba {

/// TCKind-like constants (subset).
enum class TcKind : std::uint8_t {
  kNull = 1,
  kDouble = 7,
  kBoolean = 8,
  kString = 18,
  kOctetSeq = 19,
  kLongLong = 23,
  kAnySeq = 24,
};

/// Append one Value as an Any (typecode + aligned payload).
void encode_any(ByteWriter& w, const Value& v);

/// Decode one Any; sequences nest at most Value::kMaxNesting deep (`depth`
/// counts the ones already open), deeper is a DecodeError.
Value decode_any(ByteReader& r, int depth = 0);

/// CDR string: aligned u32 length including NUL, then bytes, then NUL.
void encode_cdr_string(ByteWriter& w, std::string_view s);
std::string decode_cdr_string(ByteReader& r);

/// Piggyback map as a CORBA service-context-style list.
void encode_service_context(ByteWriter& w, const PiggybackMap& pb);
PiggybackMap decode_service_context(ByteReader& r);

}  // namespace cqos::corba
