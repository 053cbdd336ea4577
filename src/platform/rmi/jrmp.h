// JRMP-style wire format for the RMI-like platform.
//
// Deliberately lighter than the ORB's GIOP/CDR: single-byte magic, varint
// lengths, no alignment padding, values encoded in one pass with the compact
// self-describing Value codec. This weight difference is what produces the
// CORBA-vs-RMI gap in Tables 1 and 2.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/value.h"
#include "platform/core/runtime.h"

namespace cqos::rmi {

enum class MsgType : std::uint8_t {
  kCall = 1,
  kReturn = 2,
  kPing = 3,
  kPong = 4,
};

inline constexpr std::uint8_t kMagic = 0x4a;  // 'J'

struct Header {
  MsgType type{};
  std::uint64_t call_id = 0;
};

void begin_message(ByteWriter& w, MsgType type, std::uint64_t call_id);
Header read_header(ByteReader& r);

struct CallBody {
  std::string reply_to;
  std::string target;  // registry name
  std::string method;
  PiggybackMap piggyback;
  ValueList params;
};

Bytes encode_call(std::uint64_t call_id, const CallBody& body);
CallBody decode_call_body(ByteReader& r);

struct ReturnBody {
  bool ok = true;
  Value result;
  std::string error;
  PiggybackMap piggyback;
};

Bytes encode_return(std::uint64_t call_id, const ReturnBody& body);
ReturnBody decode_return_body(ByteReader& r);

/// The piggyback map travels in the Value codec's own format.
inline PiggybackMap decode_pb(ByteReader& r) { return decode_piggyback(r); }

/// JRMP as the runtime's (and the registry's) codec.
const plat::Codec& jrmp_codec();

}  // namespace cqos::rmi
