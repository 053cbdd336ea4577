// GIOP-style message framing for the CORBA-like ORB.
//
// Layout mirrors GIOP 1.2 in spirit: a 12-byte header (magic "GIOP",
// version, flags, message type, body size) followed by a CDR body. Beyond
// Request/Reply there are liveness pings; the smart agent is spoken to in
// Requests (plat::NameServer).
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/value.h"
#include "platform/core/runtime.h"

namespace cqos::corba {

enum class MsgType : std::uint8_t {
  kRequest = 0,
  kReply = 1,
  kPing = 7,
  kPong = 8,
};

struct GiopHeader {
  MsgType type{};
  std::uint64_t request_id = 0;
};

/// Write the 12-byte GIOP header + request id. Body follows; finish_frame()
/// patches the body size.
void begin_frame(ByteWriter& w, MsgType type, std::uint64_t request_id);
void finish_frame(ByteWriter& w);

/// Parse the header; reader is positioned at the body afterwards.
GiopHeader read_frame(ByteReader& r);

// --- request/reply bodies ----------------------------------------------------

struct RequestBody {
  std::string reply_to;    // client endpoint id
  std::string object_key;  // target adapter key
  std::string operation;
  PiggybackMap service_context;
  ValueList params;
};

Bytes encode_request(std::uint64_t request_id, const RequestBody& body);
RequestBody decode_request_body(ByteReader& r);

enum class GiopReplyStatus : std::uint8_t {
  kNoException = 0,
  kUserException = 1,
  kSystemException = 2,
};

struct ReplyBody {
  GiopReplyStatus status = GiopReplyStatus::kNoException;
  PiggybackMap service_context;
  Value result;        // when kNoException
  std::string error;   // when exception
};

Bytes encode_reply(std::uint64_t request_id, const ReplyBody& body);
ReplyBody decode_reply_body(ByteReader& r);

/// GIOP as the runtime's (and the smart agent's) codec.
const plat::Codec& giop_codec();

}  // namespace cqos::corba
