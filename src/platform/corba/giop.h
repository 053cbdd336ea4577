// GIOP-style message framing for the CORBA-like ORB.
//
// Layout mirrors GIOP 1.2 in spirit: a 12-byte header (magic "GIOP",
// version, flags, message type, body size) and an aligned u64 request id,
// followed by a CDR body (cdr.h). A Request carries reply_to, object key and
// operation as CDR strings, the service context and a u32-counted list of
// Anys; a Reply carries a reply status, the service context and the result
// Any or the exception text. Beyond Request/Reply there are liveness pings;
// the smart agent is spoken to in Requests (plat::NameServer). The codec is
// the format's only API.
#pragma once

#include "platform/core/runtime.h"

namespace cqos::corba {

/// GIOP as the runtime's (and the smart agent's) codec.
const plat::Codec& giop_codec();

}  // namespace cqos::corba
