// JRMP-style wire format for the RMI-like platform.
//
// Deliberately lighter than the ORB's GIOP/CDR: single-byte magic, varint
// lengths, no alignment padding, values encoded in one pass with the compact
// self-describing Value codec. This weight difference is what produces the
// CORBA-vs-RMI gap in Tables 1 and 2.
//
// Every frame is magic 'J', a message-type byte and a varint call id. A call
// then carries reply_to, target (the registry name) and method as strings,
// the piggyback map, and a varint-counted Value list; a return carries an ok
// byte, then the result Value or the error string, then the piggyback map.
// The codec is the format's only API.
#pragma once

#include "platform/core/runtime.h"

namespace cqos::rmi {

/// JRMP as the runtime's (and the registry's) codec.
const plat::Codec& jrmp_codec();

}  // namespace cqos::rmi
