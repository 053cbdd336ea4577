// ServerBase micro-protocol (paper §3.1): the default server-side behaviour.
//
//   getParameters  (newServerRequest, last) — extract CQoS parameters, raise
//                                             readyToInvoke
//   invokeServant  (readyToInvoke, last)    — call the server object through
//                                             the QoS interface, raise
//                                             invokeReturn
//   returnReleaser (invokeReturn, last)     — finish() the request, whose
//                                             completion sends the reply, after
//                                             all invokeReturn handlers ran
#pragma once

#include "micro/base.h"

namespace cqos::micro {

class ServerBase : public MicroBase {
 public:
  std::string_view name() const override { return "server_base"; }
  void init(cactus::CompositeProtocol& proto) override;

  static std::unique_ptr<cactus::MicroProtocol> make(
      const MicroProtocolSpec& spec);
  static MicroManifest manifest();
};

}  // namespace cqos::micro
