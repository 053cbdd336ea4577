// RMI-like runtime: the second concrete middleware platform (paper §4.2).
//
// Simpler than the ORB by design, mirroring the architectural differences the
// paper calls out: no server-side skeleton layer or POA, a flat bootstrap
// registry for naming, and stubs that marshal straight to the stream (there
// is no DII/static distinction, so invoke_dynamic == invoke, which is why the
// CQoS stub overhead on RMI is near zero in Table 1). The request/reply
// runtime and the registry client are plat::Runtime's; RMI adds the JRMP
// codec and its naming convention. The DispatchMode of a registration costs
// nothing here: RMI has no DSI/static distinction.
#pragma once

#include <string>

#include "platform/core/runtime.h"
#include "platform/rmi/jrmp.h"
#include "platform/rmi/registry.h"

namespace cqos::rmi {

struct RmiConfig : plat::RuntimeConfig {
  std::string registry_host = "nameserver";
  Duration resolve_timeout = ms(500);

  /// Testbed-emulation cost model (zero by default; see OrbConfig). RMI has
  /// no DII/DSI analogue — its stub path is the same either way, which is
  /// why the paper's per-component RMI overheads are near zero.
  Duration emu_call_cost{};      // client-side stub marshal, per call
  Duration emu_dispatch_cost{};  // server-side dispatch, per call
};

class RmiRuntime : public plat::Runtime {
 public:
  RmiRuntime(net::Transport& network, const std::string& host,
             const RmiConfig& cfg = {})
      : Runtime(network, host, "rmi", jrmp_codec(), cfg,
                Registry::endpoint_for_host(cfg.registry_host),
                cfg.resolve_timeout, cfg.emu_call_cost,
                cfg.emu_dispatch_cost) {}
  ~RmiRuntime() override { shutdown(); }

  std::string name() const override { return "rmi"; }
  std::string replica_name(const std::string& object_id,
                           int replica) const override {
    // Paper §4.2: skeleton for replica i registers as "OID_CQoS_Skeleton_i".
    return object_id + "_CQoS_Skeleton_" + std::to_string(replica);
  }
  std::string direct_name(const std::string& object_id) const override {
    return object_id;
  }
};

}  // namespace cqos::rmi
