// RMI-like runtime: the second concrete middleware platform (paper §4.2).
//
// Simpler than the ORB by design, mirroring the architectural differences the
// paper calls out: no server-side skeleton layer or POA, a flat bootstrap
// registry for naming, and stubs that marshal straight to the stream (there
// is no DII/static distinction, so invoke_dynamic == invoke, which is why the
// CQoS stub overhead on RMI is near zero in Table 1).
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>

#include "cactus/thread_pool.h"
#include "net/transport.h"
#include "platform/api.h"
#include "platform/pending.h"
#include "platform/rmi/jrmp.h"

#include "common/sync.h"
#include "common/thread_annotations.h"

namespace cqos::rmi {

struct RmiConfig {
  std::string registry_host = "nameserver";
  int server_threads = 8;
  /// Non-empty: server dispatch runs in traffic-class mode — requests are
  /// classified by the piggybacked cq.prio into per-class bounded WRR
  /// queues, and a full class queue is rejected immediately with a
  /// backpressure reply instead of queueing toward timeout collapse.
  std::vector<cactus::TrafficClass> dispatch_classes;
  Duration ping_timeout = ms(60);
  Duration resolve_timeout = ms(500);

  /// Testbed-emulation cost model (zero by default; see OrbConfig). RMI has
  /// no DII/DSI analogue — its stub path is the same either way, which is
  /// why the paper's per-component RMI overheads are near zero.
  Duration emu_call_cost{};      // client-side stub marshal, per call
  Duration emu_dispatch_cost{};  // server-side dispatch, per call
};

class RmiRuntime;

class RmiObjectRef : public plat::ObjectRef {
 public:
  RmiObjectRef(RmiRuntime& runtime, std::string name, std::string endpoint)
      : runtime_(runtime), name_(std::move(name)), endpoint_(std::move(endpoint)) {}

  plat::Reply invoke(const std::string& method, const ValueList& params,
                     const PiggybackMap& piggyback, Duration timeout) override;
  bool ping(Duration timeout) override;
  std::string description() const override;

 private:
  RmiRuntime& runtime_;
  std::string name_;
  std::string endpoint_;
};

class RmiRuntime : public plat::Platform {
 public:
  RmiRuntime(net::Transport& network, std::string host, RmiConfig cfg = {});
  ~RmiRuntime() override;

  RmiRuntime(const RmiRuntime&) = delete;
  RmiRuntime& operator=(const RmiRuntime&) = delete;

  // --- plat::Platform -------------------------------------------------------
  std::string name() const override { return "rmi"; }
  std::string replica_name(const std::string& object_id,
                           int replica) const override {
    // Paper §4.2: skeleton for replica i registers as "OID_CQoS_Skeleton_i".
    return object_id + "_CQoS_Skeleton_" + std::to_string(replica);
  }
  std::string direct_name(const std::string& object_id) const override {
    return object_id;
  }
  std::shared_ptr<plat::ObjectRef> resolve(const std::string& name,
                                           Duration timeout) override;
  void register_servant(const std::string& name,
                        std::shared_ptr<plat::ServantHandler> handler,
                        plat::DispatchMode mode) override;
  void unregister_servant(const std::string& name) override;
  void shutdown() override;

  const std::string& host() const { return host_; }

  /// See CorbaOrb::emu_charge.
  void emu_charge(Duration d);

 private:
  friend class RmiObjectRef;

  plat::Reply call(const std::string& endpoint, const std::string& target,
                   const std::string& method, const ValueList& params,
                   const PiggybackMap& pb, Duration timeout);
  bool ping_endpoint(const std::string& endpoint, Duration timeout);
  bool registry_op(MsgType type, const std::string& name,
                   const std::string& target, Duration timeout,
                   std::string* resolved);

  // Endpoint handlers (net::Endpoint::Handler contract): decode, then
  // complete a pending call, plat::dispatch_request() or send a reply.
  void on_client_message(net::Message&& msg);
  void on_server_message(net::Message&& msg);
  void dispatch_call(std::uint64_t call_id, CallBody body);

  net::Transport& network_;
  std::string host_;
  RmiConfig cfg_;
  std::string registry_endpoint_;

  std::shared_ptr<net::Endpoint> client_ep_;
  std::shared_ptr<net::Endpoint> server_ep_;
  plat::PendingCalls pending_;

  Mutex servants_mu_;
  std::map<std::string, std::shared_ptr<plat::ServantHandler>> servants_
      CQOS_GUARDED_BY(servants_mu_);

  cactus::PriorityThreadPool workers_;
  Mutex emu_cpu_mu_;  // serializes the emulated-CPU critical section
  std::atomic<bool> shutdown_{false};
};

}  // namespace cqos::rmi
