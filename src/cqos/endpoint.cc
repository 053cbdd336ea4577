#include "cqos/endpoint.h"

#include <algorithm>
#include <set>

#include "common/error.h"
#include "common/log.h"
#include "cqos/verify.h"

namespace cqos {
namespace {

bool has_spec(const std::vector<MicroProtocolSpec>& specs,
              std::string_view name) {
  return std::any_of(specs.begin(), specs.end(),
                     [&](const auto& s) { return s.name == name; });
}

// Duplicate names are rejected unconditionally (even under verify(false)):
// a composite keys handlers per instance, so a duplicated protocol silently
// double-handles every event it binds.
void reject_duplicate_specs(Side side,
                            const std::vector<MicroProtocolSpec>& specs) {
  std::set<std::string> seen;
  for (const auto& spec : specs) {
    if (!seen.insert(spec.name).second) {
      throw ConfigError(std::string("QosEndpoint: duplicate micro-protocol '") +
                        spec.name + "' in the " + side_name(side) + " stack");
    }
  }
}

// Fail-fast hook for kFull builds and reconfigurations: run the side-local
// static analysis and surface every diagnostic at once instead of the first
// runtime symptom.
void verify_specs_or_throw(Side side,
                           const std::vector<MicroProtocolSpec>& specs) {
  VerifyResult result = verify_side(side, specs);
  if (result.ok()) return;
  throw ConfigError(std::string("QosEndpoint: ") + side_name(side) +
                    " stack failed composition verification:\n" +
                    result.text());
}

// The installed stack always ends with its side's base protocol; configured
// specs omit it.
std::vector<MicroProtocolSpec> with_base(
    Side side, std::vector<MicroProtocolSpec> specs) {
  const char* base = side == Side::kClient ? "client_base" : "server_base";
  if (!has_spec(specs, base)) {
    specs.push_back(MicroProtocolSpec{base, {}});
  }
  return specs;
}

std::vector<std::string> derived_names(const plat::Platform& platform,
                                       const std::string& object_id,
                                       int replicas, EndpointMode mode) {
  std::vector<std::string> names;
  names.reserve(static_cast<std::size_t>(replicas));
  for (int i = 0; i < replicas; ++i) {
    names.push_back(mode == EndpointMode::kStatic
                        ? platform.direct_name(object_id)
                        : platform.replica_name(object_id, i + 1));
  }
  return names;
}

}  // namespace

// --- Handle ------------------------------------------------------------------

QosEndpoint::Handle::Handle(Side side, EndpointMode mode,
                            std::vector<MicroProtocolSpec> specs, bool verify)
    : side_(side), mode_(mode), verify_(verify), specs_(std::move(specs)) {}

std::uint64_t QosEndpoint::Handle::config_revision() const {
  MutexLock lk(state_mu_);
  return revision_;
}

std::vector<MicroProtocolSpec> QosEndpoint::Handle::current_specs() const {
  MutexLock lk(state_mu_);
  return specs_;
}

ReconfigOptions QosEndpoint::Handle::reconfig_options() const {
  MutexLock lk(state_mu_);
  return reconfig_opts_;
}

void QosEndpoint::Handle::set_reconfig_options(const ReconfigOptions& opts) {
  MutexLock lk(state_mu_);
  reconfig_opts_ = opts;
}

bool QosEndpoint::Handle::closed() const {
  MutexLock lk(state_mu_);
  return closed_;
}

ReconfigReport QosEndpoint::Handle::reconfigure(
    std::vector<MicroProtocolSpec> specs) {
  return reconfigure_impl(std::move(specs), 0);
}

ReconfigReport QosEndpoint::Handle::reconfigure(const QosConfig& config) {
  return reconfigure_impl(config.side(side_), 0);
}

bool QosEndpoint::Handle::reconfigure(const ConfigRevision& rev,
                                      ReconfigReport* report) {
  {
    MutexLock lk(state_mu_);
    if (rev.revision <= revision_) return false;
  }
  ReconfigReport r = reconfigure_impl(rev.config.side(side_), rev.revision);
  if (report != nullptr) *report = r;
  return true;
}

ReconfigReport QosEndpoint::Handle::reconfigure_impl(
    std::vector<MicroProtocolSpec> specs, std::uint64_t pushed_revision) {
  if (mode_ != EndpointMode::kFull) {
    throw ConfigError("QosEndpoint: reconfigure() needs mode kFull");
  }
  MutexLock reconfig(reconfig_mu_);
  std::vector<MicroProtocolSpec> old_specs;
  ReconfigOptions opts;
  {
    MutexLock lk(state_mu_);
    if (closed_) throw ConfigError("QosEndpoint: reconfigure() after close()");
    old_specs = specs_;
    opts = reconfig_opts_;
  }
  // Validate BEFORE touching the gate: a rejected composition must not
  // perturb traffic (acceptance criterion: clean rollback to the prior
  // revision, which here means never leaving it).
  reject_duplicate_specs(side_, specs);
  if (verify_) verify_specs_or_throw(side_, specs);

  ReconfigReport report;
  swap_stack(*composite(), *quiesce_gate(), side_, with_base(side_, old_specs),
             with_base(side_, specs), opts, report);

  MutexLock lk(state_mu_);
  specs_ = std::move(specs);
  revision_ = std::max(revision_ + 1, pushed_revision);
  report.revision = revision_;
  return report;
}

bool QosEndpoint::Handle::drain(Duration timeout) {
  if (mode_ != EndpointMode::kFull) return true;
  MutexLock reconfig(reconfig_mu_);
  {
    MutexLock lk(state_mu_);
    if (closed_) return true;
  }
  QuiesceGate* gate = quiesce_gate();
  if (gate == nullptr) return true;
  ReconfigOptions opts = reconfig_options();
  opts.drain_timeout = timeout;
  bool drained = gate->begin_drain(opts);
  // No swap: straight back to live, releasing anything that parked. A
  // failed drain already reverted the gate itself.
  if (drained) gate->resume();
  return drained;
}

void QosEndpoint::Handle::close() {
  MutexLock reconfig(reconfig_mu_);
  {
    MutexLock lk(state_mu_);
    if (closed_) return;
    closed_ = true;
  }
  if (QuiesceGate* gate = quiesce_gate()) gate->close();
}

// --- ClientHandle ------------------------------------------------------------

QosEndpoint::ClientHandle::~ClientHandle() {
  if (cactus_) cactus_->stop();
}

void QosEndpoint::ClientHandle::close() {
  Handle::close();
  if (cactus_) cactus_->stop();
}

// --- ServerHandle ------------------------------------------------------------

QosEndpoint::ServerHandle::~ServerHandle() { stop(); }

void QosEndpoint::ServerHandle::stop() {
  if (cactus_) cactus_->stop();
}

void QosEndpoint::ServerHandle::close() {
  bool was_closed = closed();
  Handle::close();
  if (!was_closed && platform_ != nullptr && !registered_name_.empty()) {
    try {
      platform_->unregister_servant(registered_name_);
    } catch (const std::exception& e) {
      CQOS_LOG_WARN("QosEndpoint: close() could not unregister '",
                    registered_name_, "': ", e.what());
    }
  }
  stop();
}

// --- ClientBuilder -----------------------------------------------------------

QosEndpoint::ClientBuilder::ClientBuilder(plat::Platform& platform,
                                          std::string object_id)
    : platform_(platform), object_id_(std::move(object_id)) {}

QosEndpoint::ClientBuilder& QosEndpoint::ClientBuilder::mode(EndpointMode m) {
  mode_ = m;
  return *this;
}
QosEndpoint::ClientBuilder& QosEndpoint::ClientBuilder::servers(
    std::vector<std::string> names) {
  servers_ = std::move(names);
  return *this;
}
QosEndpoint::ClientBuilder& QosEndpoint::ClientBuilder::replicas(int n) {
  if (n < 1) throw ConfigError("QosEndpoint: replicas must be >= 1");
  replicas_ = n;
  return *this;
}
QosEndpoint::ClientBuilder& QosEndpoint::ClientBuilder::qos(
    std::vector<MicroProtocolSpec> specs) {
  specs_ = std::move(specs);
  return *this;
}
QosEndpoint::ClientBuilder& QosEndpoint::ClientBuilder::verify(bool on) {
  verify_ = on;
  return *this;
}
QosEndpoint::ClientBuilder& QosEndpoint::ClientBuilder::invoke_timeout(
    Duration d) {
  qos_opts_.invoke_timeout = d;
  return *this;
}
QosEndpoint::ClientBuilder& QosEndpoint::ClientBuilder::resolve_timeout(
    Duration d) {
  qos_opts_.resolve_timeout = d;
  return *this;
}
QosEndpoint::ClientBuilder& QosEndpoint::ClientBuilder::ping_timeout(
    Duration d) {
  qos_opts_.ping_timeout = d;
  return *this;
}
QosEndpoint::ClientBuilder& QosEndpoint::ClientBuilder::request_timeout(
    Duration d) {
  cactus_opts_.request_timeout = d;
  return *this;
}
QosEndpoint::ClientBuilder& QosEndpoint::ClientBuilder::composite_name(
    std::string name) {
  cactus_opts_.composite.name = std::move(name);
  composite_name_set_ = true;
  return *this;
}
QosEndpoint::ClientBuilder& QosEndpoint::ClientBuilder::pool_threads(int n) {
  cactus_opts_.composite.pool_threads = n;
  return *this;
}
QosEndpoint::ClientBuilder& QosEndpoint::ClientBuilder::priority(int p) {
  stub_opts_.priority = p;
  return *this;
}
QosEndpoint::ClientBuilder& QosEndpoint::ClientBuilder::principal(
    std::string who) {
  stub_opts_.principal = std::move(who);
  return *this;
}

std::unique_ptr<QosEndpoint::ClientHandle>
QosEndpoint::ClientBuilder::build() {
  qos_opts_.use_dynamic_invocation = mode_ != EndpointMode::kStatic;
  std::vector<std::string> names =
      servers_.empty() ? derived_names(platform_, object_id_, replicas_, mode_)
                       : servers_;
  auto qos = std::make_unique<PlatformClientQos>(platform_, object_id_, names,
                                                 qos_opts_);
  auto ep = std::unique_ptr<ClientHandle>(
      new ClientHandle(Side::kClient, mode_, specs_, verify_));
  if (mode_ == EndpointMode::kFull) {
    reject_duplicate_specs(Side::kClient, specs_);
    if (verify_) verify_specs_or_throw(Side::kClient, specs_);
    if (!composite_name_set_) {
      cactus_opts_.composite.name = "cactus-client-" + object_id_;
    }
    ep->cactus_ = std::make_shared<CactusClient>(std::move(qos), cactus_opts_);
    // cqos-lint: allow-reconfig-seam (initial install at build time)
    MicroProtocolRegistry::instance().install(
        Side::kClient, with_base(Side::kClient, specs_),
        ep->cactus_->protocol());
    ep->stub_ =
        std::make_shared<CqosStub>(ep->cactus_, object_id_, stub_opts_);
  } else {
    if (!specs_.empty()) {
      throw ConfigError(
          "QosEndpoint: a micro-protocol stack needs mode kFull");
    }
    ep->stub_ = std::make_shared<CqosStub>(
        std::shared_ptr<ClientQosInterface>(std::move(qos)), object_id_,
        stub_opts_);
  }
  return ep;
}

// --- ServerBuilder -----------------------------------------------------------

QosEndpoint::ServerBuilder::ServerBuilder(plat::Platform& platform,
                                          std::shared_ptr<Servant> servant,
                                          std::string object_id)
    : platform_(platform),
      servant_(std::move(servant)),
      object_id_(std::move(object_id)) {
  if (!servant_) throw ConfigError("QosEndpoint: servant is required");
}

QosEndpoint::ServerBuilder& QosEndpoint::ServerBuilder::mode(EndpointMode m) {
  mode_ = m;
  return *this;
}
QosEndpoint::ServerBuilder& QosEndpoint::ServerBuilder::replica(
    int self_index, std::vector<std::string> peers) {
  if (self_index < 0 || self_index >= static_cast<int>(peers.size())) {
    throw ConfigError("QosEndpoint: self_index out of range");
  }
  self_index_ = self_index;
  peers_ = std::move(peers);
  return *this;
}
QosEndpoint::ServerBuilder& QosEndpoint::ServerBuilder::replica_of(
    int self_index, int n) {
  if (n < 1 || self_index < 0 || self_index >= n) {
    throw ConfigError("QosEndpoint: self_index out of range");
  }
  self_index_ = self_index;
  replicas_ = n;
  peers_.clear();
  return *this;
}
QosEndpoint::ServerBuilder& QosEndpoint::ServerBuilder::qos(
    std::vector<MicroProtocolSpec> specs) {
  specs_ = std::move(specs);
  return *this;
}
QosEndpoint::ServerBuilder& QosEndpoint::ServerBuilder::verify(bool on) {
  verify_ = on;
  return *this;
}
QosEndpoint::ServerBuilder& QosEndpoint::ServerBuilder::peer_timeout(
    Duration d) {
  qos_opts_.peer_timeout = d;
  return *this;
}
QosEndpoint::ServerBuilder& QosEndpoint::ServerBuilder::resolve_timeout(
    Duration d) {
  qos_opts_.resolve_timeout = d;
  return *this;
}
QosEndpoint::ServerBuilder& QosEndpoint::ServerBuilder::process_timeout(
    Duration d) {
  cactus_opts_.process_timeout = d;
  return *this;
}
QosEndpoint::ServerBuilder& QosEndpoint::ServerBuilder::composite_name(
    std::string name) {
  cactus_opts_.composite.name = std::move(name);
  composite_name_set_ = true;
  return *this;
}
QosEndpoint::ServerBuilder& QosEndpoint::ServerBuilder::pool_threads(int n) {
  cactus_opts_.composite.pool_threads = n;
  return *this;
}

std::unique_ptr<QosEndpoint::ServerHandle>
QosEndpoint::ServerBuilder::build() {
  auto ep = std::unique_ptr<ServerHandle>(
      new ServerHandle(Side::kServer, mode_, specs_, verify_));
  ep->platform_ = &platform_;
  // Every fallible step (verification, instantiation, installation) runs
  // BEFORE the name is registered, and registration is the final act of
  // each branch: a failed build leaves nothing behind in the naming
  // service. Should anything ever be added after registration, wrap it in
  // the unregistering guard below.
  switch (mode_) {
    case EndpointMode::kStatic: {
      if (!specs_.empty()) {
        throw ConfigError(
            "QosEndpoint: a micro-protocol stack needs mode kFull");
      }
      ep->registered_name_ = platform_.direct_name(object_id_);
      platform_.register_servant(
          ep->registered_name_,
          std::make_shared<DirectServantHandler>(servant_),
          plat::DispatchMode::kStatic);
      break;
    }
    case EndpointMode::kBypass: {
      if (!specs_.empty()) {
        throw ConfigError(
            "QosEndpoint: a micro-protocol stack needs mode kFull");
      }
      ep->skeleton_ = std::make_shared<CqosSkeleton>(object_id_, servant_);
      ep->registered_name_ =
          platform_.replica_name(object_id_, self_index_ + 1);
      register_cqos_skeleton(platform_, ep->skeleton_, self_index_ + 1);
      break;
    }
    case EndpointMode::kFull: {
      reject_duplicate_specs(Side::kServer, specs_);
      if (verify_) verify_specs_or_throw(Side::kServer, specs_);
      std::vector<std::string> peers =
          peers_.empty()
              ? derived_names(platform_, object_id_, replicas_, mode_)
              : peers_;
      auto qos = std::make_unique<PlatformServerQos>(
          platform_, servant_, object_id_, peers, self_index_, qos_opts_);
      if (!composite_name_set_) {
        cactus_opts_.composite.name = "cactus-server-" + object_id_;
      }
      ep->cactus_ =
          std::make_shared<CactusServer>(std::move(qos), cactus_opts_);
      // cqos-lint: allow-reconfig-seam (initial install at build time)
      MicroProtocolRegistry::instance().install(
          Side::kServer, with_base(Side::kServer, specs_),
          ep->cactus_->protocol());
      ep->skeleton_ =
          std::make_shared<CqosSkeleton>(object_id_, ep->cactus_);
      ep->registered_name_ =
          platform_.replica_name(object_id_, self_index_ + 1);
      try {
        register_cqos_skeleton(platform_, ep->skeleton_, self_index_ + 1);
      } catch (...) {
        // Defensive symmetry for the unregister guarantee: registration
        // itself failing must not leave a partial entry either.
        try {
          platform_.unregister_servant(ep->registered_name_);
        } catch (...) {
        }
        throw;
      }
      break;
    }
  }
  return ep;
}

}  // namespace cqos
