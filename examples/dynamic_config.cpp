// Dynamic customization (rBoot/rControl analogue, paper §2.3.3).
//
// The server replicas advertise the client-side micro-protocol stack their
// deployment requires (active replication + first-success + DES privacy).
// A freshly started client knows NOTHING about this configuration: it boots
// with an empty stack, downloads the configuration from the server, resolves
// each name against the micro-protocol registry and installs it — then talks
// to the service correctly. Updating QoS policy therefore only requires
// touching the servers, exactly the deployment property the paper argues for.
//
//   $ ./dynamic_config
#include <cstdio>

#include "cqos/dynamic_config.h"
#include "sim/bank_account.h"
#include "sim/cluster.h"

int main() {
  using namespace cqos;
  using namespace cqos::sim;

  constexpr const char* kKey = "0f1e2d3c4b5a6978";

  ClusterOptions opts;
  opts.platform = PlatformKind::kRmi;
  opts.num_replicas = 3;
  opts.object_id = "BankAccount";
  opts.servant_factory = [] { return std::make_shared<BankAccountServant>(); };
  opts.qos.add(Side::kServer, "des_privacy", {{"key", kKey}});
  Cluster cluster(opts);

  // The deployment's required client stack, advertised by every replica.
  ConfigRevision advertised;
  advertised.revision = 1;
  advertised.provenance = "dynamic_config example";
  advertised.config.add(Side::kClient, "active_rep")
      .add(Side::kClient, "first_success")
      .add(Side::kClient, "des_privacy", {{"key", kKey}});
  for (int i = 0; i < 3; ++i) {
    advertise_config(*cluster.cactus_server(i), advertised);
  }
  std::printf("server advertises:\n%s\n",
              advertised.config.serialize().c_str());

  // A client with an empty micro-protocol stack cannot talk to the service
  // (the server rejects plaintext requests).
  std::vector<MicroProtocolSpec> empty_stack;
  auto naive = cluster.make_client({}, &empty_stack);
  try {
    naive->call("get_balance", {});
    std::printf("ERROR: unconfigured client should have been rejected\n");
    return 1;
  } catch (const InvocationError& e) {
    std::printf("unconfigured client: rejected (%s)\n", e.what());
  }

  // Bootstrap: fetch the advertised configuration and install it.
  auto client = cluster.make_client({}, &empty_stack);
  std::printf("\nbootstrapping client configuration from replica 1...\n");
  bootstrap_client(*client->cactus_client(), client->platform(),
                   opts.object_id, /*replica_index=*/1, ms(500));

  std::printf("installed micro-protocols:");
  for (const auto& name : client->cactus_client()->protocol().protocol_names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n");

  BankAccountStub account(client->stub_ptr());
  account.set_balance(777);
  std::printf("balance via bootstrapped stack: %lld\n",
              static_cast<long long>(account.get_balance()));

  std::printf("dynamic_config OK\n");
  return 0;
}
