// Dynamic customization tests (paper §2.3.3): the client bootstraps a
// matching micro-protocol configuration from the server at startup.
#include <gtest/gtest.h>

#include "common/error.h"
#include "cqos/dynamic_config.h"
#include "sim/bank_account.h"
#include "sim/cluster.h"

namespace cqos::sim {
namespace {

constexpr const char* kKey = "0123456789abcdef";

ClusterOptions options_with_advertised_stack() {
  ClusterOptions opts;
  opts.platform = PlatformKind::kRmi;
  opts.level = InterceptionLevel::kFull;
  opts.num_replicas = 3;
  opts.net.base_latency = us(80);
  opts.net.jitter = 0;
  opts.servant_factory = [] { return std::make_shared<BankAccountServant>(); };
  // Server requires privacy; matching client config is advertised, not
  // compiled into the client.
  opts.qos.add(Side::kServer, "des_privacy", {{"key", kKey}});
  return opts;
}

ConfigRevision advertised_config() {
  ConfigRevision advertised;
  advertised.revision = 1;
  advertised.provenance = "test-advertiser";
  advertised.config.add(Side::kClient, "active_rep")
      .add(Side::kClient, "first_success")
      .add(Side::kClient, "des_privacy", {{"key", kKey}});
  return advertised;
}

TEST(DynamicConfig, ClientBootstrapsMatchingStackFromServer) {
  Cluster cluster(options_with_advertised_stack());
  for (int i = 0; i < 3; ++i) {
    advertise_config(*cluster.cactus_server(i), advertised_config());
  }

  // A client with an explicitly EMPTY stack (just the base): calls fail
  // because the server decrypts garbage.
  std::vector<MicroProtocolSpec> bare;
  auto unconfigured = cluster.make_client({}, &bare);
  EXPECT_THROW(unconfigured->call("set_balance", {Value(1)}),
               InvocationError);

  // A client that bootstraps its configuration from the server works.
  auto client = cluster.make_client({}, &bare);
  bootstrap_client(*client->cactus_client(), client->platform(),
                   cluster.options().object_id, /*replica_index=*/1, ms(500));
  BankAccountStub account(client->stub_ptr());
  account.set_balance(42);
  EXPECT_EQ(account.get_balance(), 42);
  // The bootstrapped stack is the advertised one.
  auto names = client->cactus_client()->protocol().protocol_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "active_rep"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "des_privacy"), names.end());
}

TEST(DynamicConfig, FetchReturnsServerAdvertisedText) {
  Cluster cluster(options_with_advertised_stack());
  advertise_config(*cluster.cactus_server(0), advertised_config());
  auto client = cluster.make_client();
  ConfigRevision rev = fetch_config_revision(
      client->platform(), cluster.options().object_id, 1, ms(500));
  EXPECT_EQ(rev.revision, 1u);
  EXPECT_EQ(rev.provenance, "test-advertiser");
  const QosConfig& fetched = rev.config;
  ASSERT_EQ(fetched.client.size(), 3u);
  EXPECT_EQ(fetched.client[0].name, "active_rep");
  EXPECT_EQ(fetched.client[2].param("key"), kKey);
}

TEST(DynamicConfig, MissingAdvertisementIsAnError) {
  Cluster cluster(options_with_advertised_stack());  // nothing advertised
  auto client = cluster.make_client();
  EXPECT_THROW(fetch_config_revision(client->platform(),
                                     cluster.options().object_id, 1, ms(500)),
               Error);
}

TEST(DynamicConfig, UnknownAdvertisedProtocolFailsBootstrap) {
  Cluster cluster(options_with_advertised_stack());
  QosConfig bad;
  bad.add(Side::kClient, "hologram_rep");  // not in the registry
  advertise_config(*cluster.cactus_server(0),
                   ConfigRevision{1, bad, "test-advertiser"});
  std::vector<MicroProtocolSpec> bare;
  auto client = cluster.make_client({}, &bare);
  EXPECT_THROW(
      bootstrap_client(*client->cactus_client(), client->platform(),
                       cluster.options().object_id, 1, ms(500)),
      ConfigError);
}

}  // namespace
}  // namespace cqos::sim
