// Security micro-protocol tests: confidentiality on the wire, integrity
// verification (including active tampering), access control, and composition
// with replication.
#include <gtest/gtest.h>

#include <atomic>

#include "common/error.h"
#include "common/metrics.h"
#include "crypto/sha256.h"
#include "micro/security.h"
#include "sim/bank_account.h"
#include "sim/cluster.h"

namespace cqos::sim {
namespace {

constexpr const char* kKey = "0123456789abcdef";

ClusterOptions secure_options(PlatformKind kind) {
  ClusterOptions opts;
  opts.platform = kind;
  opts.level = InterceptionLevel::kFull;
  opts.num_replicas = 1;
  opts.net.base_latency = us(80);
  opts.net.jitter = 0;
  opts.servant_factory = [] { return std::make_shared<BankAccountServant>(); };
  return opts;
}

bool contains_subsequence(const Bytes& haystack, const Bytes& needle) {
  if (needle.empty() || haystack.size() < needle.size()) return false;
  return std::search(haystack.begin(), haystack.end(), needle.begin(),
                     needle.end()) != haystack.end();
}

// --- DesPrivacy ---------------------------------------------------------------

class PrivacyOnBothPlatforms : public ::testing::TestWithParam<PlatformKind> {};

TEST_P(PrivacyOnBothPlatforms, RoundtripStillCorrect) {
  auto opts = secure_options(GetParam());
  opts.qos.add(Side::kClient, "des_privacy", {{"key", kKey}})
      .add(Side::kServer, "des_privacy", {{"key", kKey}});
  Cluster cluster(opts);
  auto client = cluster.make_client();
  BankAccountStub account(client->stub_ptr());
  account.set_balance(987654);
  EXPECT_EQ(account.get_balance(), 987654);
}

TEST_P(PrivacyOnBothPlatforms, SecretNeverAppearsOnTheWire) {
  auto opts = secure_options(GetParam());
  opts.qos.add(Side::kClient, "des_privacy", {{"key", kKey}})
      .add(Side::kServer, "des_privacy", {{"key", kKey}});
  Cluster cluster(opts);

  // The marker below is embedded in a string parameter; with privacy on, its
  // byte sequence must never cross the network in the clear.
  const std::string marker = "TOP-SECRET-PAYLOAD-MARKER";
  Bytes marker_bytes(marker.begin(), marker.end());
  std::atomic<int> sightings{0};
  cluster.network().set_tap([&](const net::Message& m) {
    if (contains_subsequence(m.payload, marker_bytes)) sightings.fetch_add(1);
  });

  auto client = cluster.make_client();
  // BankAccount only moves integers; use the generic stub for a string echo
  // against the unknown-method error path... instead store it via deposit
  // params? Use a servant-independent check: the parameter list carries the
  // marker even though the method fails.
  try {
    client->call("audit_note", {Value(marker)});
  } catch (const InvocationError&) {
    // Expected: BankAccount has no audit_note method. The parameters still
    // crossed the wire (encrypted), which is what this test observes.
  }
  EXPECT_EQ(sightings.load(), 0);
}

TEST_P(PrivacyOnBothPlatforms, WithoutPrivacySecretIsVisible) {
  auto opts = secure_options(GetParam());  // no privacy configured
  Cluster cluster(opts);
  const std::string marker = "TOP-SECRET-PAYLOAD-MARKER";
  Bytes marker_bytes(marker.begin(), marker.end());
  std::atomic<int> sightings{0};
  cluster.network().set_tap([&](const net::Message& m) {
    if (contains_subsequence(m.payload, marker_bytes)) sightings.fetch_add(1);
  });
  auto client = cluster.make_client();
  try {
    client->call("audit_note", {Value(marker)});
  } catch (const InvocationError&) {
  }
  EXPECT_GT(sightings.load(), 0);  // sanity check of the test methodology
}

INSTANTIATE_TEST_SUITE_P(Platforms, PrivacyOnBothPlatforms,
                         ::testing::Values(PlatformKind::kRmi,
                                           PlatformKind::kCorba),
                         [](const auto& info) {
                           return info.param == PlatformKind::kRmi ? "rmi"
                                                                   : "corba";
                         });

TEST(DesPrivacy, MismatchedKeysFailCleanly) {
  auto opts = secure_options(PlatformKind::kRmi);
  opts.qos.add(Side::kClient, "des_privacy", {{"key", kKey}})
      .add(Side::kServer, "des_privacy", {{"key", "fedcba9876543210"}});
  Cluster cluster(opts);
  auto client = cluster.make_client();
  BankAccountStub account(client->stub_ptr());
  EXPECT_THROW(account.set_balance(1), InvocationError);
}

TEST(DesPrivacy, ServerWithoutPrivacyRejectsGarbledParams) {
  auto opts = secure_options(PlatformKind::kRmi);
  opts.qos.add(Side::kClient, "des_privacy", {{"key", kKey}});
  Cluster cluster(opts);
  auto client = cluster.make_client();
  BankAccountStub account(client->stub_ptr());
  // The servant sees one bytes parameter instead of an integer.
  EXPECT_THROW(account.set_balance(1), InvocationError);
}

// --- SignedIntegrity ------------------------------------------------------------

TEST(Integrity, SignedCallsSucceed) {
  auto opts = secure_options(PlatformKind::kRmi);
  opts.qos.add(Side::kClient, "integrity", {{"key", kKey}})
      .add(Side::kServer, "integrity", {{"key", kKey}});
  Cluster cluster(opts);
  auto client = cluster.make_client();
  BankAccountStub account(client->stub_ptr());
  account.set_balance(321);
  EXPECT_EQ(account.get_balance(), 321);
}

TEST(Integrity, UnsignedRequestRejected) {
  auto opts = secure_options(PlatformKind::kRmi);
  opts.qos.add(Side::kServer, "integrity", {{"key", kKey}});  // server only
  Cluster cluster(opts);
  auto client = cluster.make_client();
  BankAccountStub account(client->stub_ptr());
  EXPECT_THROW(account.set_balance(1), InvocationError);
}

TEST(Integrity, WrongMacKeyRejected) {
  auto opts = secure_options(PlatformKind::kRmi);
  opts.qos.add(Side::kClient, "integrity", {{"key", kKey}})
      .add(Side::kServer, "integrity", {{"key", "00112233445566778899aabb"}});
  Cluster cluster(opts);
  auto client = cluster.make_client();
  BankAccountStub account(client->stub_ptr());
  EXPECT_THROW(account.set_balance(1), InvocationError);
}

TEST(Integrity, CompositionWithPrivacyWorks) {
  auto opts = secure_options(PlatformKind::kRmi);
  opts.qos.add(Side::kClient, "des_privacy", {{"key", kKey}})
      .add(Side::kClient, "integrity", {{"key", kKey}})
      .add(Side::kServer, "des_privacy", {{"key", kKey}})
      .add(Side::kServer, "integrity", {{"key", kKey}});
  Cluster cluster(opts);
  auto client = cluster.make_client();
  BankAccountStub account(client->stub_ptr());
  account.set_balance(11);
  account.deposit(22);
  EXPECT_EQ(account.get_balance(), 33);
}

// --- AccessControl ---------------------------------------------------------------

TEST(AccessControl, AllowsPermittedPrincipalAndMethod) {
  auto opts = secure_options(PlatformKind::kRmi);
  opts.qos.add(Side::kServer, "access_control",
               {{"allow", "alice:*|bob:get_balance"}});
  Cluster cluster(opts);

  CqosStub::Options alice;
  alice.principal = "alice";
  auto alice_client = cluster.make_client(alice);
  BankAccountStub alice_account(alice_client->stub_ptr());
  alice_account.set_balance(9);
  EXPECT_EQ(alice_account.get_balance(), 9);

  CqosStub::Options bob;
  bob.principal = "bob";
  auto bob_client = cluster.make_client(bob);
  BankAccountStub bob_account(bob_client->stub_ptr());
  EXPECT_EQ(bob_account.get_balance(), 9);          // allowed
  EXPECT_THROW(bob_account.set_balance(0), InvocationError);  // not allowed
  EXPECT_EQ(alice_account.get_balance(), 9);        // state intact
}

TEST(AccessControl, UnknownPrincipalDeniedByDefault) {
  auto opts = secure_options(PlatformKind::kRmi);
  opts.qos.add(Side::kServer, "access_control", {{"allow", "alice:*"}});
  Cluster cluster(opts);
  CqosStub::Options mallory;
  mallory.principal = "mallory";
  auto client = cluster.make_client(mallory);
  BankAccountStub account(client->stub_ptr());
  EXPECT_THROW(account.get_balance(), InvocationError);
}

TEST(AccessControl, MissingPrincipalDenied) {
  auto opts = secure_options(PlatformKind::kRmi);
  opts.qos.add(Side::kServer, "access_control", {{"allow", "alice:*"}});
  Cluster cluster(opts);
  auto client = cluster.make_client();  // asserts no principal
  EXPECT_THROW(client->call("get_balance", {}), InvocationError);
}

TEST(AccessControl, DefaultAllowPermitsUnlistedPrincipals) {
  auto opts = secure_options(PlatformKind::kRmi);
  opts.qos.add(Side::kServer, "access_control",
               {{"allow", "audit:get_balance"}, {"default", "allow"}});
  Cluster cluster(opts);
  auto client = cluster.make_client();
  BankAccountStub account(client->stub_ptr());
  account.set_balance(3);
  EXPECT_EQ(account.get_balance(), 3);
  // Listed principals are restricted to their allowed set.
  CqosStub::Options audit;
  audit.principal = "audit";
  auto audit_client = cluster.make_client(audit);
  BankAccountStub audit_account(audit_client->stub_ptr());
  EXPECT_EQ(audit_account.get_balance(), 3);
  EXPECT_THROW(audit_account.set_balance(0), InvocationError);
}

// --- Full composition: security + replication ------------------------------------

TEST(SecurityComposition, PrivacyIntegrityAccessControlWithActiveRep) {
  ClusterOptions opts = secure_options(PlatformKind::kRmi);
  opts.num_replicas = 3;
  opts.qos.add(Side::kClient, "active_rep")
      .add(Side::kClient, "majority_vote")
      .add(Side::kClient, "des_privacy", {{"key", kKey}})
      .add(Side::kClient, "integrity", {{"key", kKey}})
      .add(Side::kServer, "total_order")
      .add(Side::kServer, "des_privacy", {{"key", kKey}})
      .add(Side::kServer, "integrity", {{"key", kKey}})
      .add(Side::kServer, "access_control", {{"allow", "alice:*"}});
  Cluster cluster(opts);
  CqosStub::Options alice;
  alice.principal = "alice";
  auto client = cluster.make_client(alice);
  BankAccountStub account(client->stub_ptr());
  account.set_balance(123);
  EXPECT_EQ(account.get_balance(), 123);

  CqosStub::Options eve;
  eve.principal = "eve";
  auto eve_client = cluster.make_client(eve);
  BankAccountStub eve_account(eve_client->stub_ptr());
  EXPECT_THROW(eve_account.get_balance(), InvocationError);
}

// --- Single-encode invariant (DESIGN.md §10) ---------------------------------
//
// A fully secured call (privacy + integrity on both sides) is the worst case
// for parameter encodings: the MAC needs the encoded bytes, DES needs them as
// plaintext, and the platform codec needs them for the wire. With the
// encoded-params cache, exactly two *cache-miss* encodes happen per call —
// the client's first consumer encodes the plaintext list once (every later
// client-side consumer shares it), and the server's first consumer encodes
// the received list once. `cqos.request.encodes` counts cache misses, so the
// counter delta over N calls proves the invariant end to end.
TEST(SecurityComposition, SecuredCallEncodesParamsExactlyTwicePerCall) {
  auto opts = secure_options(PlatformKind::kRmi);
  opts.qos.add(Side::kClient, "des_privacy", {{"key", kKey}})
      .add(Side::kClient, "integrity", {{"key", kKey}})
      .add(Side::kServer, "des_privacy", {{"key", kKey}})
      .add(Side::kServer, "integrity", {{"key", kKey}});
  Cluster cluster(opts);
  auto client = cluster.make_client();
  BankAccountStub account(client->stub_ptr());
  account.set_balance(0);  // settle binds + first-call effects

  auto& ctr = metrics::Registry::global().counter("cqos.request.encodes");
  const std::uint64_t before = ctr.value();
  constexpr int kCalls = 25;
  for (int i = 0; i < kCalls; ++i) account.deposit(1);
  EXPECT_EQ(ctr.value() - before, 2u * kCalls);
  EXPECT_EQ(account.get_balance(), kCalls) << "round trips must stay correct";
}

// The bytes MACed are fixed by the wire contract between peers: the
// helpers must MAC exactly id | method | blob(params) and id |
// blob(encoded result), built here the long way.
TEST(SignedIntegrity, MacInputsMatchTheirWireDefinition) {
  const Bytes key = micro::parse_hex_key(kKey, "test key");
  const std::vector<Value> values = {
      Value(),
      Value(std::int64_t{-42}),
      Value("balance"),
      Value(Bytes(200, 0x5a)),  // two-byte length varint
      Value(ValueList{Value(1.5), Value(true), Value(Bytes(3, 1))}),
  };
  std::uint64_t id = 7;
  for (const Value& v : values) {
    ++id;
    ByteWriter encoded;
    v.encode(encoded);
    ByteWriter reply;
    reply.put_u64(id);
    reply.put_blob(encoded.data());
    EXPECT_EQ(micro::reply_mac(key, id, v),
              crypto::hmac_sha256(key, reply.data()))
        << "reply, value #" << id;

    Request req("Bank", "set_balance", {v, Value(std::int64_t{3})});
    req.id = id;
    ByteWriter request;
    request.put_u64(id);
    request.put_string(req.method);
    request.put_blob(Value::encode_list(req.params()));
    EXPECT_EQ(micro::request_mac(key, req),
              crypto::hmac_sha256(key, request.data()))
        << "request, value #" << id;
  }
}

}  // namespace
}  // namespace cqos::sim
