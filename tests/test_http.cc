// HTTP platform tests (paper §2.1: "it would be feasible to intercept HTTP
// requests and replies, in which case the TCP socket layer would be viewed
// as the middleware layer").
#include <gtest/gtest.h>

#include "common/error.h"
#include "platform/http/http.h"
#include "sim/bank_account.h"
#include "sim/cluster.h"

namespace cqos {
namespace {

// --- wire format ----------------------------------------------------------------

plat::Reply reply(bool ok, Value result, std::string error) {
  plat::Reply r;
  r.status = ok ? plat::ReplyStatus::kOk : plat::ReplyStatus::kAppError;
  r.result = std::move(result);
  r.error = std::move(error);
  return r;
}

TEST(HttpWire, RequestRoundtrip) {
  const plat::Codec& codec = http::http_codec();
  PiggybackMap pb{{"cq.id", Value(7)}, {"cq.prio", Value(9)}};
  ValueList params{Value(1), Value("x"), Value(Bytes{0, 255})};
  Bytes frame =
      codec.encode_request(42, "cli/httpcli0", "Bank", "set_balance", pb,
                           params);
  // The header block is readable text.
  std::string text(frame.begin(), frame.end());
  EXPECT_NE(text.find("POST /Bank CQOS/1.0\r\n"), std::string::npos);
  EXPECT_NE(text.find("X-Method: set_balance\r\n"), std::string::npos);

  plat::Frame parsed = codec.decode(frame);
  EXPECT_EQ(parsed.kind, plat::Frame::Kind::kRequest);
  EXPECT_EQ(parsed.id, 42u);
  EXPECT_EQ(parsed.target, "Bank");
  EXPECT_EQ(parsed.method, "set_balance");
  EXPECT_EQ(parsed.reply_to, "cli/httpcli0");
  EXPECT_EQ(parsed.piggyback, pb);
  EXPECT_EQ(parsed.params, params);
}

TEST(HttpWire, ResponseRoundtripBothStatuses) {
  const plat::Codec& codec = http::http_codec();
  Bytes ok = codec.encode_reply(1, reply(true, Value(123), ""));
  EXPECT_EQ(std::string(ok.begin(), ok.begin() + 17), "CQOS/1.0 200 OK\r\n");
  plat::Frame parsed_ok = codec.decode(ok);
  EXPECT_EQ(parsed_ok.kind, plat::Frame::Kind::kReply);
  EXPECT_TRUE(parsed_ok.reply.ok());
  EXPECT_EQ(parsed_ok.reply.result, Value(123));

  Bytes err = codec.encode_reply(2, reply(false, Value(), "boom"));
  std::string err_text(err.begin(), err.end());
  EXPECT_TRUE(err_text.starts_with("CQOS/1.0 500 Application Error\r\n"));
  EXPECT_TRUE(err_text.ends_with("\r\n\r\nboom"));  // the error is the body
  plat::Frame parsed_err = codec.decode(err);
  EXPECT_FALSE(parsed_err.reply.ok());
  EXPECT_EQ(parsed_err.reply.error, "boom");
}

TEST(HttpWire, PingPongRoundtrip) {
  const plat::Codec& codec = http::http_codec();
  plat::Frame ping = codec.decode(codec.encode_ping(5, "cli/x"));
  EXPECT_EQ(ping.kind, plat::Frame::Kind::kPing);
  EXPECT_EQ(ping.reply_to, "cli/x");
  Bytes pong_frame = codec.encode_pong(5);
  EXPECT_EQ(std::string(pong_frame.begin(), pong_frame.begin() + 20),
            "CQOS/1.0 204 Alive\r\n");
  plat::Frame pong = codec.decode(pong_frame);
  EXPECT_EQ(pong.kind, plat::Frame::Kind::kReply);
  EXPECT_TRUE(pong.reply.ok());
  EXPECT_EQ(pong.id, 5u);
}

TEST(HttpWire, MalformedMessagesRejected) {
  auto reject = [](const std::string& text) {
    Bytes data(text.begin(), text.end());
    EXPECT_THROW(http::http_codec().decode(data), DecodeError) << text;
  };
  reject("GET / HTTP/1.1\r\n\r\n");             // wrong protocol
  reject("POST /x CQOS/1.0\r\n\r\n");           // missing headers
  reject("no header terminator at all");
  reject("POST /x CQOS/1.0\r\nX-Call-Id: 1\r\nX-Reply-To: a\r\nX-Method: m\r\n"
         "X-Piggyback: 00\r\nContent-Length: 999\r\n\r\nshort");  // truncated
  // Call ids that are not a u64: the parse error is a DecodeError too.
  reject("PING / CQOS/1.0\r\nX-Call-Id: abc\r\nX-Reply-To: a\r\n"
         "Content-Length: 0\r\n\r\n");
  reject("PING / CQOS/1.0\r\nX-Call-Id: 99999999999999999999\r\n"
         "X-Reply-To: a\r\nContent-Length: 0\r\n\r\n");
}

// The piggyback map travels as hex text in the X-Piggyback header: every
// byte value survives it, and a header that is not hex is a DecodeError.
TEST(HttpWire, HexRoundtrip) {
  const plat::Codec& codec = http::http_codec();
  PiggybackMap pb{{"cq.blob", Value(Bytes{0x00, 0x7f, 0xff, 0x12})}};
  Bytes frame = codec.encode_request(1, "cli/x", "Bank", "m", pb, {});
  EXPECT_EQ(codec.decode(frame).piggyback, pb);

  auto with_piggyback = [](const std::string& hex) {
    std::string text = "POST /Bank CQOS/1.0\r\nX-Call-Id: 1\r\n"
                       "X-Reply-To: a\r\nX-Method: m\r\nX-Piggyback: " +
                       hex + "\r\nContent-Length: 1\r\n\r\n";
    Bytes data(text.begin(), text.end());
    data.push_back(0);  // an empty parameter list
    return data;
  };
  EXPECT_TRUE(codec.decode(with_piggyback("00")).piggyback.empty());
  EXPECT_THROW(codec.decode(with_piggyback("abc")), DecodeError);
  EXPECT_THROW(codec.decode(with_piggyback("zz")), DecodeError);
}

// --- platform behaviour -----------------------------------------------------------

TEST(HttpPlatform, UrlNamingConvention) {
  net::SimNetwork net;
  http::HttpPlatform platform(net, "client0");
  EXPECT_EQ(platform.name(), "http");
  EXPECT_EQ(platform.replica_name("Bank", 2),
            "http://server1/Bank_CQoS_Skeleton_2");
  EXPECT_EQ(platform.direct_name("Bank"), "http://server0/Bank");
  EXPECT_THROW(platform.resolve("not-a-url", ms(100)), NameNotFound);
}

TEST(HttpPlatform, UnknownPathIs404) {
  net::SimNetwork net;
  http::HttpPlatform server(net, "server0");
  http::HttpPlatform client(net, "client0");
  auto ref = client.resolve("http://server0/Ghost", ms(100));
  plat::Reply reply = ref->invoke("m", {}, {}, ms(500));
  EXPECT_EQ(reply.status, plat::ReplyStatus::kAppError);
  EXPECT_NE(reply.error.find("404"), std::string::npos);
}

// --- full CQoS over HTTP -----------------------------------------------------------

sim::ClusterOptions http_options(int replicas = 1) {
  sim::ClusterOptions opts;
  opts.platform = sim::PlatformKind::kHttp;
  opts.num_replicas = replicas;
  opts.net.jitter = 0;
  opts.servant_factory = [] {
    return std::make_shared<sim::BankAccountServant>();
  };
  return opts;
}

TEST(HttpCqos, BasicCallsThroughFullStack) {
  sim::Cluster cluster(http_options());
  auto client = cluster.make_client();
  sim::BankAccountStub account(client->stub_ptr());
  account.set_balance(31);
  account.deposit(11);
  EXPECT_EQ(account.get_balance(), 42);
  EXPECT_THROW(account.withdraw(1000), InvocationError);
}

TEST(HttpCqos, SecurityMicroProtocolsRunUnchanged) {
  auto opts = http_options();
  opts.qos.add(Side::kClient, "des_privacy", {{"key", "0123456789abcdef"}})
      .add(Side::kClient, "integrity")
      .add(Side::kServer, "des_privacy", {{"key", "0123456789abcdef"}})
      .add(Side::kServer, "integrity")
      .add(Side::kServer, "access_control", {{"allow", "alice:*"}});
  sim::Cluster cluster(opts);
  CqosStub::Options alice;
  alice.principal = "alice";
  auto client = cluster.make_client(alice);
  sim::BankAccountStub account(client->stub_ptr());
  account.set_balance(5);
  EXPECT_EQ(account.get_balance(), 5);

  CqosStub::Options eve;
  eve.principal = "eve";
  auto eve_client = cluster.make_client(eve);
  EXPECT_THROW(eve_client->call("get_balance", {}), InvocationError);
}

TEST(HttpCqos, ActiveReplicationWithVotingOverHttp) {
  auto opts = http_options(3);
  opts.qos.add(Side::kClient, "active_rep")
      .add(Side::kClient, "majority_vote");
  sim::Cluster cluster(opts);
  auto client = cluster.make_client();
  sim::BankAccountStub account(client->stub_ptr());
  account.set_balance(99);
  EXPECT_EQ(account.get_balance(), 99);
  cluster.crash_replica(2);
  EXPECT_EQ(account.get_balance(), 99);  // 2-of-3 majority survives
}

TEST(HttpCqos, PassiveFailoverOverHttp) {
  auto opts = http_options(2);
  opts.qos.add(Side::kClient, "passive_rep").add(Side::kServer, "passive_rep");
  sim::Cluster cluster(opts);
  auto client = cluster.make_client();
  sim::BankAccountStub account(client->stub_ptr());
  account.set_balance(7);
  cluster.crash_replica(0);
  EXPECT_EQ(account.get_balance(), 7);
}

}  // namespace
}  // namespace cqos
