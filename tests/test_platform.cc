// Platform-layer tests: naming conventions, request/reply, DII vs static,
// DSI dispatch, pings, unreachability, message formats.
#include <gtest/gtest.h>

#include "common/error.h"
#include "net/fault.h"
#include "platform/corba/agent.h"
#include "platform/corba/cdr.h"
#include "platform/corba/giop.h"
#include "platform/corba/orb.h"
#include "platform/core/runtime.h"
#include "platform/http/http.h"
#include "platform/rmi/jrmp.h"
#include "platform/rmi/registry.h"
#include "platform/rmi/rmi.h"

namespace cqos {
namespace {

class EchoHandler : public plat::ServantHandler {
 public:
  void handle(const std::string& method, ValueList params,
              PiggybackMap piggyback, plat::ReplyHandle out) override {
    plat::Reply reply;
    if (method == "boom") {
      reply.status = plat::ReplyStatus::kAppError;
      reply.error = "requested failure";
    } else {
      reply.status = plat::ReplyStatus::kOk;
      reply.result = Value(ValueList{Value(method), Value(std::move(params))});
      reply.piggyback = std::move(piggyback);
    }
    out.send(std::move(reply));
  }
};

struct PlatformFixture {
  net::SimNetwork net;
  std::unique_ptr<corba::SmartAgent> agent;
  std::unique_ptr<rmi::Registry> registry;

  PlatformFixture() : net([] {
    net::NetConfig cfg;
    cfg.base_latency = us(60);
    cfg.jitter = 0;
    return cfg;
  }()) {
    agent = std::make_unique<corba::SmartAgent>(net, "nameserver");
    registry = std::make_unique<rmi::Registry>(net, "nameserver");
  }

  std::unique_ptr<plat::Platform> make(const std::string& host, bool is_corba) {
    if (is_corba) return std::make_unique<corba::CorbaOrb>(net, host);
    return std::make_unique<rmi::RmiRuntime>(net, host);
  }
};

class BothPlatforms : public ::testing::TestWithParam<bool> {};

TEST_P(BothPlatforms, RegisterResolveInvoke) {
  PlatformFixture fix;
  auto server = fix.make("srv", GetParam());
  auto client = fix.make("cli", GetParam());
  server->register_servant(server->direct_name("Echo"),
                           std::make_shared<EchoHandler>(),
                           plat::DispatchMode::kStatic);
  auto ref = client->resolve(client->direct_name("Echo"), ms(500));
  plat::Reply reply =
      ref->invoke("hello", {Value(1), Value("x")}, {{"pb", Value(9)}}, ms(500));
  ASSERT_TRUE(reply.ok());
  const ValueList& echoed = reply.result.as_list();
  EXPECT_EQ(echoed.at(0).as_string(), "hello");
  EXPECT_EQ(echoed.at(1).as_list().at(1).as_string(), "x");
  EXPECT_EQ(reply.piggyback.at("pb"), Value(9));
}

TEST_P(BothPlatforms, DynamicInvocationMatchesStatic) {
  PlatformFixture fix;
  auto server = fix.make("srv", GetParam());
  auto client = fix.make("cli", GetParam());
  server->register_servant(server->direct_name("Echo"),
                           std::make_shared<EchoHandler>(),
                           plat::DispatchMode::kDsi);
  auto ref = client->resolve(client->direct_name("Echo"), ms(500));
  plat::Reply s = ref->invoke("m", {Value(3.5)}, {}, ms(500));
  plat::Reply d = ref->invoke_dynamic("m", {Value(3.5)}, {}, ms(500));
  ASSERT_TRUE(s.ok());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(s.result, d.result);
}

TEST_P(BothPlatforms, AppErrorsSurfaceAsAppError) {
  PlatformFixture fix;
  auto server = fix.make("srv", GetParam());
  auto client = fix.make("cli", GetParam());
  server->register_servant(server->direct_name("Echo"),
                           std::make_shared<EchoHandler>(),
                           plat::DispatchMode::kStatic);
  auto ref = client->resolve(client->direct_name("Echo"), ms(500));
  plat::Reply reply = ref->invoke("boom", {}, {}, ms(500));
  EXPECT_EQ(reply.status, plat::ReplyStatus::kAppError);
  EXPECT_EQ(reply.error, "requested failure");
}

TEST_P(BothPlatforms, UnknownNameThrowsNameNotFound) {
  PlatformFixture fix;
  auto client = fix.make("cli", GetParam());
  EXPECT_THROW(client->resolve(client->direct_name("Ghost"), ms(300)),
               NameNotFound);
}

TEST_P(BothPlatforms, UnregisteredServantReportsError) {
  PlatformFixture fix;
  auto server = fix.make("srv", GetParam());
  auto client = fix.make("cli", GetParam());
  server->register_servant(server->direct_name("Echo"),
                           std::make_shared<EchoHandler>(),
                           plat::DispatchMode::kStatic);
  auto ref = client->resolve(client->direct_name("Echo"), ms(500));
  server->unregister_servant(server->direct_name("Echo"));
  plat::Reply reply = ref->invoke("m", {}, {}, ms(500));
  EXPECT_FALSE(reply.ok());
}

TEST_P(BothPlatforms, PingAliveAndDead) {
  PlatformFixture fix;
  auto server = fix.make("srv", GetParam());
  auto client = fix.make("cli", GetParam());
  server->register_servant(server->direct_name("Echo"),
                           std::make_shared<EchoHandler>(),
                           plat::DispatchMode::kStatic);
  auto ref = client->resolve(client->direct_name("Echo"), ms(500));
  EXPECT_TRUE(ref->ping(ms(300)));
  fix.net.faults().crash_host("srv");
  EXPECT_FALSE(ref->ping(ms(100)));
}

TEST_P(BothPlatforms, CrashedServerYieldsUnreachable) {
  PlatformFixture fix;
  auto server = fix.make("srv", GetParam());
  auto client = fix.make("cli", GetParam());
  server->register_servant(server->direct_name("Echo"),
                           std::make_shared<EchoHandler>(),
                           plat::DispatchMode::kStatic);
  auto ref = client->resolve(client->direct_name("Echo"), ms(500));
  fix.net.faults().crash_host("srv");
  plat::Reply reply = ref->invoke("m", {}, {}, ms(150));
  EXPECT_EQ(reply.status, plat::ReplyStatus::kUnreachable);
}

INSTANTIATE_TEST_SUITE_P(Kind, BothPlatforms, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "corba" : "rmi";
                         });

// --- naming conventions (paper §4) ---------------------------------------------

TEST(Naming, CorbaPoaConvention) {
  net::SimNetwork net;
  corba::SmartAgent agent(net, "nameserver");
  corba::CorbaOrb orb(net, "h");
  EXPECT_EQ(orb.replica_name("Bank", 2), "Bank_agent_poa_2/Bank_CQoS_Skeleton");
  EXPECT_EQ(orb.direct_name("Bank"), "Bank_poa/Bank");
  EXPECT_EQ(orb.name(), "corba");
}

TEST(Naming, RmiRegistryConvention) {
  net::SimNetwork net;
  rmi::Registry registry(net, "nameserver");
  rmi::RmiRuntime runtime(net, "h");
  EXPECT_EQ(runtime.replica_name("Bank", 3), "Bank_CQoS_Skeleton_3");
  EXPECT_EQ(runtime.direct_name("Bank"), "Bank");
  EXPECT_EQ(runtime.name(), "rmi");
}

TEST(Naming, CorbaRejectsMalformedNames) {
  net::SimNetwork net;
  corba::SmartAgent agent(net, "nameserver");
  corba::CorbaOrb orb(net, "h");
  EXPECT_THROW(orb.resolve("no-slash", ms(100)), NameNotFound);
  EXPECT_THROW(
      orb.register_servant("no-slash", std::make_shared<EchoHandler>(),
                           plat::DispatchMode::kStatic),
      ConfigError);
}

// --- wire formats ----------------------------------------------------------------

TEST(Giop, RequestRoundtrip) {
  corba::RequestBody body;
  body.reply_to = "cli/orbcli0";
  body.object_key = "poa/Obj";
  body.operation = "do_it";
  body.service_context = {{"cq.id", Value(7)}};
  body.params = {Value(1), Value("two"), Value(ValueList{Value(3.0)})};
  Bytes frame = corba::encode_request(42, body);

  ByteReader r(frame);
  corba::GiopHeader header = corba::read_frame(r);
  EXPECT_EQ(header.type, corba::MsgType::kRequest);
  EXPECT_EQ(header.request_id, 42u);
  corba::RequestBody out = corba::decode_request_body(r);
  EXPECT_EQ(out.reply_to, body.reply_to);
  EXPECT_EQ(out.object_key, body.object_key);
  EXPECT_EQ(out.operation, body.operation);
  EXPECT_EQ(out.service_context, body.service_context);
  EXPECT_EQ(out.params, body.params);
}

TEST(Giop, ReplyRoundtripBothStatuses) {
  corba::ReplyBody ok;
  ok.status = corba::GiopReplyStatus::kNoException;
  ok.result = Value("fine");
  Bytes frame = corba::encode_reply(7, ok);
  ByteReader r(frame);
  corba::read_frame(r);
  EXPECT_EQ(corba::decode_reply_body(r).result, Value("fine"));

  corba::ReplyBody err;
  err.status = corba::GiopReplyStatus::kUserException;
  err.error = "nope";
  Bytes frame2 = corba::encode_reply(8, err);
  ByteReader r2(frame2);
  corba::read_frame(r2);
  EXPECT_EQ(corba::decode_reply_body(r2).error, "nope");
}

TEST(Giop, BadMagicRejected) {
  Bytes frame = corba::encode_reply(1, {});
  frame[0] = 'X';
  ByteReader r(frame);
  EXPECT_THROW(corba::read_frame(r), DecodeError);
}

TEST(Cdr, AnyRoundtripAllTypes) {
  for (const Value& v :
       {Value(), Value(true), Value(std::int64_t{-5}), Value(2.25),
        Value("str"), Value(Bytes{1, 2, 3}),
        Value(ValueList{Value(1), Value("x")})}) {
    ByteWriter w;
    corba::encode_any(w, v);
    ByteReader r(w.data());
    EXPECT_EQ(corba::decode_any(r), v);
  }
}

TEST(Cdr, AlignmentIsEnforced) {
  // Misalign by one byte, then encode an i64 Any: payload must land on an
  // 8-byte boundary (after the 1-byte typecode).
  ByteWriter w;
  w.put_u8(0);
  corba::encode_any(w, Value(std::int64_t{0x1122334455667788}));
  ByteReader r(w.data());
  r.get_u8();
  EXPECT_EQ(corba::decode_any(r), Value(std::int64_t{0x1122334455667788}));
}

TEST(Cdr, StringsAreNulTerminated) {
  ByteWriter w;
  corba::encode_cdr_string(w, "ab");
  // align(4) is a no-op at offset 0: u32 len=3, 'a', 'b', NUL.
  EXPECT_EQ(w.data(), (Bytes{3, 0, 0, 0, 'a', 'b', 0}));
}

TEST(Cdr, DuplicateServiceContextKeyRejected) {
  // The encoder dedupes (PiggybackMap), so hand-craft a context list that
  // carries the same key twice; decoding must throw rather than silently
  // dropping the second entry.
  ByteWriter w;
  w.align(4);
  w.put_u32(2);
  corba::encode_cdr_string(w, "cq.trace");
  corba::encode_any(w, Value(std::int64_t{1}));
  corba::encode_cdr_string(w, "cq.trace");
  corba::encode_any(w, Value(std::int64_t{2}));
  ByteReader r(w.data());
  EXPECT_THROW(corba::decode_service_context(r), DecodeError);
}

TEST(Jrmp, DuplicatePiggybackKeyRejected) {
  ByteWriter w;
  w.put_varint(2);
  w.put_string("cq.trace");
  Value(std::int64_t{1}).encode(w);
  w.put_string("cq.trace");
  Value(std::int64_t{2}).encode(w);
  ByteReader r(w.data());
  EXPECT_THROW(rmi::decode_pb(r), DecodeError);
}

TEST(Jrmp, CallRoundtrip) {
  rmi::CallBody body;
  body.reply_to = "cli/rmicli0";
  body.target = "Obj";
  body.method = "do_it";
  body.piggyback = {{"cq.prio", Value(9)}};
  body.params = {Value(1), Value("x")};
  Bytes frame = rmi::encode_call(5, body);
  ByteReader r(frame);
  rmi::Header h = rmi::read_header(r);
  EXPECT_EQ(h.type, rmi::MsgType::kCall);
  EXPECT_EQ(h.call_id, 5u);
  rmi::CallBody out = rmi::decode_call_body(r);
  EXPECT_EQ(out.target, "Obj");
  EXPECT_EQ(out.method, "do_it");
  EXPECT_EQ(out.params, body.params);
  EXPECT_EQ(out.piggyback, body.piggyback);
}

TEST(Jrmp, CompactnessBeatsGiop) {
  // The same logical request must be smaller in the RMI stream format than
  // in aligned CDR/GIOP — the mechanism behind the paper's platform gap.
  ValueList params{Value(std::int64_t{123456}), Value("hello world"),
                   Value(2.5)};
  PiggybackMap pb{{"cq.id", Value(std::int64_t{99})}};

  corba::RequestBody greq;
  greq.reply_to = "cli/orbcli0";
  greq.object_key = "Obj_poa/Obj";
  greq.operation = "set_balance";
  greq.service_context = pb;
  greq.params = params;
  Bytes giop = corba::encode_request(1, greq);

  rmi::CallBody jreq;
  jreq.reply_to = "cli/rmicli0";
  jreq.target = "Obj";
  jreq.method = "set_balance";
  jreq.piggyback = pb;
  jreq.params = params;
  Bytes jrmp = rmi::encode_call(1, jreq);

  EXPECT_LT(jrmp.size(), giop.size());
}

TEST(Jrmp, ReturnRoundtripBothStatuses) {
  rmi::ReturnBody ok;
  ok.ok = true;
  ok.result = Value(5);
  Bytes f1 = rmi::encode_return(1, ok);
  ByteReader r1(f1);
  rmi::read_header(r1);
  EXPECT_EQ(rmi::decode_return_body(r1).result, Value(5));

  rmi::ReturnBody err;
  err.ok = false;
  err.error = "bad";
  Bytes f2 = rmi::encode_return(2, err);
  ByteReader r2(f2);
  rmi::read_header(r2);
  rmi::ReturnBody out = rmi::decode_return_body(r2);
  EXPECT_FALSE(out.ok);
  EXPECT_EQ(out.error, "bad");
}

TEST(Jrmp, BadMagicRejected) {
  Bytes frame = rmi::encode_return(1, {});
  frame[0] = 0x00;
  ByteReader r(frame);
  EXPECT_THROW(rmi::read_header(r), DecodeError);
}

// --- codec decode: a frame or a DecodeError, nothing else ----------------------

struct CodecCase {
  const char* name;
  const plat::Codec& (*codec)();
};

// Print a case by its name, not its pointer bytes, so each test's listed
// name is the same in every build and every run.
void PrintTo(const CodecCase& c, std::ostream* os) { *os << c.name; }

class CodecDecode : public ::testing::TestWithParam<CodecCase> {};

// Every truncation of a valid request, reply, ping and pong frame decodes
// or throws DecodeError; no other exception, crash or hang. These frames
// are the seeds of a decode fuzzer.
TEST_P(CodecDecode, EveryTruncationIsAFrameOrADecodeError) {
  const plat::Codec& codec = GetParam().codec();
  PiggybackMap pb{{"cq.id", Value(7)}, {"cq.trace", Value("t-1")}};
  ValueList params{Value(1), Value("two"), Value(Bytes{0, 255}),
                   Value(ValueList{Value(3.5), Value()})};
  plat::Reply ok;
  ok.status = plat::ReplyStatus::kOk;
  ok.result = Value("result");
  ok.piggyback = pb;
  plat::Reply failed;
  failed.status = plat::ReplyStatus::kAppError;
  failed.error = "boom";
  const std::vector<std::pair<std::uint64_t, Bytes>> frames{
      {41,
       codec.encode_request(41, "cli/cli0", "poa/Obj", "do_it", pb, params)},
      {42, codec.encode_reply(42, ok)},
      {43, codec.encode_reply(43, failed)},
      {44, codec.encode_ping(44, "cli/cli0")},
      {45, codec.encode_pong(45)}};
  for (const auto& [id, frame] : frames) {
    EXPECT_EQ(codec.decode(frame).id, id);
    for (std::size_t n = 0; n < frame.size(); ++n) {
      Bytes prefix(frame.begin(),
                   frame.begin() + static_cast<std::ptrdiff_t>(n));
      try {
        (void)codec.decode(prefix);
      } catch (const DecodeError&) {
      } catch (const std::exception& e) {
        ADD_FAILURE() << "frame " << id << " cut to " << n << " bytes threw "
                      << e.what();
      } catch (...) {
        ADD_FAILURE() << "frame " << id << " cut to " << n
                      << " bytes threw a non-std exception";
      }
    }
  }
}

/// `frame` with its last param, a null encoded as the frame's last byte,
/// wrapped in `depth` one-element lists (JRMP and HTTP carry Values, GIOP
/// carries CDR Any sequences).
Bytes nest_last_param(std::string_view codec, const Bytes& frame, int depth) {
  if (codec == "giop") {
    ByteWriter w;
    w.put_bytes(std::span<const std::uint8_t>(frame.data(), frame.size() - 1));
    for (int i = 0; i < depth; ++i) {
      w.put_u8(static_cast<std::uint8_t>(corba::TcKind::kAnySeq));
      w.align(4);
      w.put_u32(1);
    }
    w.put_u8(static_cast<std::uint8_t>(corba::TcKind::kNull));
    w.patch_u32(8, static_cast<std::uint32_t>(w.size() - 12));  // body size
    return std::move(w).take();
  }
  Bytes out(frame.begin(), frame.end() - 1);
  for (int i = 0; i < depth; ++i) {
    out.push_back(static_cast<std::uint8_t>(Value::Type::kList));
    out.push_back(1);  // varint element count
  }
  out.push_back(static_cast<std::uint8_t>(Value::Type::kNull));
  if (codec == "http") {
    std::string text(out.begin(), out.end());
    const std::size_t body = text.size() - (text.find("\r\n\r\n") + 4);
    const std::size_t at = text.find("Content-Length: ") + 16;
    text.replace(at, text.find("\r\n", at) - at, std::to_string(body));
    out.assign(text.begin(), text.end());
  }
  return out;
}

Bytes null_param_request(const plat::Codec& codec) {
  return codec.encode_request(7, "cli/cli0", "poa/Obj", "m", {}, {Value()});
}

// A hostile frame nesting lists 100,000 deep must not recurse the decoder
// off the stack: past Value::kMaxNesting it is a DecodeError.
TEST_P(CodecDecode, DeepNestingIsADecodeError) {
  const plat::Codec& codec = GetParam().codec();
  const Bytes frame = null_param_request(codec);
  for (int depth : {100'000, Value::kMaxNesting + 1}) {
    EXPECT_THROW(codec.decode(nest_last_param(GetParam().name, frame, depth)),
                 DecodeError)
        << depth;
  }
}

TEST_P(CodecDecode, NestingAtTheBoundDecodes) {
  const plat::Codec& codec = GetParam().codec();
  plat::Frame f = codec.decode(nest_last_param(
      GetParam().name, null_param_request(codec), Value::kMaxNesting));
  ASSERT_EQ(f.params.size(), 1u);
  const Value* v = &f.params[0];
  for (int i = 0; i < Value::kMaxNesting; ++i) {
    ASSERT_EQ(v->as_list().size(), 1u);
    v = &v->as_list()[0];
  }
  EXPECT_TRUE(v->is_null());
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecs, CodecDecode,
    ::testing::Values(CodecCase{"jrmp", &rmi::jrmp_codec},
                      CodecCase{"giop", &corba::giop_codec},
                      CodecCase{"http", &http::wire::codec}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace cqos
