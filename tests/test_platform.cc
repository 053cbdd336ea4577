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

plat::Reply ok_reply(Value result, PiggybackMap pb = {}) {
  plat::Reply reply;
  reply.status = plat::ReplyStatus::kOk;
  reply.result = std::move(result);
  reply.piggyback = std::move(pb);
  return reply;
}

plat::Reply failed_reply(plat::ReplyStatus status, std::string error,
                         PiggybackMap pb = {}) {
  plat::Reply reply;
  reply.status = status;
  reply.error = std::move(error);
  reply.piggyback = std::move(pb);
  return reply;
}

TEST(Giop, RequestRoundtrip) {
  const plat::Codec& giop = corba::giop_codec();
  PiggybackMap service_context{{"cq.id", Value(7)}};
  ValueList params{Value(1), Value("two"), Value(ValueList{Value(3.0)})};
  Bytes frame = giop.encode_request(42, "cli/orbcli0", "poa/Obj", "do_it",
                                    service_context, params);
  // GIOP 1.2 header: magic, version, little-endian flag, Request type, and
  // the body size, which counts everything after the 12-byte header.
  ASSERT_GE(frame.size(), 12u);
  EXPECT_EQ(Bytes(frame.begin(), frame.begin() + 8),
            (Bytes{'G', 'I', 'O', 'P', 1, 2, 1, 0}));
  ByteReader size_field{std::span(frame).subspan(8, 4)};
  EXPECT_EQ(size_field.get_u32(), frame.size() - 12);

  plat::Frame out = giop.decode(frame);
  EXPECT_EQ(out.kind, plat::Frame::Kind::kRequest);
  EXPECT_EQ(out.id, 42u);
  EXPECT_EQ(out.reply_to, "cli/orbcli0");
  EXPECT_EQ(out.target, "poa/Obj");
  EXPECT_EQ(out.method, "do_it");
  EXPECT_EQ(out.piggyback, service_context);
  EXPECT_EQ(out.params, params);
}

TEST(Giop, ReplyRoundtripBothStatuses) {
  const plat::Codec& giop = corba::giop_codec();
  Bytes frame = giop.encode_reply(7, ok_reply(Value("fine")));
  EXPECT_EQ(frame[7], 1);  // message type Reply
  EXPECT_EQ(frame[24], 0);  // after header and request id: NO_EXCEPTION
  plat::Frame ok = giop.decode(frame);
  EXPECT_EQ(ok.kind, plat::Frame::Kind::kReply);
  EXPECT_EQ(ok.id, 7u);
  EXPECT_TRUE(ok.reply.ok());
  EXPECT_EQ(ok.reply.result, Value("fine"));

  Bytes frame2 =
      giop.encode_reply(8, failed_reply(plat::ReplyStatus::kAppError, "nope"));
  EXPECT_EQ(frame2[24], 1);  // USER_EXCEPTION
  plat::Frame err = giop.decode(frame2);
  EXPECT_EQ(err.id, 8u);
  EXPECT_FALSE(err.reply.ok());
  EXPECT_EQ(err.reply.error, "nope");
}

TEST(Giop, BadMagicRejected) {
  Bytes frame = corba::giop_codec().encode_reply(1, ok_reply(Value()));
  frame[0] = 'X';
  EXPECT_THROW(corba::giop_codec().decode(frame), DecodeError);
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
  EXPECT_THROW(decode_piggyback(r), DecodeError);
}

TEST(Jrmp, CallRoundtrip) {
  const plat::Codec& jrmp = rmi::jrmp_codec();
  PiggybackMap pb{{"cq.prio", Value(9)}};
  ValueList params{Value(1), Value("x")};
  Bytes frame = jrmp.encode_request(5, "cli/rmicli0", "Obj", "do_it", pb,
                                    params);
  // Magic 'J', message type Call, then the call id as a one-byte varint.
  ASSERT_GE(frame.size(), 3u);
  EXPECT_EQ(frame[0], 0x4a);
  EXPECT_EQ(frame[1], 1);
  EXPECT_EQ(frame[2], 5);

  plat::Frame out = jrmp.decode(frame);
  EXPECT_EQ(out.kind, plat::Frame::Kind::kRequest);
  EXPECT_EQ(out.id, 5u);
  EXPECT_EQ(out.reply_to, "cli/rmicli0");
  EXPECT_EQ(out.target, "Obj");
  EXPECT_EQ(out.method, "do_it");
  EXPECT_EQ(out.params, params);
  EXPECT_EQ(out.piggyback, pb);
}

TEST(Jrmp, CompactnessBeatsGiop) {
  // The same logical request must be smaller in the RMI stream format than
  // in aligned CDR/GIOP — the mechanism behind the paper's platform gap.
  ValueList params{Value(std::int64_t{123456}), Value("hello world"),
                   Value(2.5)};
  PiggybackMap pb{{"cq.id", Value(std::int64_t{99})}};
  Bytes giop = corba::giop_codec().encode_request(
      1, "cli/orbcli0", "Obj_poa/Obj", "set_balance", pb, params);
  Bytes jrmp = rmi::jrmp_codec().encode_request(1, "cli/rmicli0", "Obj",
                                                "set_balance", pb, params);
  EXPECT_LT(jrmp.size(), giop.size());
}

TEST(Jrmp, ReturnRoundtripBothStatuses) {
  const plat::Codec& jrmp = rmi::jrmp_codec();
  Bytes f1 = jrmp.encode_reply(1, ok_reply(Value(5)));
  EXPECT_EQ(f1[1], 2);  // message type Return
  EXPECT_EQ(f1[3], 1);  // after the one-byte call id: ok
  plat::Frame ok = jrmp.decode(f1);
  EXPECT_EQ(ok.kind, plat::Frame::Kind::kReply);
  EXPECT_TRUE(ok.reply.ok());
  EXPECT_EQ(ok.reply.result, Value(5));

  Bytes f2 =
      jrmp.encode_reply(2, failed_reply(plat::ReplyStatus::kAppError, "bad"));
  EXPECT_EQ(f2[3], 0);
  plat::Frame err = jrmp.decode(f2);
  EXPECT_EQ(err.id, 2u);
  EXPECT_FALSE(err.reply.ok());
  EXPECT_EQ(err.reply.error, "bad");
}

TEST(Jrmp, BadMagicRejected) {
  Bytes frame = rmi::jrmp_codec().encode_reply(1, ok_reply(Value()));
  frame[0] = 0x00;
  EXPECT_THROW(rmi::jrmp_codec().decode(frame), DecodeError);
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

/// Every field of a decoded frame, whatever its kind (the fields a kind
/// does not use are empty on both sides).
void expect_same_frame(const plat::Frame& want, const plat::Frame& got) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.id, want.id);
  EXPECT_EQ(got.reply_to, want.reply_to);
  EXPECT_EQ(got.target, want.target);
  EXPECT_EQ(got.method, want.method);
  EXPECT_EQ(got.piggyback, want.piggyback);
  EXPECT_EQ(got.params, want.params);
  EXPECT_EQ(got.reply.ok(), want.reply.ok());
  EXPECT_EQ(got.reply.result, want.reply.result);
  EXPECT_EQ(got.reply.error, want.reply.error);
  EXPECT_EQ(got.reply.piggyback, want.reply.piggyback);
}

// Each whole request, reply (ok, failed, no such object), ping and pong
// frame decodes to exactly what was encoded, and every truncation of it
// decodes or throws DecodeError; no other exception, crash or hang. These
// frames are the seeds of a decode fuzzer.
TEST_P(CodecDecode, EveryTruncationIsAFrameOrADecodeError) {
  const plat::Codec& codec = GetParam().codec();
  PiggybackMap pb{{"cq.id", Value(7)}, {"cq.trace", Value("t-1")}};
  PiggybackMap failed_pb{{"cq.status", Value("denied")}};
  ValueList params{Value(1), Value("two"), Value(Bytes{0, 255}),
                   Value(ValueList{Value(3.5), Value()})};
  const std::string missing = codec.not_found("poa/Obj");
  const std::vector<std::pair<plat::Frame, Bytes>> frames{
      {plat::Frame::request(41, "cli/cli0", "poa/Obj", "do_it", pb, params),
       codec.encode_request(41, "cli/cli0", "poa/Obj", "do_it", pb, params)},
      {plat::Frame::answer(42, true, Value("result"), {}, pb),
       codec.encode_reply(42, ok_reply(Value("result"), pb))},
      {plat::Frame::answer(43, false, {}, "boom", failed_pb),
       codec.encode_reply(
           43, failed_reply(plat::ReplyStatus::kAppError, "boom", failed_pb))},
      {plat::Frame::answer(44, false, {}, missing),
       codec.encode_reply(
           44, failed_reply(plat::ReplyStatus::kUnreachable, missing))},
      {plat::Frame::ping(45, "cli/cli0"), codec.encode_ping(45, "cli/cli0")},
      {plat::Frame::answer(46, true), codec.encode_pong(46)}};
  for (const auto& [want, frame] : frames) {
    const std::uint64_t id = want.id;
    SCOPED_TRACE("frame " + std::to_string(id));
    expect_same_frame(want, codec.decode(frame));
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
                      CodecCase{"http", &http::http_codec}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace cqos
