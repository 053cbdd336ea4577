#include <gtest/gtest.h>

#include <thread>

#include "common/metrics.h"
#include "cqos/request.h"

namespace cqos {
namespace {

TEST(Request, IdsAreUnique) {
  Request a("obj", "m", {});
  Request b("obj", "m", {});
  EXPECT_NE(a.id, 0u);
  EXPECT_NE(a.id, b.id);
}

TEST(Request, CompleteIsFirstWriterWins) {
  Request req("obj", "m", {});
  EXPECT_TRUE(req.complete(true, Value(1)));
  EXPECT_FALSE(req.complete(false, Value(2), "late"));
  EXPECT_TRUE(req.succeeded());
  EXPECT_EQ(req.result(), Value(1));
  EXPECT_TRUE(req.error().empty());
}

TEST(Request, WaitBlocksUntilComplete) {
  auto req = std::make_shared<Request>("obj", "m", ValueList{});
  std::thread completer([req] {
    std::this_thread::sleep_for(ms(30));
    req->complete(true, Value(9));
  });
  EXPECT_TRUE(req->wait(ms(2000)));
  EXPECT_EQ(req->result(), Value(9));
  completer.join();
}

TEST(Request, WaitTimesOutWhenIncomplete) {
  Request req("obj", "m", {});
  EXPECT_FALSE(req.wait(ms(20)));
  EXPECT_FALSE(req.is_done());
}

TEST(Request, StageThenFinishTwoPhase) {
  Request req("obj", "m", {});
  req.stage(true, Value(5));
  EXPECT_FALSE(req.is_done());  // staged but not released
  EXPECT_TRUE(req.staged_success());
  EXPECT_EQ(req.staged_result(), Value(5));
  req.set_staged_result(Value(6));  // invokeReturn handlers may transform
  req.finish();
  EXPECT_TRUE(req.is_done());
  EXPECT_EQ(req.result(), Value(6));
}

TEST(Request, StageAfterCompleteIsIgnored) {
  Request req("obj", "m", {});
  req.complete(false, Value(), "denied");
  req.stage(true, Value(1));
  req.set_staged_result(Value(2));
  EXPECT_FALSE(req.succeeded());
  EXPECT_EQ(req.error(), "denied");
}

TEST(Request, OnceRunsExactlyOncePerFlag) {
  Request req("obj", "m", {});
  int runs = 0;
  EXPECT_TRUE(req.once("f", [&] { ++runs; }));
  EXPECT_FALSE(req.once("f", [&] { ++runs; }));
  EXPECT_TRUE(req.once("g", [&] { ++runs; }));
  EXPECT_EQ(runs, 2);
  EXPECT_TRUE(req.has_flag("f"));
  EXPECT_FALSE(req.has_flag("zzz"));
}

TEST(Request, OnceIsConcurrencySafe) {
  Request req("obj", "m", {});
  std::atomic<int> runs{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 8; ++i) {
    threads.emplace_back([&] { req.once("flag", [&] { runs.fetch_add(1); }); });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(runs.load(), 1);
}

TEST(Request, OutcomeCounting) {
  Request req("obj", "m", {});
  req.set_expected_replies(3);
  Invocation ok;
  ok.success = true;
  Invocation bad;
  bad.success = false;
  auto c1 = req.record_outcome(ok);
  EXPECT_EQ(c1.successes, 1);
  EXPECT_EQ(c1.expected, 3);
  auto c2 = req.record_outcome(bad);
  EXPECT_EQ(c2.failures, 1);
  req.reclassify_success_as_failure();
  auto c3 = req.counts();
  EXPECT_EQ(c3.successes, 0);
  EXPECT_EQ(c3.failures, 2);
}

TEST(Request, ReclassifyWithoutSuccessIsNoop) {
  Request req("obj", "m", {});
  req.reclassify_success_as_failure();
  EXPECT_EQ(req.counts().failures, 0);
}

TEST(Request, ResetClearsEverything) {
  Request req("old", "m1", {Value(1)});
  std::uint64_t old_id = req.id;
  req.piggyback["k"] = Value(1);
  req.once("flag", [] {});
  req.set_expected_replies(3);
  req.complete(true, Value(5));

  req.reset("new", "m2", {Value(2)});
  EXPECT_NE(req.id, old_id);
  EXPECT_EQ(req.object_id, "new");
  EXPECT_EQ(req.method, "m2");
  EXPECT_TRUE(req.piggyback.empty());
  EXPECT_FALSE(req.is_done());
  EXPECT_FALSE(req.has_flag("flag"));
  EXPECT_EQ(req.expected_replies(), 1);
  EXPECT_EQ(req.counts().successes, 0);
}

TEST(Request, ForwardCodecRoundtrip) {
  Request req("BankAccount", "set_balance", {Value(77), Value("x")});
  req.priority = 8;
  req.piggyback["cq.prio"] = Value(8);
  req.piggyback["custom"] = Value("y");

  RequestPtr copy =
      Request::decode_forwarded("BankAccount", req.encode_for_forward());
  EXPECT_EQ(copy->id, req.id);
  EXPECT_EQ(copy->object_id, "BankAccount");
  EXPECT_EQ(copy->method, "set_balance");
  EXPECT_EQ(copy->params(), req.params());
  EXPECT_EQ(copy->piggyback.at("custom"), Value("y"));
  EXPECT_EQ(copy->priority, 8);
  EXPECT_TRUE(copy->forwarded);
}

TEST(Request, ReplyPiggybackMerges) {
  Request req("obj", "m", {});
  req.merge_reply_piggyback({{"a", Value(1)}});
  req.merge_reply_piggyback({{"a", Value(2)}, {"b", Value(3)}});
  PiggybackMap pb = req.reply_piggyback();
  EXPECT_EQ(pb.at("a"), Value(2));
  EXPECT_EQ(pb.at("b"), Value(3));
}

// --- encoded-params cache (the single-encode invariant, DESIGN.md §10) -------

std::uint64_t encodes() {
  return metrics::Registry::global().counter("cqos.request.encodes").value();
}

TEST(RequestEncodeCache, EncodedParamsIsComputedOnceAndShared) {
  Request req("obj", "m", {Value(42), Value("hello")});
  std::uint64_t before = encodes();
  auto a = req.encoded_params();
  auto b = req.encoded_params();
  auto c = req.encoded_params();
  EXPECT_EQ(a.get(), b.get());  // same shared buffer, not a re-encode
  EXPECT_EQ(b.get(), c.get());
  EXPECT_EQ(*a, Value::encode_list(req.params()));
  EXPECT_EQ(encodes() - before, 1u);
}

TEST(RequestEncodeCache, SetParamsInvalidatesTheCache) {
  Request req("obj", "m", {Value(1)});
  auto stale = req.encoded_params();
  req.set_params({Value(2), Value(3)});
  std::uint64_t before = encodes();
  auto fresh = req.encoded_params();
  EXPECT_NE(stale.get(), fresh.get());
  EXPECT_EQ(*fresh, Value::encode_list({Value(2), Value(3)}));
  // The old shared_ptr still holds the old bytes (late readers are safe).
  EXPECT_EQ(*stale, Value::encode_list({Value(1)}));
  EXPECT_EQ(encodes() - before, 1u);
}

TEST(RequestEncodeCache, SetEncryptedParamsPrimesWithoutACountedEncode) {
  Request req("obj", "m", {Value(7)});
  Bytes ciphertext{0xde, 0xad, 0xbe, 0xef};
  std::uint64_t before = encodes();
  req.set_encrypted_params(Bytes(ciphertext));
  auto encoded = req.encoded_params();
  // Priming replaced the params with [bytes] and pre-filled the cache: no
  // counted encode happened, and the bytes match a real traversal.
  EXPECT_EQ(encodes() - before, 0u);
  ASSERT_EQ(req.params().size(), 1u);
  EXPECT_EQ(req.params()[0].as_bytes(), ciphertext);
  EXPECT_EQ(*encoded, Value::encode_list(req.params()));
}

TEST(RequestEncodeCache, ResetInvalidatesTheCache) {
  Request req("obj", "m", {Value(1)});
  auto stale = req.encoded_params();
  req.reset("obj", "m2", {Value(9)});
  auto fresh = req.encoded_params();
  EXPECT_NE(stale.get(), fresh.get());
  EXPECT_EQ(*fresh, Value::encode_list({Value(9)}));
}

}  // namespace
}  // namespace cqos
