// Protocol fuzz leg for caesard (ctest label: fuzz): a seeded frame-level
// mutator throws truncated frames, hostile lengths, raw garbage,
// shape-broken JSON, and event rows that do not fit their type's schema
// at a live daemon over real sockets. The properties held are the
// contract of a network daemon:
//
//   1. the daemon never crashes — it stays alive through every volley;
//   2. anything that parses far enough to answer gets a *coded* error
//      (I42x), never a hang or an uncoded close with pending valid input;
//   3. a fresh, well-formed connection still works after each volley.
//
// Deterministic: one fixed seed, pure mt19937 derivation, no wall-clock
// dependence in the generated payloads.

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "caesard_harness.h"
#include "gtest/gtest.h"
#include "server/wire.h"

namespace caesar {
namespace {

using testing::Client;
using testing::Daemon;
using testing::IsOk;
using testing::Req;

std::string RandomBytes(std::mt19937& rng, size_t max_len) {
  std::uniform_int_distribution<size_t> len_dist(0, max_len);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  std::string out(len_dist(rng), '\0');
  for (char& c : out) c = static_cast<char>(byte_dist(rng));
  return out;
}

std::string BinaryFrame(std::string_view payload, uint32_t claimed_len) {
  std::string frame;
  frame.push_back(static_cast<char>(0xC5));
  frame.push_back(static_cast<char>(claimed_len & 0xFF));
  frame.push_back(static_cast<char>((claimed_len >> 8) & 0xFF));
  frame.push_back(static_cast<char>((claimed_len >> 16) & 0xFF));
  frame.push_back(static_cast<char>((claimed_len >> 24) & 0xFF));
  frame.append(payload);
  return frame;
}

// The tenant the ingest mutations target: an int attribute that a WHERE
// compares and a DERIVE does integer arithmetic on, so a value of the
// wrong kind that got through would reach both.
constexpr char kTenantModel[] =
    "TYPE Temp(sensor int, celsius int);\n"
    "TYPE Hot(sensor int, over int);\n"
    "CONTEXTS c0 DEFAULT c0;\n"
    "PARTITION BY sensor;\n"
    "QUERY hot DERIVE Hot(t.sensor AS sensor, t.celsius - 90 AS over)\n"
    "PATTERN Temp t WHERE t.celsius > 90 CONTEXT c0;\n";

// An ingest for tenant "x" of one to three rows, each broken against the
// Temp schema: wrong arity, or a value of the wrong kind.
std::string SchemaBrokenIngest(std::mt19937& rng) {
  const char* rows[] = {
      R"(["Temp",5,[7,"hot"]])",  R"(["Temp",5,[7]])",
      R"(["Temp",5,[]])",         R"(["Temp",5,[7,95,1]])",
      R"(["Temp",5,[7,95.5]])",   R"(["Temp",5,["seven",95]])",
      R"(["Temp",5,[7,1e300]])",  R"(["Temp",5,6,[7,"hot"]])",
  };
  std::uniform_int_distribution<int> row(0, 7);
  std::string events = rows[row(rng)];
  for (int n = std::uniform_int_distribution<int>(0, 2)(rng); n > 0; --n) {
    events += std::string(",") + rows[row(rng)];
  }
  return "{\"cmd\":\"ingest\",\"tenant\":\"x\",\"events\":[" + events +
         "]}\n";
}

// One hostile message, chosen by the dial.
std::string Mutate(std::mt19937& rng) {
  std::uniform_int_distribution<int> pick(0, 10);
  switch (pick(rng)) {
    case 0:  // raw garbage, newline-terminated so the server must answer
      return RandomBytes(rng, 64) + "\n";
    case 1: {  // truncated binary frame: promises more than it sends
      std::string payload = RandomBytes(rng, 32);
      return BinaryFrame(payload,
                         static_cast<uint32_t>(payload.size() + 100));
    }
    case 2:  // hostile length prefix, no payload at all
      return BinaryFrame("", 0xFFFFFFFFu);
    case 3: {  // well-formed frame, garbage payload
      std::string payload = RandomBytes(rng, 128);
      return BinaryFrame(payload, static_cast<uint32_t>(payload.size()));
    }
    case 4: {  // valid framing, non-object JSON
      const char* docs[] = {"42\n", "[1,2,3]\n", "\"hi\"\n", "null\n",
                            "true\n"};
      return docs[std::uniform_int_distribution<int>(0, 4)(rng)];
    }
    case 5: {  // object, broken shape
      const char* docs[] = {
          "{}\n",
          "{\"cmd\":123}\n",
          "{\"cmd\":\"warp\"}\n",
          "{\"cmd\":\"register\"}\n",
          "{\"cmd\":\"register\",\"tenant\":\"x\"}\n",
          "{\"cmd\":\"ingest\",\"tenant\":\"x\",\"events\":7}\n",
          "{\"cmd\":\"ingest\",\"tenant\":\"x\",\"events\":[[1]]}\n",
          "{\"cmd\":\"stats\",\"tenant\":\"x\",\"format\":\"xml\"}\n",
      };
      return docs[std::uniform_int_distribution<int>(0, 7)(rng)];
    }
    case 6: {  // nesting bomb (parser depth cap must answer, not recurse out)
      std::string deep(200, '[');
      deep += std::string(200, ']');
      deep += "\n";
      return deep;
    }
    case 7: {  // valid command inside a binary frame, then mid-frame trash
      std::string good = BinaryFrame("{\"cmd\":\"ping\"}", 14);
      return good + BinaryFrame(RandomBytes(rng, 16), 9999);
    }
    case 8:  // unterminated line (no newline): server must wait, we close
      return RandomBytes(rng, 48);
    case 9:  // rows that do not fit the live tenant's schema
      return SchemaBrokenIngest(rng);
    default: {  // interleaved: garbage line then a valid ping line
      return RandomBytes(rng, 24) + "\n{\"cmd\":\"ping\"}\n";
    }
  }
}

TEST(CaesardProtocolFuzz, HostileFramesNeverKillTheDaemon) {
  Daemon daemon({"--deterministic", "--workers=2", "--max-frame-bytes=65536",
                 "--max-tenants=4"});
  ASSERT_TRUE(daemon.valid());
  {
    Client setup(daemon.port());
    ASSERT_TRUE(setup.connected());
    JsonValue reg = Req("register", "x");
    reg.Set("model", JsonValue::String(kTenantModel));
    auto registered = setup.Call(reg);
    ASSERT_TRUE(registered.ok() && IsOk(registered.value()));
  }

  std::mt19937 rng(0xC4E5A2u);
  constexpr int kIterations = 200;
  for (int i = 0; i < kIterations; ++i) {
    {
      Client hostile(daemon.port(), /*recv_timeout_seconds=*/2);
      ASSERT_TRUE(hostile.connected()) << "iteration " << i;
      hostile.SendRaw(Mutate(rng));
      // Half-close so torn frames resolve to EOF server-side instead of
      // pinning a connection until the read timeout.
      hostile.ShutdownWrite();
      // Whatever comes back (a coded error, a ping pong, or a close) is
      // acceptable; a crash is not. Drain best-effort.
      (void)hostile.TryRead();
    }
    ASSERT_TRUE(daemon.Alive()) << "daemon died at iteration " << i;

    // Every 20 volleys: the front door still works end to end.
    if (i % 20 == 19) {
      Client probe(daemon.port());
      ASSERT_TRUE(probe.connected());
      auto pong = probe.Call(Req("ping"));
      ASSERT_TRUE(pong.ok()) << pong.status();
      EXPECT_TRUE(IsOk(pong.value()));
    }
  }

  // Parseable-but-invalid requests answer with codes, not closes: check
  // the contract explicitly on one connection.
  Client client(daemon.port());
  ASSERT_TRUE(client.connected());
  auto bad_cmd = client.Call([] {
    JsonValue r = JsonValue::Object();
    r.Set("cmd", JsonValue::String("warp"));
    return r;
  }());
  ASSERT_TRUE(bad_cmd.ok());
  EXPECT_EQ(testing::ErrorCode(bad_cmd.value()), "I423");

  // The tenant the schema-broken rows targeted still takes good rows.
  JsonValue good = Req("ingest", "x");
  good.Set("events", ParseJson(R"([["Temp",9,[7,95]]])").value());
  auto accepted = client.Call(good);
  ASSERT_TRUE(accepted.ok()) << accepted.status();
  EXPECT_TRUE(IsOk(accepted.value())) << accepted.value().Dump();

  EXPECT_TRUE(daemon.Alive());
  ASSERT_TRUE(IsOk(client.Call(Req("shutdown")).value()));
  EXPECT_TRUE(daemon.ShutdownCleanly());
}

}  // namespace
}  // namespace caesar
