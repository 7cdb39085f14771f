// Unit tests for the caesard wire layer (server/wire.h): the JSON document
// model, the deterministic serializer, the event row codec, and both
// message framings over a real socketpair.

#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "event/event.h"
#include "event/schema.h"
#include "gtest/gtest.h"
#include "server/protocol.h"
#include "server/wire.h"

namespace caesar {
namespace {

// --- JSON parser -----------------------------------------------------------

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(ParseJson("null").value().is_null());
  EXPECT_TRUE(ParseJson("true").value().bool_value());
  EXPECT_FALSE(ParseJson("false").value().bool_value());
  EXPECT_EQ(ParseJson("42").value().int_value(), 42);
  EXPECT_EQ(ParseJson("-7").value().int_value(), -7);
  EXPECT_DOUBLE_EQ(ParseJson("2.5").value().double_value(), 2.5);
  EXPECT_DOUBLE_EQ(ParseJson("1e3").value().double_value(), 1000.0);
  EXPECT_EQ(ParseJson("\"hi\"").value().string_value(), "hi");
}

TEST(JsonParse, IntegerPrecisionSurvives) {
  // A double would lose the low bits of this int64.
  const int64_t big = 9007199254740993;  // 2^53 + 1
  JsonValue v = ParseJson("9007199254740993").value();
  ASSERT_TRUE(v.is_int());
  EXPECT_EQ(v.int_value(), big);
}

TEST(JsonParse, StringEscapes) {
  JsonValue v = ParseJson(R"("a\"b\\c\/d\n\tAé")").value();
  EXPECT_EQ(v.string_value(), "a\"b\\c/d\n\tA\xc3\xa9");
  // Surrogate pair: U+1F600.
  EXPECT_EQ(ParseJson(R"("😀")").value().string_value(),
            "\xf0\x9f\x98\x80");
  // Lone surrogate is an error.
  EXPECT_FALSE(ParseJson(R"("\ud83d")").ok());
}

TEST(JsonParse, Containers) {
  JsonValue v = ParseJson(R"({"a":[1,2,{"b":null}],"c":true})").value();
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_TRUE(a->items()[2].Find("b")->is_null());
  EXPECT_TRUE(v.Find("c")->bool_value());
  EXPECT_EQ(v.Find("missing"), nullptr);
}

TEST(JsonParse, RejectsGarbage) {
  EXPECT_FALSE(ParseJson("").ok());
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("\x01").ok());
}

TEST(JsonParse, DepthCapHolds) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(ParseJson(deep).ok());  // past the cap
  std::string shallow(10, '[');
  shallow += std::string(10, ']');
  EXPECT_TRUE(ParseJson(shallow).ok());
}

TEST(JsonDump, DeterministicRoundTrip) {
  const char* docs[] = {
      R"({"a":1,"b":[true,null,"x"],"c":{"d":-2.5}})",
      R"([1,9007199254740993,"\\\""])",
      R"({"empty_obj":{},"empty_arr":[]})",
  };
  for (const char* doc : docs) {
    Result<JsonValue> parsed = ParseJson(doc);
    ASSERT_TRUE(parsed.ok()) << doc << ": " << parsed.status();
    const std::string once = parsed.value().Dump();
    // Parse(Dump(x)) == x, byte-for-byte on the second Dump.
    EXPECT_EQ(ParseJson(once).value().Dump(), once) << doc;
  }
}

TEST(JsonDump, DoublesStayDoubles) {
  // A double that holds an integral value must not collapse into an int
  // on the wire (the row codec distinguishes them for Value kinds).
  JsonValue v = JsonValue::Double(3.0);
  EXPECT_EQ(v.Dump(), "3.0");
  JsonValue parsed = ParseJson("3.0").value();
  EXPECT_TRUE(parsed.is_double());
}

// --- Event row codec --------------------------------------------------------

TEST(EventRowCodec, RoundTripsAllValueKinds) {
  TypeRegistry registry;
  TypeId t = registry
                 .Register("R", {{"i", ValueType::kInt},
                                 {"d", ValueType::kDouble},
                                 {"s", ValueType::kString},
                                 {"n", ValueType::kNull}})
                 .value();
  EventPtr original = MakeEvent(
      t, 7, {Value(int64_t{42}), Value(2.5), Value("hi"), Value()});
  JsonValue row = EncodeEventRow(*original, registry);
  EXPECT_EQ(row.Dump(), R"(["R",7,[42,2.5,"hi",null]])");

  EventPtr decoded;
  ASSERT_TRUE(DecodeEventRow(row, registry, &decoded).ok());
  EXPECT_EQ(decoded->type_id(), t);
  EXPECT_EQ(decoded->time(), 7);
  ASSERT_EQ(decoded->num_values(), 4);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(decoded->value(i).Equals(original->value(i))) << i;
  }
}

TEST(EventRowCodec, IntervalForm) {
  TypeRegistry registry;
  TypeId t = registry.Register("R", {{"i", ValueType::kInt}}).value();
  EventPtr original = MakeComplexEvent(t, 3, 9, {Value(int64_t{1})});
  JsonValue row = EncodeEventRow(*original, registry);
  EXPECT_EQ(row.Dump(), R"(["R",3,9,[1]])");
  EventPtr decoded;
  ASSERT_TRUE(DecodeEventRow(row, registry, &decoded).ok());
  EXPECT_EQ(decoded->start_time(), 3);
  EXPECT_EQ(decoded->end_time(), 9);
}

TEST(EventRowCodec, UnknownTypeDecodesOutOfRange) {
  TypeRegistry registry;
  registry.Register("R", {}).value();
  EventPtr decoded;
  ASSERT_TRUE(
      DecodeEventRow(ParseJson(R"(["Nope",1,[]])").value(), registry,
                     &decoded)
          .ok());
  // Out of range — the engine's quarantine path classifies it, exactly as
  // for an in-process corrupt type id.
  EXPECT_EQ(decoded->type_id(), registry.num_types());
  // And it re-encodes under the reserved name.
  EXPECT_EQ(EncodeEventRow(*decoded, registry).Dump(),
            R"(["__unknown__",1,[]])");
}

TEST(EventRowCodec, RejectsStructuralBreakage) {
  TypeRegistry registry;
  // One attribute, so the one-value rows below fail on their value kind,
  // not on arity.
  registry.Register("R", {{"i", ValueType::kInt}}).value();
  EventPtr decoded;
  const char* bad[] = {
      R"("not an array")",     R"([])",
      R"(["R"])",              R"([1,2,[]])",
      R"(["R","x",[]])",       R"(["R",1.5,[]])",
      R"(["R",1,2,3,[]])",     R"(["R",1,"nope"])",
      R"(["R",1,[true]])",     R"(["R",1,[[]]])",
  };
  for (const char* doc : bad) {
    EXPECT_FALSE(
        DecodeEventRow(ParseJson(doc).value(), registry, &decoded).ok())
        << doc;
  }
}

TEST(EventRowCodec, RejectsRowsThatDoNotFitTheSchema) {
  TypeRegistry registry;
  registry
      .Register("Temp", {{"sensor", ValueType::kInt},
                         {"celsius", ValueType::kDouble},
                         {"label", ValueType::kString}})
      .value();
  EventPtr decoded;
  const char* bad[] = {
      R"(["Temp",1,[7,20.5]])",            // too few values
      R"(["Temp",1,[7,20.5,"a","b"]])",    // too many values
      R"(["Temp",1,[]])",                  // none at all
      R"(["Temp",1,["seven",20.5,"a"]])",  // string in an int attribute
      R"(["Temp",1,[7,"hot","a"]])",       // string in a double attribute
      R"(["Temp",1,[7,20.5,3]])",          // int in a string attribute
      R"(["Temp",1,[7,20.5,3.5]])",        // double in a string attribute
      R"(["Temp",1,[7.5,20.5,"a"]])",      // fraction in an int attribute
      R"(["Temp",1,[1e300,20.5,"a"]])",    // beyond int64 in an int one
      R"(["Temp",1,3,[7,20.5]])",          // interval form, short row
  };
  for (const char* doc : bad) {
    Status status =
        DecodeEventRow(ParseJson(doc).value(), registry, &decoded);
    EXPECT_FALSE(status.ok()) << doc;
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << doc;
  }

  // Null fits every attribute; an int in a double attribute stays an int
  // (wire and batch runs must stay byte-identical); an integral double in
  // an int attribute decodes to an int, so integer arithmetic can use it.
  ASSERT_TRUE(DecodeEventRow(ParseJson(R"(["Temp",1,[null,null,null]])")
                                 .value(),
                             registry, &decoded)
                  .ok());
  ASSERT_TRUE(
      DecodeEventRow(ParseJson(R"(["Temp",1,[7.0,20,"a"]])").value(),
                     registry, &decoded)
          .ok());
  EXPECT_EQ(decoded->value(0).type(), ValueType::kInt);
  EXPECT_EQ(decoded->value(0).AsInt(), 7);
  EXPECT_EQ(decoded->value(1).type(), ValueType::kInt);
  EXPECT_EQ(EncodeEventRow(*decoded, registry).Dump(),
            R"(["Temp",1,[7,20,"a"]])");
}

// --- Framing over a socketpair ----------------------------------------------

class FramingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds_), 0);
  }
  void TearDown() override {
    if (fds_[0] >= 0) ::close(fds_[0]);
    if (fds_[1] >= 0) ::close(fds_[1]);
  }
  void CloseWriter() {
    ::close(fds_[0]);
    fds_[0] = -1;
  }
  int writer() const { return fds_[0]; }
  int reader_fd() const { return fds_[1]; }

  int fds_[2] = {-1, -1};
};

TEST_F(FramingTest, BinaryAndLineFramesInterleave) {
  ASSERT_TRUE(WriteBinaryFrame(writer(), R"({"a":1})").ok());
  ASSERT_TRUE(WriteJsonLine(writer(), R"({"b":2})").ok());
  ASSERT_TRUE(WriteBinaryFrame(writer(), "[]").ok());
  CloseWriter();

  MessageReader reader(reader_fd());
  std::string payload;
  bool binary = false;
  bool eof = false;
  ASSERT_TRUE(reader.Next(&payload, &binary, &eof).ok());
  EXPECT_TRUE(binary);
  EXPECT_EQ(payload, R"({"a":1})");
  ASSERT_TRUE(reader.Next(&payload, &binary, &eof).ok());
  EXPECT_FALSE(binary);
  EXPECT_EQ(payload, R"({"b":2})");
  ASSERT_TRUE(reader.Next(&payload, &binary, &eof).ok());
  EXPECT_TRUE(binary);
  EXPECT_EQ(payload, "[]");
  ASSERT_TRUE(reader.Next(&payload, &binary, &eof).ok());
  EXPECT_TRUE(eof);
}

TEST_F(FramingTest, CrLfLinesTolerated) {
  const std::string line = "{\"x\":1}\r\n";
  ASSERT_EQ(::send(writer(), line.data(), line.size(), 0),
            static_cast<ssize_t>(line.size()));
  CloseWriter();
  MessageReader reader(reader_fd());
  std::string payload;
  bool binary = true;
  bool eof = false;
  ASSERT_TRUE(reader.Next(&payload, &binary, &eof).ok());
  EXPECT_EQ(payload, "{\"x\":1}");
}

TEST_F(FramingTest, OversizedLengthRejected) {
  // Magic + a length beyond the reader's cap: must fail without
  // allocating the claimed payload.
  unsigned char header[5] = {0xC5, 0xFF, 0xFF, 0xFF, 0x7F};
  ASSERT_EQ(::send(writer(), header, sizeof(header), 0), 5);
  MessageReader reader(reader_fd(), /*max_payload=*/1024);
  std::string payload;
  bool binary = false;
  bool eof = false;
  EXPECT_FALSE(reader.Next(&payload, &binary, &eof).ok());
}

TEST_F(FramingTest, TornFrameIsDataLoss) {
  unsigned char partial[7] = {0xC5, 16, 0, 0, 0, 'a', 'b'};  // promises 16
  ASSERT_EQ(::send(writer(), partial, sizeof(partial), 0), 7);
  CloseWriter();
  MessageReader reader(reader_fd());
  std::string payload;
  bool binary = false;
  bool eof = false;
  Status status = reader.Next(&payload, &binary, &eof);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDataLoss);
}

TEST_F(FramingTest, OversizedLineRejected) {
  std::string long_line(2048, 'x');
  ASSERT_EQ(::send(writer(), long_line.data(), long_line.size(), 0),
            static_cast<ssize_t>(long_line.size()));
  MessageReader reader(reader_fd(), /*max_payload=*/1024);
  std::string payload;
  bool binary = false;
  bool eof = false;
  EXPECT_FALSE(reader.Next(&payload, &binary, &eof).ok());
}

}  // namespace
}  // namespace caesar
