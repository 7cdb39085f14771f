#include "server/protocol.h"

#include <cmath>
#include <utility>
#include <vector>

namespace caesar {
namespace {

// Wire name for events whose type id the registry cannot resolve
// (quarantined garbage re-exported from a derived-event poll).
constexpr const char* kUnknownTypeName = "__unknown__";

}  // namespace

const char* ServerCmdName(ServerCmd cmd) {
  switch (cmd) {
    case ServerCmd::kPing:
      return "ping";
    case ServerCmd::kRegister:
      return "register";
    case ServerCmd::kIngest:
      return "ingest";
    case ServerCmd::kFlush:
      return "flush";
    case ServerCmd::kPoll:
      return "poll";
    case ServerCmd::kStats:
      return "stats";
    case ServerCmd::kTeardown:
      return "teardown";
    case ServerCmd::kList:
      return "list";
    case ServerCmd::kShutdown:
      return "shutdown";
  }
  return "unknown";
}

bool ParseServerCmd(std::string_view name, ServerCmd* out) {
  static constexpr ServerCmd kAll[] = {
      ServerCmd::kPing,  ServerCmd::kRegister, ServerCmd::kIngest,
      ServerCmd::kFlush, ServerCmd::kPoll,     ServerCmd::kStats,
      ServerCmd::kTeardown, ServerCmd::kList,  ServerCmd::kShutdown,
  };
  for (ServerCmd cmd : kAll) {
    if (name == ServerCmdName(cmd)) {
      *out = cmd;
      return true;
    }
  }
  return false;
}

JsonValue EncodeEventRow(const Event& event, const TypeRegistry& registry) {
  JsonValue row = JsonValue::Array();
  const bool known =
      event.type_id() >= 0 && event.type_id() < registry.num_types();
  row.Append(JsonValue::String(known ? registry.type(event.type_id()).name
                                     : kUnknownTypeName));
  row.Append(JsonValue::Int(event.start_time()));
  if (event.end_time() != event.start_time()) {
    row.Append(JsonValue::Int(event.end_time()));
  }
  JsonValue values = JsonValue::Array();
  for (const Value& v : event.values()) {
    switch (v.type()) {
      case ValueType::kNull:
        values.Append(JsonValue::Null());
        break;
      case ValueType::kInt:
        values.Append(JsonValue::Int(v.AsInt()));
        break;
      case ValueType::kDouble:
        values.Append(JsonValue::Double(v.AsDouble()));
        break;
      case ValueType::kString:
        values.Append(JsonValue::String(v.AsString()));
        break;
    }
  }
  row.Append(std::move(values));
  return row;
}

JsonValue EncodeEventBatch(const EventBatch& events,
                           const TypeRegistry& registry) {
  JsonValue rows = JsonValue::Array();
  for (const EventPtr& event : events) {
    rows.Append(EncodeEventRow(*event, registry));
  }
  return rows;
}

namespace {

// An exactly integral double within int64 range (JSON clients often cannot
// emit int64 distinctly). 2^63 is exact as a double; anything at or past it
// would overflow the conversion.
bool ReadIntegralDouble(double d, int64_t* out) {
  constexpr double kLimit = 9223372036854775808.0;  // 2^63
  if (!std::isfinite(d) || d != std::floor(d) || d < -kLimit || d >= kLimit) {
    return false;
  }
  *out = static_cast<int64_t>(d);
  return true;
}

// Strict integral timestamp: ints pass through; doubles only if exactly
// integral.
bool ReadTimestamp(const JsonValue& v, Timestamp* out) {
  if (v.is_int()) {
    *out = v.int_value();
    return true;
  }
  return v.is_double() && ReadIntegralDouble(v.double_value(), out);
}

// Appends wire value `v` decoded for an attribute of type `want` (kNull:
// no schema to check against); false when it does not fit. Null fits every
// attribute and ints fit double ones unconverted; an integral double in an
// int attribute becomes an int, as a timestamp does, so integer arithmetic
// never meets a double.
bool AppendValue(const JsonValue& v, ValueType want,
                 std::vector<Value>* values) {
  switch (v.kind()) {
    case JsonValue::Kind::kNull:
      values->emplace_back();
      return true;
    case JsonValue::Kind::kInt:
      if (want == ValueType::kString) return false;
      values->emplace_back(v.int_value());
      return true;
    case JsonValue::Kind::kDouble: {
      if (want == ValueType::kString) return false;
      int64_t integral = 0;
      if (want != ValueType::kInt) {
        values->emplace_back(v.double_value());
      } else if (ReadIntegralDouble(v.double_value(), &integral)) {
        values->emplace_back(integral);
      } else {
        return false;
      }
      return true;
    }
    case JsonValue::Kind::kString:
      if (want == ValueType::kInt || want == ValueType::kDouble) return false;
      values->emplace_back(v.string_value());
      return true;
    default:
      return false;
  }
}

}  // namespace

Status DecodeEventRow(const JsonValue& row, const TypeRegistry& registry,
                      EventPtr* out) {
  if (!row.is_array() || row.items().size() < 3 || row.items().size() > 4) {
    return Status::InvalidArgument(
        "event row must be [type, time, [values...]] or "
        "[type, start, end, [values...]]");
  }
  const auto& items = row.items();
  if (!items[0].is_string()) {
    return Status::InvalidArgument("event row type name must be a string");
  }
  Timestamp start = 0;
  Timestamp end = 0;
  if (!ReadTimestamp(items[1], &start)) {
    return Status::InvalidArgument("event row time must be an integer");
  }
  const bool interval = items.size() == 4;
  if (interval) {
    if (!ReadTimestamp(items[2], &end)) {
      return Status::InvalidArgument("event row end time must be an integer");
    }
  } else {
    end = start;
  }
  const JsonValue& wire_values = items[interval ? 3 : 2];
  if (!wire_values.is_array()) {
    return Status::InvalidArgument("event row values must be an array");
  }
  const std::vector<JsonValue>& wire_items = wire_values.items();
  // Unknown names map to an out-of-range id on purpose: the engine's own
  // ingest policy then quarantines the event (kUnknownType), identical to
  // a library caller handing in a corrupt type id. A known type's schema
  // is checked here, because operators read values by position and type
  // unchecked.
  const std::string& type_name = items[0].string_value();
  TypeId type_id = registry.Lookup(type_name);
  const Schema* schema = nullptr;
  if (type_id == kInvalidTypeId) {
    type_id = registry.num_types();
  } else {
    schema = &registry.type(type_id).schema;
    if (wire_items.size() != static_cast<size_t>(schema->num_attributes())) {
      return Status::InvalidArgument(
          "event row of type '" + type_name + "' has " +
          std::to_string(wire_items.size()) + " values; its schema has " +
          std::to_string(schema->num_attributes()));
    }
  }
  std::vector<Value> values;
  values.reserve(wire_items.size());
  for (size_t k = 0; k < wire_items.size(); ++k) {
    const ValueType want = schema != nullptr
                               ? schema->attribute(static_cast<int>(k)).type
                               : ValueType::kNull;
    if (AppendValue(wire_items[k], want, &values)) continue;
    if (schema == nullptr) {
      return Status::InvalidArgument(
          "event values must be null, number, or string");
    }
    return Status::InvalidArgument(
        "event row of type '" + type_name + "': value " + std::to_string(k) +
        " does not fit attribute '" +
        schema->attribute(static_cast<int>(k)).name + "' of type " +
        ValueTypeName(want));
  }
  *out = interval
             ? MakeComplexEvent(type_id, start, end, std::move(values))
             : MakeEvent(type_id, start, std::move(values));
  return Status::Ok();
}

JsonValue OkResponse() {
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(true));
  return response;
}

JsonValue ErrorResponse(const char* code, const std::string& message) {
  JsonValue response = JsonValue::Object();
  response.Set("ok", JsonValue::Bool(false));
  response.Set("code", JsonValue::String(code));
  response.Set("error", JsonValue::String(message));
  return response;
}

}  // namespace caesar
