// caesard-mixed: an in-process CaesarServer with default options
// (throughput mode, no pool) on an ephemeral loopback port, driven over
// real TCP by four client connections, one tenant each:
//
//   heavy   the Linear Road text model below over 2 xways x 50 segments
//   light   three activity-model tenants over PAMAP streams (own seeds)
//
// Open loop at kTickRate ticks per second: tick k of every tenant is due
// at start + k / kTickRate. For each tick the tenant's client sends one
// binary-framed ingest with the tick's rows, then a flush; the latency of
// the tick runs from its due time to the flush reply, which carries the
// tick's derived rows. Requests are encoded before the loop starts, so the
// client's encoder stays out of the latency. The whole run, client and
// server threads, stays on one CPU (OneCpu).
//
// Output check: each tenant's rows from the wire must equal a solo
// in-process Engine::Run of its model text over its whole stream.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "query/parser.h"
#include "runtime/engine.h"
#include "server/protocol.h"
#include "server/server.h"
#include "server/wire.h"
#include "workloads.h"
#include "workloads/linear_road.h"
#include "workloads/pamap.h"

namespace perfbench {
namespace {

using caesar::EventBatch;
using caesar::EventPtr;
using caesar::JsonValue;
using caesar::Result;
using caesar::Status;

constexpr double kTickRate = 500.0;  // ticks per second, per tenant
constexpr int kLightTenants = 3;
// Untimed ticks before the first window (1 s): the engines fill their
// windows and contexts, the connections and the caches warm up.
constexpr size_t kWarmupTicks = 500;
// Ticks per measurement window (0.5 s): the end-to-end metrics are medians
// over the windows of the run.
constexpr size_t kWindowTicks = 250;
// Throwaway registrations of the whole tenant set before the open loop,
// and again after it.
constexpr int kSetupReps = 50;

// The Linear Road traffic model in the query language, over the
// generator's 8-attribute PositionReport: congestion AGGREGATE windows,
// toll and zero-toll queries. The StoppedCar/accident queries are left
// out: StoppedCar is a programmatic derivation helper the text form
// cannot declare.
constexpr char kHeavyModel[] = R"(
TYPE PositionReport(vid int, speed int, xway int, lane int, dir int,
                    seg int, pos int, sec int);
TYPE NewTravelingCar(vid int, xway int, dir int, seg int, lane int,
                     pos int, sec int);
TYPE TollNotification(vid int, seg int, sec int, toll int);
TYPE ZeroToll(vid int, seg int, sec int, toll int);

CONTEXTS clear, congestion DEFAULT clear;
PARTITION BY xway, dir, seg;

QUERY detect_congestion
SWITCH CONTEXT congestion
PATTERN AGGREGATE PositionReport p WINDOW 60
        COMPUTE count() AS cnt, avg(speed) AS spd
        HAVING cnt >= 20 AND spd < 40
CONTEXT clear;

QUERY detect_clear
SWITCH CONTEXT clear
PATTERN AGGREGATE PositionReport p WINDOW 60
        COMPUTE count() AS cnt, avg(speed) AS spd
        HAVING spd >= 45
CONTEXT congestion;

QUERY new_traveling_car
DERIVE NewTravelingCar(p2.vid AS vid, p2.xway AS xway, p2.dir AS dir,
                       p2.seg AS seg, p2.lane AS lane, p2.pos AS pos,
                       p2.sec AS sec)
PATTERN SEQ(NOT PositionReport p1, PositionReport p2) WITHIN 60
WHERE p1.sec + 30 = p2.sec AND p1.vid = p2.vid AND p2.lane != 4
CONTEXT congestion;

QUERY toll_notification
DERIVE TollNotification(p.vid AS vid, p.seg AS seg, p.sec AS sec, 5 AS toll)
PATTERN NewTravelingCar p
CONTEXT congestion;

QUERY zero_toll
DERIVE ZeroToll(p2.vid AS vid, p2.seg AS seg, p2.sec AS sec, 0 AS toll)
PATTERN SEQ(NOT PositionReport p1, PositionReport p2) WITHIN 60
WHERE p1.sec + 30 = p2.sec AND p1.vid = p2.vid AND p2.lane != 4
CONTEXT clear;
)";

// The activity model of examples/models/activity.caesar, kept here so the
// workload does not change when the example does.
constexpr char kLightModel[] = R"(
TYPE ActivityReport(subject int, hr int, intensity int, sec int);
TYPE HrEscalation(subject int, from_hr int, to_hr int);

CONTEXTS rest, active DEFAULT rest;
PARTITION BY subject;

QUERY detect_active
INITIATE CONTEXT active
PATTERN ActivityReport r
WHERE r.intensity >= 7
CONTEXT rest;

QUERY detect_rest
TERMINATE CONTEXT active
PATTERN ActivityReport r
WHERE r.intensity <= 3
CONTEXT active;

QUERY hr_escalation
DERIVE HrEscalation(a.subject AS subject, a.hr AS from_hr, b.hr AS to_hr)
PATTERN SEQ(ActivityReport a, ActivityReport b) WITHIN 30
WHERE a.subject = b.subject AND b.hr > a.hr AND b.hr >= 150
CONTEXT active;
)";

// One client connection speaking binary frames.
class Client {
 public:
  static Result<std::unique_ptr<Client>> Connect(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return Status::Internal("socket failed");
    auto client = std::unique_ptr<Client>(new Client(fd));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return Status::Internal("connect to 127.0.0.1 failed");
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return client;
  }

  ~Client() { ::close(fd_); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Sends one request and waits for its reply.
  Status Call(std::string_view payload, std::string* reply) {
    CAESAR_RETURN_IF_ERROR(caesar::WriteBinaryFrame(fd_, payload));
    bool binary = false;
    bool eof = false;
    CAESAR_RETURN_IF_ERROR(reader_.Next(reply, &binary, &eof));
    if (eof) return Status::Internal("server closed the connection");
    return Status::Ok();
  }

 private:
  explicit Client(int fd) : fd_(fd), reader_(fd) {}

  int fd_;
  caesar::MessageReader reader_;
};

bool ReplyOk(const std::string& reply) {
  return reply.rfind("{\"ok\":true", 0) == 0;
}

std::string Request(const char* cmd, const std::string& tenant) {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::String(cmd));
  request.Set("tenant", JsonValue::String(tenant));
  return request.Dump();
}

std::string RegisterRequest(const std::string& tenant,
                            const std::string& model) {
  JsonValue request = JsonValue::Object();
  request.Set("cmd", JsonValue::String("register"));
  request.Set("tenant", JsonValue::String(tenant));
  request.Set("model", JsonValue::String(model));
  JsonValue options = JsonValue::Object();
  options.Set("pattern_engine", JsonValue::String("interpreted"));
  request.Set("options", std::move(options));
  return request.Dump();
}

// One tenant: its inputs, its pre-encoded requests, and what its client
// measured.
struct Tenant {
  std::string name;
  const char* model_text = nullptr;
  bool heavy = false;

  EventBatch stream;  // the ticks below, concatenated
  std::vector<EventBatch> ticks;
  std::vector<std::string> ingests;  // one request per tick
  std::string flush;
  double encode_s = 0.0;
  int64_t request_bytes = 0;

  // Per tick, filled by the tenant's client.
  std::vector<std::string> flush_replies;
  std::vector<double> latency_ms;     // due time to flush reply
  std::vector<double> ingest_rtt_us;  // ingest sent to its reply
  std::vector<double> flush_rtt_us;   // flush sent to its reply
  std::vector<double> lag_ms;         // due time to ingest sent
  std::vector<double> done_at;        // MonoSeconds() of the flush reply
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t rejects = 0;
  std::string error;
};

std::vector<EventBatch> FirstTicks(const EventBatch& stream, size_t count) {
  std::vector<EventBatch> ticks;
  for (const EventPtr& event : stream) {
    if (ticks.empty() || ticks.back().front()->time() != event->time()) {
      if (ticks.size() == count) break;
      ticks.emplace_back();
    }
    ticks.back().push_back(event);
  }
  return ticks;
}

// Builds the tenant's ticks and encodes its requests (EncodeEventRow and
// Dump, timed for server.wire.encode_us_per_event).
Status Prepare(const EventBatch& generated, const caesar::TypeRegistry& types,
               size_t num_ticks, Tracer* tracer, Tenant* tenant) {
  tenant->ticks = FirstTicks(generated, num_ticks);
  if (tenant->ticks.size() < num_ticks) {
    return Status::Internal("stream of " + tenant->name + " is too short");
  }
  tenant->flush = Request("flush", tenant->name);
  SpanScope span(tracer, "server", "EncodeEventRow");
  const double start = MonoSeconds();
  for (const EventBatch& tick : tenant->ticks) {
    JsonValue rows = JsonValue::Array();
    for (const EventPtr& event : tick) {
      rows.Append(caesar::EncodeEventRow(*event, types));
    }
    JsonValue request = JsonValue::Object();
    request.Set("cmd", JsonValue::String("ingest"));
    request.Set("tenant", JsonValue::String(tenant->name));
    request.Set("events", std::move(rows));
    tenant->ingests.push_back(request.Dump());
  }
  tenant->encode_s = MonoSeconds() - start;
  for (const EventBatch& tick : tenant->ticks) {
    tenant->stream.insert(tenant->stream.end(), tick.begin(), tick.end());
  }
  constexpr int64_t kFrameHeader = 5;
  for (const std::string& ingest : tenant->ingests) {
    tenant->request_bytes += static_cast<int64_t>(ingest.size()) +
                             static_cast<int64_t>(tenant->flush.size()) +
                             2 * kFrameHeader;
  }
  tenant->flush_replies.resize(num_ticks);
  tenant->latency_ms.resize(num_ticks);
  tenant->ingest_rtt_us.resize(num_ticks);
  tenant->flush_rtt_us.resize(num_ticks);
  tenant->lag_ms.resize(num_ticks);
  tenant->done_at.resize(num_ticks);
  return Status::Ok();
}

// The solo in-process engine a tenant's wire output must equal.
struct Solo {
  std::unique_ptr<caesar::TypeRegistry> registry;
  std::unique_ptr<caesar::CaesarModel> model;
  std::unique_ptr<caesar::Engine> engine;
  double parse_s = 0.0;
  double create_s = 0.0;
};

Result<Solo> MakeSolo(const Tenant& tenant, Tracer* tracer) {
  Solo solo;
  solo.registry = std::make_unique<caesar::TypeRegistry>();
  const double start = MonoSeconds();
  {
    SpanScope span(tracer, "query", "ParseModel");
    CAESAR_ASSIGN_OR_RETURN(
        caesar::CaesarModel model,
        caesar::ParseModel(tenant.model_text, solo.registry.get()));
    solo.model = std::make_unique<caesar::CaesarModel>(std::move(model));
  }
  const double parsed = MonoSeconds();
  caesar::EngineOptions options;
  options.scheduler = caesar::SchedulerMode::kPinned;
  options.pattern_engine = caesar::PatternEngine::kInterpreted;
  options.analysis = caesar::AnalysisMode::kStrict;
  {
    SpanScope span(tracer, "runtime", "Engine::Create");
    CAESAR_ASSIGN_OR_RETURN(
        solo.engine, caesar::Engine::Create(*solo.model, caesar::PlanOptions(),
                                            std::move(options)));
  }
  solo.parse_s = parsed - start;
  solo.create_s = MonoSeconds() - parsed;
  return solo;
}

// Digest of the solo run's derived rows, rendered as the server renders
// them.
Result<uint64_t> SoloDigest(const Tenant& tenant, Solo* solo,
                            Tracer* tracer, int64_t* rows) {
  EventBatch outputs;
  Result<caesar::RunStats> run = [&] {
    SpanScope span(tracer, "runtime", "Engine::Run");
    return solo->engine->Run(tenant.stream, &outputs);
  }();
  CAESAR_RETURN_IF_ERROR(run.status());
  uint64_t hash = kDigestBasis;
  for (const EventPtr& event : outputs) {
    hash = Digest(hash, caesar::EncodeEventRow(*event, *solo->registry).Dump());
  }
  *rows = static_cast<int64_t>(outputs.size());
  return hash;
}

// Digest of the rows the flush replies carried.
Result<uint64_t> WireDigest(const Tenant& tenant, int64_t* rows) {
  uint64_t hash = kDigestBasis;
  *rows = 0;
  for (const std::string& reply : tenant.flush_replies) {
    CAESAR_ASSIGN_OR_RETURN(JsonValue doc, caesar::ParseJson(reply));
    const JsonValue* derived = doc.Find("derived");
    if (derived == nullptr || !derived->is_array()) {
      return Status::Internal("flush reply without derived rows");
    }
    for (const JsonValue& row : derived->items()) {
      hash = Digest(hash, row.Dump());
      ++*rows;
    }
  }
  return hash;
}

// ParseJson + DecodeEventRow over the tenant's requests, as the server
// does per ingest; returns the seconds spent.
Result<double> TimeDecode(const Tenant& tenant,
                          const caesar::TypeRegistry& registry,
                          Tracer* tracer) {
  SpanScope span(tracer, "server", "DecodeEventRow");
  const double start = MonoSeconds();
  for (const std::string& payload : tenant.ingests) {
    CAESAR_ASSIGN_OR_RETURN(JsonValue doc, caesar::ParseJson(payload));
    const JsonValue* rows = doc.Find("events");
    if (rows == nullptr) return Status::Internal("ingest without events");
    for (const JsonValue& row : rows->items()) {
      EventPtr event;
      CAESAR_RETURN_IF_ERROR(caesar::DecodeEventRow(row, registry, &event));
    }
  }
  return MonoSeconds() - start;
}

void SleepUntil(double mono_seconds) {
  using std::chrono::steady_clock;
  std::this_thread::sleep_until(steady_clock::time_point(
      std::chrono::duration_cast<steady_clock::duration>(
          std::chrono::duration<double>(mono_seconds))));
}

// The open-loop client of one tenant. Ticks from `traced_from` on belong
// to the traced phase.
void Drive(Tenant* tenant, Client* client, int index, int num_tenants,
           double start, size_t traced_from, Tracer* tracer) {
  std::string reply;
  for (size_t k = 0; k < tenant->ingests.size(); ++k) {
    Tracer* active = k >= traced_from ? tracer : nullptr;
    const double due = start + static_cast<double>(k) / kTickRate;
    SleepUntil(due);
    const double sent = MonoSeconds();
    SpanScope tick_span(active, "harness", "tick",
                        static_cast<int64_t>(k) * num_tenants + index);
    Status status;
    {
      SpanScope span(active, "server", "ingest");
      status = client->Call(tenant->ingests[k], &reply);
    }
    const double ingested = MonoSeconds();
    tenant->attempted += 2;
    if (status.ok() && !ReplyOk(reply)) {
      ++tenant->failed;
      if (reply.find("\"code\":\"I420\"") != std::string::npos) {
        ++tenant->rejects;
      }
      if (tenant->error.empty()) tenant->error = reply;
    }
    if (status.ok()) {
      SpanScope span(active, "server", "flush");
      status = client->Call(tenant->flush, &tenant->flush_replies[k]);
    }
    const double done = MonoSeconds();
    if (!status.ok()) {
      // The connection is unusable: count the tick and every later one.
      tenant->attempted += 2 * static_cast<int64_t>(tenant->ingests.size() -
                                                    k - 1);
      tenant->failed += 2 * static_cast<int64_t>(tenant->ingests.size() - k);
      tenant->error = status.ToString();
      return;
    }
    if (!ReplyOk(tenant->flush_replies[k])) {
      ++tenant->failed;
      if (tenant->error.empty()) tenant->error = tenant->flush_replies[k];
    }
    tenant->latency_ms[k] = (done - due) * 1e3;
    tenant->ingest_rtt_us[k] = (ingested - sent) * 1e6;
    tenant->flush_rtt_us[k] = (done - ingested) * 1e6;
    tenant->lag_ms[k] = (sent - due) * 1e3;
    tenant->done_at[k] = done;
  }
}

class DaemonRun {
 public:
  explicit DaemonRun(const RunConfig& config) : config_(config) {}

  WorkloadResult Run(Tracer* tracer);

 private:
  Status Generate(Tracer* tracer);
  // Registers the whole tenant set under the tenants' names plus
  // `suffix` (one setup_s sample), and tears it down again unless `keep`.
  Status RegisterSet(const std::string& suffix, bool keep, Tracer* tracer);
  // kSetupReps throwaway sets; done before and after the open loop, so
  // the set-up median spans the run.
  Status RegisterThrowaways(const char* tag, Tracer* tracer);
  Status Check(Tracer* tracer);

  const RunConfig& config_;
  std::vector<Tenant> tenants_;
  std::vector<Solo> solos_;
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<double> setup_s_;
  std::vector<double> register_ms_;
};

Status DaemonRun::Generate(Tracer* tracer) {
  const size_t num_ticks =
      config_.tiny ? 200
                   : kWarmupTicks +
                         static_cast<size_t>(config_.seconds * kTickRate);
  tenants_.resize(1 + kLightTenants);
  {
    Tenant& heavy = tenants_[0];
    heavy.name = "heavy";
    heavy.model_text = kHeavyModel;
    heavy.heavy = true;
    caesar::LinearRoadConfig lr;
    lr.num_xways = config_.tiny ? 1 : 2;
    lr.num_segments = config_.tiny ? 10 : 50;
    lr.duration =
        static_cast<caesar::Timestamp>(num_ticks) * (config_.tiny ? 2 : 1) +
        100;
    // Every car is on the road from the first tick: no input ramp, so the
    // load per tick, and with it the cost per event, is the same in every
    // window.
    lr.ramp_start_fraction = 1.0;
    lr.seed = config_.seed;
    caesar::TypeRegistry types;
    EventBatch stream = caesar::GenerateLinearRoadStream(lr, &types);
    CAESAR_RETURN_IF_ERROR(
        Prepare(stream, types, num_ticks, tracer, &heavy));
  }
  for (int i = 1; i <= kLightTenants; ++i) {
    Tenant& light = tenants_[i];
    light.name = "light" + std::to_string(i);
    light.model_text = kLightModel;
    caesar::PamapConfig pamap;
    pamap.duration = static_cast<caesar::Timestamp>(num_ticks) * 2 + 100;
    pamap.seed = config_.seed * 1000 + static_cast<uint64_t>(i);
    caesar::TypeRegistry types;
    EventBatch stream = caesar::GeneratePamapStream(pamap, &types);
    CAESAR_RETURN_IF_ERROR(
        Prepare(stream, types, num_ticks, tracer, &light));
  }
  return Status::Ok();
}

Status DaemonRun::RegisterSet(const std::string& suffix, bool keep,
                               Tracer* tracer) {
  std::string reply;
  SpanScope setup_span(tracer, "harness", "setup");
  const double start = MonoSeconds();
  for (size_t i = 0; i < tenants_.size(); ++i) {
    const double sent = MonoSeconds();
    Status status;
    {
      SpanScope span(tracer, "server", "register");
      status = clients_[i]->Call(
          RegisterRequest(tenants_[i].name + suffix, tenants_[i].model_text),
          &reply);
    }
    register_ms_.push_back((MonoSeconds() - sent) * 1e3);
    CAESAR_RETURN_IF_ERROR(status);
    if (!ReplyOk(reply)) return Status::Internal("register: " + reply);
  }
  setup_s_.push_back(MonoSeconds() - start);
  if (keep) return Status::Ok();
  for (size_t i = 0; i < tenants_.size(); ++i) {
    CAESAR_RETURN_IF_ERROR(clients_[i]->Call(
        Request("teardown", tenants_[i].name + suffix), &reply));
    if (!ReplyOk(reply)) return Status::Internal("teardown: " + reply);
  }
  return Status::Ok();
}

Status DaemonRun::RegisterThrowaways(const char* tag, Tracer* tracer) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    CAESAR_RETURN_IF_ERROR(RegisterSet(
        std::string("-") + tag + std::to_string(rep), false, tracer));
  }
  return Status::Ok();
}

Status DaemonRun::Check(Tracer* tracer) {
  for (size_t i = 0; i < tenants_.size(); ++i) {
    int64_t solo_rows = 0;
    int64_t wire_rows = 0;
    CAESAR_ASSIGN_OR_RETURN(uint64_t expected,
                            SoloDigest(tenants_[i], &solos_[i], tracer,
                                       &solo_rows));
    if (config_.corrupt_reference) expected ^= 1;
    CAESAR_ASSIGN_OR_RETURN(uint64_t actual,
                            WireDigest(tenants_[i], &wire_rows));
    if (actual != expected) {
      return Status::Internal(
          "tenant " + tenants_[i].name + ": " + std::to_string(wire_rows) +
          " rows from the wire differ from the solo run's " +
          std::to_string(solo_rows));
    }
  }
  return Status::Ok();
}

WorkloadResult DaemonRun::Run(Tracer* tracer) {
  // Client and server threads share one CPU; see OneCpu.
  OneCpu one_cpu;
  WorkloadResult result;
  auto fail = [&](const std::string& why) {
    result.correct = false;
    result.failure = why;
    return result;
  };
  Status status = Generate(tracer);
  for (size_t i = 0; status.ok() && i < tenants_.size(); ++i) {
    Result<Solo> solo = MakeSolo(tenants_[i], tracer);
    status = solo.status();
    if (status.ok()) solos_.push_back(std::move(solo).value());
  }
  if (!status.ok()) return fail(status.ToString());

  caesar::ServerOptions options;  // defaults: throughput mode, no pool
  options.scheduler = caesar::SchedulerMode::kPinned;
  caesar::CaesarServer server(options);
  {
    SpanScope span(tracer, "server", "CaesarServer::Start");
    status = server.Start();
  }
  for (size_t i = 0; status.ok() && i < tenants_.size(); ++i) {
    Result<std::unique_ptr<Client>> client = Client::Connect(server.port());
    status = client.status();
    if (status.ok()) clients_.push_back(std::move(client).value());
  }
  if (status.ok()) status = RegisterThrowaways("pre", tracer);
  if (status.ok()) status = RegisterSet("", /*keep=*/true, tracer);
  if (!status.ok()) return fail(status.ToString());

  // The ticks after the warm-up are cut into windows of kWindowTicks; the
  // untraced phase is the first half of the windows when tracing, else all
  // of them.
  const size_t num_ticks = tenants_[0].ingests.size();
  const size_t warmup = std::min(kWarmupTicks, num_ticks / 4);
  const size_t window = std::min(kWindowTicks, (num_ticks - warmup) / 4);
  const size_t num_windows = (num_ticks - warmup) / window;
  const size_t untraced_windows =
      config_.trace ? std::max<size_t>(1, num_windows / 2) : num_windows;
  const size_t traced_from = warmup + untraced_windows * window;
  const double start = MonoSeconds() + 0.05;
  std::vector<std::thread> threads;
  for (size_t i = 0; i < tenants_.size(); ++i) {
    threads.emplace_back(Drive, &tenants_[i], clients_[i].get(),
                         static_cast<int>(i),
                         static_cast<int>(tenants_.size()), start,
                         traced_from, tracer);
  }
  // CPU time at every window boundary; the last entry is taken after the
  // clients are done.
  std::vector<double> cpu_at;
  for (size_t w = 0; w < num_windows; ++w) {
    SleepUntil(start + static_cast<double>(warmup + w * window) / kTickRate);
    cpu_at.push_back(ProcessCpuSeconds());
  }
  for (std::thread& thread : threads) thread.join();
  cpu_at.push_back(ProcessCpuSeconds());
  status = RegisterThrowaways("post", tracer);
  clients_.clear();
  server.Stop();
  if (!status.ok()) return fail(status.ToString());

  std::string first_error;
  for (const Tenant& tenant : tenants_) {
    result.attempted += tenant.attempted;
    result.failed += tenant.failed;
    if (first_error.empty()) first_error = tenant.error;
  }
  if (result.failed > 0) return fail("request failed: " + first_error);
  status = Check(tracer);
  if (!status.ok()) return fail(status.ToString());

  // Ticks [begin, end) of every tenant: events, and the samples of `field`
  // pooled over the heavy tenant or the light ones.
  auto events_in = [&](size_t begin, size_t end) {
    int64_t events = 0;
    for (const Tenant& tenant : tenants_) {
      for (size_t k = begin; k < end; ++k) {
        events += static_cast<int64_t>(tenant.ticks[k].size());
      }
    }
    return static_cast<double>(events);
  };
  auto samples = [&](std::vector<double> Tenant::*field, bool heavy,
                     size_t begin, size_t end) {
    std::vector<double> out;
    for (const Tenant& tenant : tenants_) {
      if (tenant.heavy != heavy) continue;
      const std::vector<double>& values = tenant.*field;
      out.insert(out.end(), values.begin() + static_cast<ptrdiff_t>(begin),
                 values.begin() + static_cast<ptrdiff_t>(end));
    }
    return out;
  };
  auto all_samples = [&](std::vector<double> Tenant::*field, size_t begin,
                         size_t end) {
    std::vector<double> out = samples(field, true, begin, end);
    std::vector<double> light = samples(field, false, begin, end);
    out.insert(out.end(), light.begin(), light.end());
    return out;
  };

  // Per window, then the median over the windows of a phase.
  std::vector<double> events_per_s, cpu_us_per_event, tick_p50, light_p50;
  for (size_t w = 0; w < num_windows; ++w) {
    const size_t begin = warmup + w * window;
    const size_t end = begin + window;
    const double events = events_in(begin, end);
    const double window_start = start + static_cast<double>(begin) / kTickRate;
    double last_reply = 0.0;
    for (const Tenant& tenant : tenants_) {
      last_reply = std::max(last_reply, tenant.done_at[end - 1]);
    }
    events_per_s.push_back(events / (last_reply - window_start));
    cpu_us_per_event.push_back((cpu_at[w + 1] - cpu_at[w]) / events * 1e6);
    const std::vector<double> heavy =
        samples(&Tenant::latency_ms, true, begin, end);
    const std::vector<double> light =
        samples(&Tenant::latency_ms, false, begin, end);
    tick_p50.push_back(Quantile(heavy, 0.5));
    light_p50.push_back(Quantile(light, 0.5));
  }
  auto untraced = [&](const std::vector<double>& per_window) {
    return Median(std::vector<double>(
        per_window.begin(),
        per_window.begin() + static_cast<ptrdiff_t>(untraced_windows)));
  };
  std::map<std::string, double>& e2e = result.end_to_end;
  e2e["events_per_s"] = untraced(events_per_s);
  e2e["cpu_us_per_event"] = untraced(cpu_us_per_event);
  e2e["tick_p50_ms"] = untraced(tick_p50);
  e2e["setup_s"] = Median(setup_s_);
  e2e["peak_rss_mb"] = PeakRssMb();
  std::map<std::string, double>& layer = result.per_layer;
  // A window holds too few samples for a p99: the tails pool the
  // untraced phase.
  layer["tick_p99_ms"] = Quantile(
      samples(&Tenant::latency_ms, true, warmup, traced_from), 0.99);
  layer["light_tick_p50_ms"] = untraced(light_p50);
  layer["light_tick_p99_ms"] = Quantile(
      samples(&Tenant::latency_ms, false, warmup, traced_from), 0.99);
  if (!config_.trace) return result;

  const double all_events = events_in(0, num_ticks);
  const double traced_events = events_in(traced_from, num_ticks);
  std::vector<double> parse_ms;
  std::vector<double> create_ms;
  double encode_s = 0.0;
  double decode_s = 0.0;
  int64_t request_bytes = 0;
  int64_t rejects = 0;
  for (size_t i = 0; i < tenants_.size(); ++i) {
    parse_ms.push_back(solos_[i].parse_s * 1e3);
    create_ms.push_back(solos_[i].create_s * 1e3);
    Result<double> decode =
        TimeDecode(tenants_[i], *solos_[i].registry, tracer);
    if (!decode.ok()) return fail(decode.status().ToString());
    decode_s += decode.value();
    encode_s += tenants_[i].encode_s;
    request_bytes += tenants_[i].request_bytes;
    rejects += tenants_[i].rejects;
  }
  layer["query.model_ms"] = Median(parse_ms);
  layer["runtime.create_ms"] = Median(create_ms);
  layer["server.register_ms"] = Median(register_ms_);
  layer["server.wire.encode_us_per_event"] = encode_s / all_events * 1e6;
  layer["server.wire.decode_us_per_event"] = decode_s / all_events * 1e6;
  layer["server.wire.request_bytes_per_event"] =
      static_cast<double>(request_bytes) / all_events;
  layer["server.heavy_flush_rtt_us_p50"] = Quantile(
      samples(&Tenant::flush_rtt_us, true, traced_from, num_ticks), 0.5);
  layer["server.ingest_rtt_us_p50"] = Quantile(
      all_samples(&Tenant::ingest_rtt_us, traced_from, num_ticks), 0.5);
  layer["server.gen_lag_ms_p99"] =
      Quantile(all_samples(&Tenant::lag_ms, traced_from, num_ticks), 0.99);
  layer["server.rejects"] = static_cast<double>(rejects);
  layer["harness.self_us_per_event"] =
      tracer->TickSelfMicros("harness") / traced_events;
  layer["server.self_us_per_event"] =
      tracer->TickSelfMicros("server") / traced_events;
  const double untraced_cpu_us = e2e["cpu_us_per_event"];
  const double traced_cpu_us = Median(std::vector<double>(
      cpu_us_per_event.begin() + static_cast<ptrdiff_t>(untraced_windows),
      cpu_us_per_event.end()));
  layer["tracing.overhead_pct"] =
      (traced_cpu_us - untraced_cpu_us) / untraced_cpu_us * 100.0;
  return result;
}

}  // namespace

WorkloadResult RunDaemonWorkload(const RunConfig& config, Tracer* tracer) {
  DaemonRun run(config);
  return run.Run(tracer);
}

}  // namespace perfbench
