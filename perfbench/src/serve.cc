// serve_mixed: one streamed-CC tenant (ServingCc) on a 2-worker ServiceHost
// behind the TCP RpcGateway, driven by an open loop of point reads and
// single-edge inserts.
//
// Set-up preloads 90% of a seeded R-MAT edge set; the open loop then sends
// at a fixed rate over two connections (one sender thread, one receiver
// thread per connection), 20% inserts drawn from the remaining edges and
// 80% QueryKey reads. Each request's latency runs from the time it was due,
// so a stall also charges the requests queued behind it. max_linger is 0,
// so a write's ack measures round cost rather than a batching timer; reads
// share the tenant's state lock with the rounds, so a change that trades
// one side for the other shows on this workload.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <numeric>
#include <random>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "graph/generators.h"
#include "net/client.h"
#include "service/gateway.h"
#include "service/serving_cc.h"

namespace perfbench {
namespace {

using namespace sfdf;

constexpr int64_t kVertices = 65536;
constexpr int64_t kGeneratedEdges = 1 << 19;
constexpr double kPreloadShare = 0.9;
constexpr double kRequestsPerSecond = 10000;
constexpr double kWriteShare = 0.2;
constexpr int kConnections = 2;
constexpr int kSetupRepeats = 3;
constexpr int kPings = 200;
// Short enough that every thread's 8,192-event trace ring holds the window.
constexpr double kTracedWindowS = 0.2;
// A request sent later than this after its due time counts as late. A run
// with more than kMaxLateFrac late requests is invalid: its generator fell
// behind (on a shared host, usually because the vCPUs were stolen), so its
// latencies describe the host, not the server.
constexpr double kLateMs = 1.0;
constexpr double kMaxLateFrac = 0.05;
// How long the receivers may take to collect the last replies.
constexpr double kDrainTimeoutS = 30;
const char* const kTenant = "cc";

using Edge = std::pair<int64_t, int64_t>;

/// Distinct undirected R-MAT edges in a seeded random order.
std::vector<Edge> MakeEdges(uint64_t seed) {
  RmatOptions options;
  options.num_vertices = kVertices;
  options.num_edges = kGeneratedEdges;
  options.seed = seed;
  std::vector<Edge> edges;
  edges.reserve(kGeneratedEdges);
  GenerateRmatEdges(options, [&](VertexId u, VertexId v) {
    if (u != v) edges.emplace_back(std::min(u, v), std::max(u, v));
  });
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::mt19937_64 rng(seed);
  std::shuffle(edges.begin(), edges.end(), rng);
  return edges;
}

/// Host, tenant and gateway. The host stops before the tenant it serves is
/// destroyed, and the gateway before the host.
struct Server {
  std::unique_ptr<ServiceHost> host;
  std::unique_ptr<ServingCc> tenant;
  std::unique_ptr<RpcGateway> gateway;

  Server() = default;
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;
  ~Server() { Stop(); }

  Status Stop() {
    Status status;
    if (gateway) status = gateway->Stop();
    if (host) {
      Status stopped = host->StopAll();
      if (status.ok()) status = stopped;
    }
    return status;
  }
};

Status StartServer(const Config& config, const std::vector<Edge>& preload,
                   Server* server) {
  server->host = std::make_unique<ServiceHost>(
      ServiceHost::Options{.workers = config.workers});
  ServingCc::Options options;
  options.num_vertices = kVertices;
  options.service.max_batch = 256;
  options.service.max_linger = std::chrono::milliseconds(0);
  options.service.max_pending_mutations = 1 << 24;
  options.service.exec.parallelism = config.parallelism;
  auto tenant = ServingCc::StartOn(server->host.get(), kTenant, options);
  if (!tenant.ok()) return tenant.status();
  server->tenant = std::move(tenant).value();
  std::vector<GraphMutation> mutations;
  mutations.reserve(preload.size());
  for (const Edge& e : preload) {
    mutations.push_back(GraphMutation::EdgeInsert(e.first, e.second));
  }
  SFDF_RETURN_NOT_OK(server->tenant->service().Apply(std::move(mutations)));
  auto gateway = RpcGateway::Start(server->host.get(), GatewayOptions{});
  if (!gateway.ok()) return gateway.status();
  server->gateway = std::move(gateway).value();
  return Status::OK();
}

/// One client connection and the number of requests sent on it so far
/// (RpcClient numbers its requests 1, 2, ... per connection).
struct Connection {
  std::unique_ptr<net::RpcClient> client;
  uint64_t sent = 0;
};

/// One open-loop window's schedule and outcome. Request i is due at
/// start_ns + i / rate and goes out as the (i / kConnections)-th request of
/// the window on connection i % kConnections.
struct Window {
  int64_t start_ns = 0;
  int64_t period_ns = 0;
  std::vector<char> is_write;
  std::vector<int64_t> key;   ///< read key, or index into the edge stream
  std::vector<int64_t> late_ns;
  std::vector<char> ok;       ///< reply arrived, OK, and (reads) found
  std::vector<double> latency_ms;
  int64_t last_reply_ns = 0;

  int64_t due(size_t i) const {
    return start_ns + static_cast<int64_t>(i) * period_ns;
  }
};

/// Builds the window's request mix; inserts consume `stream` from
/// `*next_edge` on, wrapping around if it runs out (a repeated insert is a
/// valid no-op).
Window PlanWindow(double seconds, std::mt19937_64* rng,
                  const std::vector<Edge>& stream, size_t* next_edge) {
  Window w;
  const size_t n = static_cast<size_t>(seconds * kRequestsPerSecond);
  w.period_ns = static_cast<int64_t>(1e9 / kRequestsPerSecond);
  w.is_write.resize(n);
  w.key.resize(n);
  std::uniform_real_distribution<double> coin(0, 1);
  std::uniform_int_distribution<int64_t> vertex(0, kVertices - 1);
  for (size_t i = 0; i < n; ++i) {
    w.is_write[i] = coin(*rng) < kWriteShare;
    if (w.is_write[i]) {
      w.key[i] = static_cast<int64_t>(*next_edge % stream.size());
      ++*next_edge;
    } else {
      w.key[i] = vertex(*rng);
    }
  }
  w.late_ns.assign(n, 0);
  w.ok.assign(n, 0);
  w.latency_ms.assign(n, -1);
  return w;
}

/// Runs the window against `server`. Returns false if the receivers had to
/// be cut off (the gateway is then stopped).
bool DriveWindow(Server* server, std::vector<Connection>& connections,
                 const std::vector<Edge>& stream, Window* w) {
  static const uint16_t kRequest = trace::RegisterName("bench.request");
  const size_t n = w->is_write.size();
  std::atomic<int> receivers_done{0};
  w->start_ns = trace::NowNs() + 2'000'000;  // 2 ms to start the threads
  std::vector<std::thread> receivers;
  std::vector<int64_t> last_reply(kConnections, 0);
  for (int c = 0; c < kConnections; ++c) {
    receivers.emplace_back([&, c] {
      Connection& conn = connections[c];
      const size_t expected = n / kConnections + (static_cast<size_t>(c) <
                                                  n % kConnections);
      for (size_t k = 0; k < expected; ++k) {
        auto reply = conn.client->ReceiveReply();
        if (!reply.ok()) break;
        const int64_t now = trace::NowNs();
        if (reply->request_id <= conn.sent) break;
        const size_t i =
            (reply->request_id - 1 - conn.sent) * kConnections + c;
        if (i >= n) break;
        bool ok = reply->status == net::WireCode::kOk &&
                  reply->opcode == (w->is_write[i] ? net::Opcode::kMutateBatch
                                                   : net::Opcode::kQuery);
        if (ok && !w->is_write[i]) {
          net::PayloadReader reader(reply->payload);
          reader.U64();  // epoch
          ok = reader.U8() == 1 && reader.ok();
        }
        w->ok[i] = ok;
        w->latency_ms[i] = static_cast<double>(now - w->due(i)) / 1e6;
        last_reply[c] = now;
        trace::EmitSpan(kRequest, w->due(i), w->is_write[i]);
      }
      receivers_done.fetch_add(1);
    });
  }
  std::thread sender([&] {
    for (size_t i = 0; i < n; ++i) {
      const int64_t due = w->due(i);
      const int64_t wait = due - trace::NowNs();
      if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
      w->late_ns[i] = std::max<int64_t>(0, trace::NowNs() - due);
      net::RpcClient& client = *connections[i % kConnections].client;
      if (w->is_write[i]) {
        const Edge& e = stream[w->key[i]];
        if (!client.SendMutate(kTenant, {GraphMutation::EdgeInsert(e.first,
                                                                   e.second)})
                 .ok()) {
          return;
        }
      } else if (!client.SendQueryKey(kTenant, w->key[i]).ok()) {
        return;
      }
    }
  });
  sender.join();
  const double deadline = NowSeconds() + kDrainTimeoutS;
  while (receivers_done.load() < kConnections && NowSeconds() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const bool drained = receivers_done.load() == kConnections;
  if (!drained) {
    // Closing the connections unblocks the receivers.
    (void)server->gateway->Stop();
  }
  for (auto& thread : receivers) thread.join();
  for (int c = 0; c < kConnections; ++c) {
    connections[c].sent += n / kConnections + (static_cast<size_t>(c) <
                                               n % kConnections);
  }
  w->last_reply_ns = *std::max_element(last_reply.begin(), last_reply.end());
  return drained;
}

/// Minimum vertex id per component over `edges`, for vertices [0, n).
std::vector<int64_t> ReferenceLabels(int64_t n,
                                     const std::vector<const Edge*>& edges) {
  std::vector<int64_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int64_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const Edge* e : edges) {
    const int64_t a = find(e->first);
    const int64_t b = find(e->second);
    if (a < b) parent[b] = a;
    if (b < a) parent[a] = b;
  }
  std::vector<int64_t> labels(n);
  for (int64_t v = 0; v < n; ++v) labels[v] = find(v);
  return labels;
}

}  // namespace

void RunServeMixed(const Config& config, Report* report) {
  // Set-up: edge generation, host + tenant start, preload, gateway start.
  std::vector<Edge> edges;
  Server server;
  std::vector<double> setup_s, generate_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    Status stopped = server.Stop();
    if (!stopped.ok()) report->Invalidate("stop: " + stopped.ToString());
    server.gateway.reset();
    server.tenant.reset();
    server.host.reset();
    const double start = NowSeconds();
    edges = MakeEdges(config.seed);
    generate_s.push_back(NowSeconds() - start);
    const size_t preload = static_cast<size_t>(
        kPreloadShare * static_cast<double>(edges.size()));
    Status status = StartServer(
        config, std::vector<Edge>(edges.begin(), edges.begin() + preload),
        &server);
    if (!status.ok()) {
      report->Invalidate("set-up: " + status.ToString());
      report->Attempt(false);
      return;
    }
    setup_s.push_back(NowSeconds() - start);
  }
  const size_t preload_count =
      static_cast<size_t>(kPreloadShare * static_cast<double>(edges.size()));
  const std::vector<Edge> stream(edges.begin() + preload_count, edges.end());
  std::fprintf(stderr, "edges: %zu distinct, %zu preloaded, %zu streamable\n",
               edges.size(), preload_count, stream.size());
  IterationService& service = server.tenant->service();
  const uint16_t port = server.gateway->port();

  // Idle round-trip floor of the protocol.
  std::vector<double> ping_us;
  {
    auto client = net::RpcClient::Connect("127.0.0.1", port);
    for (int i = 0; client.ok() && i < kPings; ++i) {
      const int64_t start = trace::NowNs();
      if (!(*client)->Ping().ok()) break;
      ping_us.push_back(static_cast<double>(trace::NowNs() - start) / 1e3);
    }
  }
  std::vector<Connection> connections(kConnections);
  for (Connection& conn : connections) {
    auto client = net::RpcClient::Connect("127.0.0.1", port);
    if (!client.ok()) {
      report->Invalidate("connect: " + client.status().ToString());
      report->Attempt(false);
      return;
    }
    conn.client = std::move(client).value();
  }

  std::mt19937_64 rng(config.seed ^ 0x5eed);
  size_t next_edge = 0;
  std::vector<const Edge*> acked;
  for (size_t i = 0; i < preload_count; ++i) acked.push_back(&edges[i]);
  auto settle = [&](const Window& w) {
    for (size_t i = 0; i < w.is_write.size(); ++i) {
      report->Attempt(w.ok[i]);
      if (w.ok[i] && w.is_write[i]) acked.push_back(&stream[w.key[i]]);
    }
  };

  // Timed window, untraced.
  const ServiceStats before = service.stats();
  const RpcGateway::Counters gw_before = server.gateway->counters();
  Window timed = PlanWindow(config.trace ? config.seconds / 2 : config.seconds,
                            &rng, stream, &next_edge);
  bool drained = DriveWindow(&server, connections, stream, &timed);
  const ServiceStats after = service.stats();
  const RpcGateway::Counters gw_after = server.gateway->counters();
  settle(timed);

  // Traced window (per-layer runs): short, so no trace ring laps.
  Window traced;
  std::map<std::string, SpanAggregate> spans;
  int64_t spans_lost = 0;
  if (config.trace && drained) {
    const ServiceStats t_before = service.stats();
    const RpcGateway::Counters t_gw_before = server.gateway->counters();
    traced = PlanWindow(kTracedWindowS, &rng, stream, &next_edge);
    // Safe: tracing is off and the previous window drained, so no thread
    // is writing to a ring while the counts are cleared.
    trace::ResetForTesting();
    trace::SetEnabled(true);
    drained = DriveWindow(&server, connections, stream, &traced);
    trace::SetEnabled(false);
    const ServiceStats t_after = service.stats();
    const RpcGateway::Counters t_gw_after = server.gateway->counters();
    settle(traced);
    spans = AggregateSpans(trace::Snapshot());
    PrintSpanTable(spans);
    auto count = [&](const char* name) {
      auto it = spans.find(name);
      return it == spans.end() ? int64_t{0} : it->second.count;
    };
    int64_t completed = 0;
    for (char ok : traced.ok) completed += ok;
    spans_lost =
        std::abs(count("bench.request") - completed) +
        std::abs(count("gateway.request") -
                 static_cast<int64_t>(t_gw_after.frames_received -
                                      t_gw_before.frames_received)) +
        std::abs(count("engine.task") -
                 (t_after.engine_tasks - t_before.engine_tasks)) +
        std::abs(count("service.round") -
                 static_cast<int64_t>(t_after.rounds - t_before.rounds));
  }
  if (!drained) report->Invalidate("replies missing after the drain timeout");

  // Oracle: the served labels equal union-find over the preload plus every
  // acknowledged insert.
  {
    const std::vector<int64_t> expected = ReferenceLabels(kVertices, acked);
    const IterationService::SnapshotResult snapshot = service.Snapshot();
    bool ok = static_cast<int64_t>(snapshot.records.size()) == kVertices;
    std::vector<char> seen(kVertices, 0);
    for (const Record& rec : snapshot.records) {
      const int64_t v = rec.GetInt(0);
      if (v < 0 || v >= kVertices || seen[v] ||
          rec.GetInt(1) != expected[v]) {
        ok = false;
        break;
      }
      seen[v] = 1;
    }
    if (!ok) std::fprintf(stderr, "perfbench: snapshot labels mismatch\n");
    report->Attempt(ok);
  }
  Status stopped = server.Stop();
  if (!stopped.ok()) report->Invalidate("stop: " + stopped.ToString());

  // End-to-end figures from the untraced window.
  std::vector<double> write_ms, read_ms, all_ms;
  int64_t late = 0, late_max_ns = 0;
  for (size_t i = 0; i < timed.is_write.size(); ++i) {
    if (timed.late_ns[i] > static_cast<int64_t>(kLateMs * 1e6)) ++late;
    late_max_ns = std::max(late_max_ns, timed.late_ns[i]);
    if (!timed.ok[i]) continue;
    (timed.is_write[i] ? write_ms : read_ms).push_back(timed.latency_ms[i]);
    all_ms.push_back(timed.latency_ms[i]);
  }
  const double late_frac =
      timed.is_write.empty()
          ? 0
          : static_cast<double>(late) / static_cast<double>(timed.is_write.size());
  if (late_frac > kMaxLateFrac) {
    report->Invalidate("the open-loop generator fell behind its schedule");
  }
  const double span_s =
      static_cast<double>(timed.last_reply_ns - timed.start_ns) / 1e9;
  report->Set("setup_s", Median(setup_s));
  report->Set("update_p50_ms", Median(write_ms));
  report->Set("read_p50_ms", Median(read_ms));
  report->Set("update_p99_ms", Quantile(write_ms, 0.99));
  report->Set("read_p99_ms", Quantile(read_ms, 0.99));
  report->Set("achieved_rps",
              span_s > 0 ? static_cast<double>(all_ms.size()) / span_s : 0);
  report->Set("gen.late_max_ms", static_cast<double>(late_max_ns) / 1e6);
  report->Set("gen.late_frac", late_frac);
  report->Set("graph.generate_s", Median(generate_s));

  const double rounds = static_cast<double>(after.rounds - before.rounds);
  const double applied =
      static_cast<double>(after.mutations_applied - before.mutations_applied);
  const double tasks =
      static_cast<double>(after.engine_tasks - before.engine_tasks);
  const double wait_ms =
      after.engine_queue_wait_total_ms - before.engine_queue_wait_total_ms;
  report->Set("executor.supersteps",
              static_cast<double>(after.total_supersteps -
                                  before.total_supersteps));
  report->Set("engine.tasks", tasks);
  report->Set("engine.queue_wait_ms", wait_ms);
  report->Set("engine.queue_wait_per_task_us",
              tasks > 0 ? wait_ms * 1e3 / tasks : 0);
  report->Set("service.rounds", rounds);
  report->Set("service.avg_batch", rounds > 0 ? applied / rounds : 0);
  report->Set("service.rejected",
              static_cast<double>(after.mutations_rejected -
                                  before.mutations_rejected));
  report->Set("net.ping_rtt_p50_us", Median(ping_us));
  report->Set("gateway.frames_in",
              static_cast<double>(gw_after.frames_received -
                                  gw_before.frames_received));
  report->Set("gateway.reads_paused",
              static_cast<double>(gw_after.reads_paused - gw_before.reads_paused));

  // Traced-window figures.
  auto span = [&](const char* name) {
    auto it = spans.find(name);
    return it == spans.end() ? SpanAggregate() : it->second;
  };
  const double traced_wall_ms =
      traced.is_write.empty()
          ? 0
          : static_cast<double>(traced.last_reply_ns - traced.start_ns) / 1e6;
  report->Set("superstep.decide_ms", span("superstep.decide").total_ms);
  report->Set("engine.busy_ms", span("engine.task").total_ms);
  report->Set("engine.utilization",
              traced_wall_ms > 0 ? span("engine.task").total_ms /
                                       (config.workers * traced_wall_ms)
                                 : 0);
  report->Set("service.round_p50_ms",
              Median(span("service.round").durations_ms));
  report->Set("gateway.request_ms",
              Median(span("gateway.request").durations_ms));
  std::vector<double> traced_ms;
  for (size_t i = 0; i < traced.is_write.size(); ++i) {
    if (traced.ok[i]) traced_ms.push_back(traced.latency_ms[i]);
  }
  report->Set("obs.trace_overhead_frac",
              traced_ms.empty() || all_ms.empty()
                  ? 0
                  : Median(traced_ms) / Median(all_ms) - 1);
  report->Set("obs.spans_lost", static_cast<double>(spans_lost));

  // Layers this workload does not expose through the serving API.
  for (const char* name :
       {"dataflow.plan_build_ms", "optimizer.optimize_ms", "executor.run_ms",
        "executor.superstep0_ms", "executor.superstep_p50_ms",
        "router.records_shipped", "router.records_combined",
        "router.bytes_shipped", "router.combine_ratio",
        "exchange.queue_depth_hw", "exchange.pool_hit_ratio",
        "solution.lookups", "solution.delta_applied",
        "solution.delta_discarded", "workset.records",
        "superstep.per_step_ms", "floor.csr_s", "floor.gap_x"}) {
    report->Set(name, 0);
  }
  std::fprintf(stderr,
               "window: %zu requests, write p50 %.3f p99 %.3f ms, read p50 "
               "%.3f p99 %.3f ms, late %.4f (max %.3f ms), %.0f rounds, avg "
               "batch %.2f\n",
               timed.is_write.size(), Median(write_ms),
               Quantile(write_ms, 0.99), Median(read_ms),
               Quantile(read_ms, 0.99), late_frac,
               static_cast<double>(late_max_ns) / 1e6, rounds,
               rounds > 0 ? applied / rounds : 0);
}

}  // namespace perfbench
