// The two batch workloads: pagerank_bulk (20 bulk PageRank iterations,
// partition plan) and cc_workset (INCR-CC, CoGroup update, superstep mode,
// run to its fixpoint). Both run on one seeded webbase-shaped graph: an
// R-MAT core plus a long path tail, the tail being what stretches CC into
// ~720 mostly tiny supersteps.
//
// The benchmark builds each plan itself through PlanBuilder (the same plans
// as algos/pagerank.cc and algos/connected_components.cc), so plan
// building, optimizing and executing are timed separately. A job runs from
// the first PlanBuilder call until Executor::Run returns with the sink
// output in hand.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <functional>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "common.h"
#include "dataflow/plan_builder.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/union_find.h"
#include "optimizer/optimizer.h"
#include "record/comparator.h"
#include "runtime/engine.h"
#include "runtime/executor.h"

namespace perfbench {
namespace {

using namespace sfdf;

constexpr int64_t kCoreVertices = 65536;
constexpr int64_t kCoreEdges = 1150000;
constexpr int64_t kTailLength = 720;
constexpr int kPageRankIterations = 20;
constexpr double kDamping = 0.85;
constexpr double kRankTolerance = 1e-8;
// Set-up and the floor loop repeat inside a run; their medians are reported.
constexpr int kSetupRepeats = 5;
constexpr int kFloorRepeats = 3;
// A superstep is in the tail when its workset is at most this share of the
// largest superstep's.
constexpr double kTailShare = 0.01;

using Sources = std::vector<std::shared_ptr<std::vector<Record>>>;

/// Webbase stand-in: R-MAT core with a path of kTailLength vertices hanging
/// off vertex 0, symmetrized and deduplicated.
Graph MakeGraph(uint64_t seed) {
  RmatOptions core;
  core.num_vertices = kCoreVertices;
  core.num_edges = kCoreEdges;
  core.seed = seed;
  GraphBuilder builder(kCoreVertices + kTailLength);
  GenerateRmatEdges(core,
                    [&](VertexId u, VertexId v) { builder.AddEdge(u, v); });
  VertexId previous = 0;
  for (int64_t i = 0; i < kTailLength; ++i) {
    builder.AddEdge(previous, kCoreVertices + i);
    previous = kCoreVertices + i;
  }
  return builder.Build(/*symmetrize=*/true);
}

std::shared_ptr<std::vector<Record>> Share(std::vector<Record> records) {
  return std::make_shared<std::vector<Record>>(std::move(records));
}

/// What distinguishes the two batch workloads.
struct BatchSpec {
  /// Input records of the plan's sources, built during set-up.
  std::function<Sources(const Graph&)> make_sources;
  /// Builds the logical plan over `sources`, sinking into `out`.
  std::function<Plan(const Graph&, const Sources&, std::vector<Record>*)>
      build_plan;
  OptimizerOptions optimizer;
  /// The iteration whose supersteps are reported.
  std::function<const IterationReport&(const ExecutionResult&)> iteration;
  /// Single-threaded CSR loop over the same graph: the hardware floor and
  /// the oracle's reference values.
  std::function<std::vector<double>(const Graph&)> floor;
  /// True iff the job's sink output matches the floor's values.
  std::function<bool(const Graph&, const std::vector<double>&,
                     const std::vector<Record>&)>
      check;
  /// Optional cross-check of the floor's values against the program's own
  /// sequential reference.
  std::function<bool(const Graph&, const std::vector<double>&)> floor_ok;
  /// Rejects a physical plan other than the one the workload pins.
  std::function<bool(const PhysicalPlan&)> plan_ok = [](const PhysicalPlan&) {
    return true;
  };
};

// --- pagerank_bulk ----------------------------------------------------------

Sources PageRankSources(const Graph& graph) {
  std::vector<Record> ranks;
  ranks.reserve(graph.num_vertices());
  const double r0 = 1.0 / static_cast<double>(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    ranks.push_back(Record::OfIntDouble(v, r0));
  }
  std::vector<Record> matrix;
  matrix.reserve(graph.num_directed_edges());
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    if (graph.OutDegree(u) == 0) continue;
    const double prob = 1.0 / static_cast<double>(graph.OutDegree(u));
    for (const VertexId* v = graph.NeighborsBegin(u);
         v != graph.NeighborsEnd(u); ++v) {
      matrix.push_back(Record::OfIntIntDouble(*v, u, prob));
    }
  }
  return {Share(std::move(ranks)), Share(std::move(matrix))};
}

Plan PageRankPlan(const Graph& graph, const Sources& sources,
                  std::vector<Record>* out) {
  const double base_rank =
      (1.0 - kDamping) / static_cast<double>(graph.num_vertices());
  PlanBuilder pb;
  auto ranks = pb.Source("p", sources[0]);
  auto matrix = pb.Source("A", sources[1]);
  auto it = pb.BeginBulkIteration("pagerank", ranks, kPageRankIterations,
                                  /*solution_key=*/{0});
  auto contribs = pb.Match(
      "joinPA", it.PartialSolution(), matrix, {0}, {1},
      [](const Record& p, const Record& a, Collector* c) {
        c->Emit(Record::OfIntDouble(a.GetInt(0),
                                    p.GetDouble(1) * a.GetDouble(2)));
      });
  pb.DeclarePreserved(contribs, 1, 0, 0);
  auto next = pb.Reduce(
      "sumRanks", contribs, {0},
      [base_rank](const std::vector<Record>& group, Collector* c) {
        double sum = 0;
        for (const Record& rec : group) sum += rec.GetDouble(1);
        c->Emit(Record::OfIntDouble(group.front().GetInt(0),
                                    base_rank + kDamping * sum));
      },
      [](const Record& a, const Record& b) {
        return Record::OfIntDouble(a.GetInt(0),
                                   a.GetDouble(1) + b.GetDouble(1));
      });
  pb.DeclarePreserved(next, 0, 0, 0);
  pb.Sink("ranks", it.Close(next, DataSet()), out);
  return std::move(pb).Finish();
}

std::vector<double> PageRankFloor(const Graph& graph) {
  const int64_t n = graph.num_vertices();
  std::vector<double> ranks(n, 1.0 / static_cast<double>(n));
  std::vector<double> next(n);
  const double base = (1.0 - kDamping) / static_cast<double>(n);
  for (int iter = 0; iter < kPageRankIterations; ++iter) {
    std::fill(next.begin(), next.end(), 0.0);
    for (VertexId u = 0; u < n; ++u) {
      const VertexId* begin = graph.NeighborsBegin(u);
      const VertexId* end = graph.NeighborsEnd(u);
      if (begin == end) continue;
      const double share = ranks[u] / static_cast<double>(end - begin);
      for (const VertexId* v = begin; v != end; ++v) next[*v] += share;
    }
    for (VertexId v = 0; v < n; ++v) ranks[v] = base + kDamping * next[v];
  }
  return ranks;
}

/// Compared on vertices with in-edges (the graph is symmetric, so: with
/// any edge); the Reduce emits no rank for the others.
bool PageRankCheck(const Graph& graph, const std::vector<double>& reference,
                   const std::vector<Record>& output) {
  std::vector<char> seen(graph.num_vertices(), 0);
  for (const Record& rec : output) {
    const int64_t v = rec.GetInt(0);
    if (v < 0 || v >= graph.num_vertices() || seen[v]) return false;
    seen[v] = 1;
    if (std::abs(rec.GetDouble(1) - reference[v]) > kRankTolerance) {
      return false;
    }
  }
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (graph.OutDegree(v) > 0 && !seen[v]) return false;
  }
  return true;
}

BatchSpec PageRankSpec(int parallelism) {
  BatchSpec spec;
  spec.make_sources = PageRankSources;
  spec.build_plan = PageRankPlan;
  spec.optimizer.parallelism = parallelism;
  spec.optimizer.expected_iterations = kPageRankIterations;
  // Forces the partition plan, as PageRankPlan::kPartition does.
  spec.optimizer.broadcast_cost_factor = 1e9;
  spec.iteration = [](const ExecutionResult& r) -> const IterationReport& {
    return r.bulk_reports.at(0);
  };
  spec.floor = PageRankFloor;
  spec.check = PageRankCheck;
  spec.plan_ok = [](const PhysicalPlan& plan) {
    for (const PhysicalTask& task : plan.tasks) {
      for (const PhysicalInput& input : task.inputs) {
        if (input.ship == ShipStrategy::kBroadcast) return false;
      }
    }
    return true;
  };
  return spec;
}

// --- cc_workset -------------------------------------------------------------

Sources CcSources(const Graph& graph) {
  std::vector<Record> labels;
  labels.reserve(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    labels.push_back(Record::OfInts(v, v));
  }
  std::vector<Record> workset;
  std::vector<Record> edges;
  workset.reserve(graph.num_directed_edges());
  edges.reserve(graph.num_directed_edges());
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    for (const VertexId* v = graph.NeighborsBegin(u);
         v != graph.NeighborsEnd(u); ++v) {
      workset.push_back(Record::OfInts(*v, u));
      edges.push_back(Record::OfInts(u, *v));
    }
  }
  return {Share(std::move(labels)), Share(std::move(workset)),
          Share(std::move(edges))};
}

/// INCR-CC: the CoGroup update groups all candidates of a vertex and
/// touches its solution entry once.
Plan CcPlan(const Graph&, const Sources& sources, std::vector<Record>* out) {
  PlanBuilder pb;
  auto labels = pb.Source("V", sources[0]);
  auto workset0 = pb.Source("W0", sources[1]);
  auto edges = pb.Source("N", sources[2]);
  auto it = pb.BeginWorksetIteration("cc", labels, workset0,
                                     /*solution_key=*/{0},
                                     OrderByIntFieldDesc(1),
                                     IterationMode::kSuperstep, 100000);
  auto delta = pb.InnerCoGroup(
      "update", it.Workset(), it.SolutionSet(), {0}, {0},
      [](const std::vector<Record>& candidates,
         const std::vector<Record>& current, Collector* c) {
        int64_t min_cid = candidates.front().GetInt(1);
        for (const Record& rec : candidates) {
          min_cid = std::min(min_cid, rec.GetInt(1));
        }
        if (min_cid < current.front().GetInt(1)) {
          c->Emit(Record::OfInts(current.front().GetInt(0), min_cid));
        }
      });
  pb.DeclarePreserved(delta, 1, 0, 0);
  auto next_workset = pb.Match(
      "neighbors", delta, edges, {0}, {0},
      [](const Record& changed, const Record& edge, Collector* c) {
        c->Emit(Record::OfInts(edge.GetInt(1), changed.GetInt(1)));
      });
  pb.DeclarePreserved(next_workset, 1, 1, 0);
  pb.Sink("labels", it.Close(delta, next_workset), out);
  return std::move(pb).Finish();
}

/// Union-find over the CSR adjacency; labels each vertex with the minimum
/// vertex id of its component.
std::vector<double> CcFloor(const Graph& graph) {
  const int64_t n = graph.num_vertices();
  std::vector<int64_t> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  auto find = [&](int64_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (VertexId u = 0; u < n; ++u) {
    for (const VertexId* v = graph.NeighborsBegin(u);
         v != graph.NeighborsEnd(u); ++v) {
      const int64_t a = find(u);
      const int64_t b = find(*v);
      // The smaller root wins, so every root is its component's minimum.
      if (a < b) parent[b] = a;
      if (b < a) parent[a] = b;
    }
  }
  std::vector<double> labels(n);
  for (VertexId v = 0; v < n; ++v) labels[v] = static_cast<double>(find(v));
  return labels;
}

bool CcCheck(const Graph& graph, const std::vector<double>& reference,
             const std::vector<Record>& output) {
  if (static_cast<int64_t>(output.size()) != graph.num_vertices()) {
    return false;
  }
  std::vector<char> seen(graph.num_vertices(), 0);
  for (const Record& rec : output) {
    const int64_t v = rec.GetInt(0);
    if (v < 0 || v >= graph.num_vertices() || seen[v]) return false;
    seen[v] = 1;
    if (static_cast<double>(rec.GetInt(1)) != reference[v]) return false;
  }
  return true;
}

BatchSpec CcSpec(int parallelism) {
  BatchSpec spec;
  spec.make_sources = CcSources;
  spec.build_plan = CcPlan;
  spec.optimizer.parallelism = parallelism;
  spec.iteration = [](const ExecutionResult& r) -> const IterationReport& {
    return r.workset_reports.at(0);
  };
  spec.floor = CcFloor;
  spec.check = CcCheck;
  spec.floor_ok = [](const Graph& graph, const std::vector<double>& labels) {
    const std::vector<VertexId> reference = ReferenceComponents(graph);
    for (size_t v = 0; v < reference.size(); ++v) {
      if (static_cast<double>(reference[v]) != labels[v]) return false;
    }
    return reference.size() == labels.size();
  };
  return spec;
}

// --- the shared measurement loop -------------------------------------------

struct Job {
  bool ok = false;
  double job_ms = 0;
  double build_ms = 0;
  double optimize_ms = 0;
  double run_ms = 0;
  ExecutionResult exec;
  std::vector<Record> output;
};

double MsSince(int64_t start_ns) {
  return static_cast<double>(trace::NowNs() - start_ns) / 1e6;
}

Job RunJob(const BatchSpec& spec, const Graph& graph, const Sources& sources,
           const ExecutionOptions& exec_options) {
  static const uint16_t kJob = trace::RegisterName("bench.job");
  static const uint16_t kBuild = trace::RegisterName("bench.plan_build");
  static const uint16_t kOptimize = trace::RegisterName("bench.optimize");
  static const uint16_t kRun = trace::RegisterName("bench.run");
  Job job;
  const int64_t start = trace::NowNs();
  Plan plan = spec.build_plan(graph, sources, &job.output);
  job.build_ms = MsSince(start);
  trace::EmitSpan(kBuild, start);

  const int64_t optimize_start = trace::NowNs();
  auto physical = Optimizer(spec.optimizer).Optimize(plan);
  job.optimize_ms = MsSince(optimize_start);
  trace::EmitSpan(kOptimize, optimize_start);
  if (!physical.ok() || !spec.plan_ok(*physical)) {
    std::fprintf(stderr, "perfbench: optimizer: %s\n",
                 physical.ok() ? "unexpected plan"
                               : physical.status().ToString().c_str());
    return job;
  }

  const int64_t run_start = trace::NowNs();
  auto exec = Executor(exec_options).Run(*physical);
  job.run_ms = MsSince(run_start);
  trace::EmitSpan(kRun, run_start);
  job.job_ms = MsSince(start);
  trace::EmitSpan(kJob, start);
  if (!exec.ok()) {
    std::fprintf(stderr, "perfbench: executor: %s\n",
                 exec.status().ToString().c_str());
    return job;
  }
  job.exec = std::move(exec).value();
  job.ok = true;
  return job;
}

/// Counters that must repeat exactly for a given graph.
std::map<std::string, int64_t> ExactCounters(const BatchSpec& spec,
                                             const ExecutionResult& exec) {
  const IterationReport& it = spec.iteration(exec);
  return {{"executor.supersteps", it.iterations},
          {"router.records_shipped", exec.records_shipped},
          {"router.records_combined", exec.records_combined},
          {"workset.records", it.TotalWorkset()},
          {"engine.tasks", exec.engine_tasks}};
}

/// Compares `counters` with the record of an earlier run of the same
/// source tree, workload and seed (written on first use). Returns false on
/// any difference.
bool CheckExactCounters(const Config& config,
                        const std::map<std::string, int64_t>& counters) {
  if (config.state_dir.empty()) return true;
  std::string key = config.source_id + "-" + config.workload + "-" +
                    std::to_string(config.seed);
  for (char& c : key) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-') c = '_';
  }
  const std::string path = config.state_dir + "/counters-" + key + ".txt";
  std::ostringstream current;
  for (const auto& [name, value] : counters) {
    current << name << " " << value << "\n";
  }
  std::ifstream in(path);
  if (in) {
    std::stringstream recorded;
    recorded << in.rdbuf();
    if (recorded.str() != current.str()) {
      std::fprintf(stderr,
                   "perfbench: exact counters drifted from %s\nrecorded:\n%s"
                   "now:\n%s",
                   path.c_str(), recorded.str().c_str(),
                   current.str().c_str());
      return false;
    }
    return true;
  }
  std::ofstream outfile(path);
  outfile << current.str();
  return true;
}


/// Per-job figures whose medians become per-layer metrics.
struct JobLayers {
  std::vector<double> build_ms, optimize_ms, run_ms, superstep0_ms,
      superstep_p50_ms, tail_step_ms, queue_wait_ms, queue_depth_hw,
      pool_hit_ratio;

  void Add(const BatchSpec& spec, const Job& job) {
    const IterationReport& it = spec.iteration(job.exec);
    build_ms.push_back(job.build_ms);
    optimize_ms.push_back(job.optimize_ms);
    run_ms.push_back(job.run_ms);
    std::vector<double> steps;
    int64_t max_workset = 0;
    for (const SuperstepStats& s : it.supersteps) {
      steps.push_back(s.millis);
      max_workset = std::max(max_workset, s.workset_size);
    }
    std::vector<double> tail;
    for (const SuperstepStats& s : it.supersteps) {
      if (max_workset > 0 &&
          static_cast<double>(s.workset_size) <=
              kTailShare * static_cast<double>(max_workset)) {
        tail.push_back(s.millis);
      }
    }
    superstep0_ms.push_back(steps.empty() ? 0 : steps.front());
    superstep_p50_ms.push_back(Median(steps));
    tail_step_ms.push_back(Median(tail));
    queue_wait_ms.push_back(
        static_cast<double>(job.exec.engine_queue_wait_ns_total) / 1e6);
    queue_depth_hw.push_back(
        static_cast<double>(job.exec.queue_depth_high_water));
    const int64_t acquisitions =
        job.exec.batch_pool_hits + job.exec.batch_pool_misses;
    pool_hit_ratio.push_back(
        acquisitions > 0 ? static_cast<double>(job.exec.batch_pool_hits) /
                               static_cast<double>(acquisitions)
                         : 0);
  }
};

void RunBatch(const Config& config, const BatchSpec& spec, Report* report) {
  // Set-up: graph generation plus the input records, repeated.
  Graph graph;
  Sources sources;
  std::vector<double> setup_s, generate_s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    sources.clear();
    graph = Graph();
    const double start = NowSeconds();
    graph = MakeGraph(config.seed);
    generate_s.push_back(NowSeconds() - start);
    sources = spec.make_sources(graph);
    setup_s.push_back(NowSeconds() - start);
  }
  std::fprintf(stderr, "graph: %lld vertices, %lld directed edges\n",
               static_cast<long long>(graph.num_vertices()),
               static_cast<long long>(graph.num_directed_edges()));

  // Floor and oracle: the CSR loop, single-threaded, same graph.
  std::vector<double> reference;
  std::vector<double> floor_s;
  for (int i = 0; i < kFloorRepeats; ++i) {
    const double start = NowSeconds();
    reference = spec.floor(graph);
    floor_s.push_back(NowSeconds() - start);
  }
  if (spec.floor_ok && !spec.floor_ok(graph, reference)) {
    report->Invalidate("the floor loop disagrees with the program's reference");
  }

  Engine engine(Engine::Options{.workers = config.workers});
  ExecutionOptions exec_options;
  exec_options.parallelism = config.parallelism;
  exec_options.engine = &engine;

  std::map<std::string, int64_t> counters;
  bool counters_drift = false;
  auto run_checked = [&](Job* job) {
    *job = RunJob(spec, graph, sources, exec_options);
    bool ok = job->ok && spec.check(graph, reference, job->output);
    if (job->ok && !ok) {
      std::fprintf(stderr, "perfbench: job output does not match the oracle\n");
    }
    if (job->ok) {
      auto c = ExactCounters(spec, job->exec);
      if (counters.empty()) {
        counters = c;
      } else if (c != counters) {
        counters_drift = true;
        ok = false;
      }
    }
    report->Attempt(ok);
    return ok;
  };

  // Warm-up: lets the allocator and page cache settle; checked, not timed.
  Job job;
  run_checked(&job);

  // Timed phase: a job starts only if it is expected to end within the
  // window. Per-layer runs alternate untraced and traced jobs, so host
  // drift during the run touches both sides of the tracing overhead alike;
  // each traced job is read back through trace::Snapshot.
  std::vector<double> job_ms, traced_ms, decide_ms, busy_ms, utilization;
  JobLayers layers;
  int64_t spans_lost = 0;
  const double begin = NowSeconds();
  double last_s = job.job_ms / 1e3;
  for (int k = 0; job.ok; ++k) {
    const bool traced = config.trace && k % 2 == 1;
    const bool have_all = k >= (config.trace ? 2 : 1);
    if (have_all && NowSeconds() - begin + last_s > config.seconds) break;
    if (traced) {
      // Safe: tracing is off and the pool idle between jobs, so no thread
      // is writing to a ring while the counts are cleared.
      trace::ResetForTesting();
      trace::SetEnabled(true);
    }
    const bool ok = run_checked(&job);
    trace::SetEnabled(false);
    last_s = job.job_ms / 1e3;
    if (!ok) continue;
    if (!traced) {
      job_ms.push_back(job.job_ms);
      layers.Add(spec, job);
      continue;
    }
    const auto spans = AggregateSpans(trace::Snapshot());
    auto get = [&](const char* name) {
      auto it = spans.find(name);
      return it == spans.end() ? SpanAggregate() : it->second;
    };
    const SpanAggregate task = get("engine.task");
    const SpanAggregate decide = get("superstep.decide");
    const int64_t supersteps = spec.iteration(job.exec).iterations;
    spans_lost += std::abs(task.count - job.exec.engine_tasks) +
                  std::abs(decide.count - supersteps);
    traced_ms.push_back(job.job_ms);
    decide_ms.push_back(decide.total_ms);
    busy_ms.push_back(task.total_ms);
    utilization.push_back(task.total_ms / (config.workers * job.job_ms));
    if (traced_ms.size() == 1) PrintSpanTable(spans);
  }

  if (counters_drift) report->Invalidate("exact counters drifted in-run");
  if (!counters.empty() && !CheckExactCounters(config, counters)) {
    report->Invalidate("exact counters differ from an earlier run");
  }
  for (const auto& [name, value] : counters) {
    std::fprintf(stderr, "counter %s = %lld\n", name.c_str(),
                 static_cast<long long>(value));
  }

  const double job_p50 = Median(job_ms);
  report->Set("setup_s", Median(setup_s));
  report->Set("update_p50_ms", job_p50);
  report->Set("read_p50_ms", job_p50);
  report->Set("update_p99_ms", Quantile(job_ms, 0.99));
  report->Set("read_p99_ms", Quantile(job_ms, 0.99));
  const double busy_s =
      std::accumulate(job_ms.begin(), job_ms.end(), 0.0) / 1e3;
  report->Set("achieved_rps",
              busy_s > 0 ? static_cast<double>(job_ms.size()) / busy_s : 0);
  report->Set("gen.late_max_ms", 0);
  report->Set("gen.late_frac", 0);
  report->Set("graph.generate_s", Median(generate_s));
  report->Set("dataflow.plan_build_ms", Median(layers.build_ms));
  report->Set("optimizer.optimize_ms", Median(layers.optimize_ms));
  report->Set("executor.run_ms", Median(layers.run_ms));
  auto counter = [&](const char* name) {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  };
  report->Set("executor.supersteps", counter("executor.supersteps"));
  report->Set("executor.superstep0_ms", Median(layers.superstep0_ms));
  report->Set("executor.superstep_p50_ms", Median(layers.superstep_p50_ms));
  const double shipped = counter("router.records_shipped");
  const double combined = counter("router.records_combined");
  report->Set("router.records_shipped", shipped);
  report->Set("router.records_combined", combined);
  report->Set("router.bytes_shipped",
              static_cast<double>(job.exec.bytes_shipped));
  report->Set("router.combine_ratio",
              shipped + combined > 0 ? combined / (shipped + combined) : 0);
  report->Set("exchange.queue_depth_hw", Median(layers.queue_depth_hw));
  report->Set("exchange.pool_hit_ratio", Median(layers.pool_hit_ratio));
  const IterationReport& it = spec.iteration(job.exec);
  int64_t lookups = 0, applied = 0, discarded = 0;
  for (const SuperstepStats& s : it.supersteps) {
    lookups += s.solution_lookups;
    applied += s.delta_applied;
    discarded += s.delta_discarded;
  }
  report->Set("solution.lookups", static_cast<double>(lookups));
  report->Set("solution.delta_applied", static_cast<double>(applied));
  report->Set("solution.delta_discarded", static_cast<double>(discarded));
  report->Set("workset.records", counter("workset.records"));
  report->Set("superstep.per_step_ms", Median(layers.tail_step_ms));
  report->Set("superstep.decide_ms", Median(decide_ms));
  const double tasks = counter("engine.tasks");
  const double wait_ms = Median(layers.queue_wait_ms);
  report->Set("engine.tasks", tasks);
  report->Set("engine.queue_wait_ms", wait_ms);
  report->Set("engine.queue_wait_per_task_us",
              tasks > 0 ? wait_ms * 1e3 / tasks : 0);
  report->Set("engine.busy_ms", Median(busy_ms));
  report->Set("engine.utilization", Median(utilization));
  for (const char* name :
       {"service.rounds", "service.avg_batch", "service.round_p50_ms",
        "service.rejected", "net.ping_rtt_p50_us", "gateway.frames_in",
        "gateway.reads_paused", "gateway.request_ms"}) {
    report->Set(name, 0);
  }
  const double floor = Median(floor_s);
  report->Set("floor.csr_s", floor);
  report->Set("floor.gap_x", floor > 0 ? job_p50 / 1e3 / floor : 0);
  report->Set("obs.trace_overhead_frac",
              traced_ms.empty() ? 0 : Median(traced_ms) / job_p50 - 1);
  report->Set("obs.spans_lost", static_cast<double>(spans_lost));
  std::fprintf(stderr, "jobs (ms):");
  for (double ms : job_ms) std::fprintf(stderr, " %.1f", ms);
  std::fprintf(stderr,
               "\njob p50 %.1f ms (plan %.3f, optimize %.3f, run %.1f); "
               "floor %.4f s\n",
               job_p50, Median(layers.build_ms), Median(layers.optimize_ms),
               Median(layers.run_ms), floor);
}

}  // namespace

void RunPagerankBulk(const Config& config, Report* report) {
  RunBatch(config, PageRankSpec(config.parallelism), report);
}

void RunCcWorkset(const Config& config, Report* report) {
  RunBatch(config, CcSpec(config.parallelism), report);
}

}  // namespace perfbench
