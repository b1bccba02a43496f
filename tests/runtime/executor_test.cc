// Executor tests over hand-built logical plans, swept across parallelism
// degrees (the engine must produce identical results at any DOP).
#include "runtime/executor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "dataflow/plan_builder.h"
#include "optimizer/optimizer.h"

namespace sfdf {
namespace {

class ExecutorDopTest : public testing::TestWithParam<int> {
 protected:
  ExecutionResult RunPlan(Plan plan) {
    Optimizer optimizer(OptimizerOptions{.parallelism = GetParam()});
    auto physical = optimizer.Optimize(plan);
    EXPECT_TRUE(physical.ok()) << physical.status().ToString();
    Executor executor(ExecutionOptions{.parallelism = GetParam()});
    auto result = executor.Run(*physical);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  PhysicalPlan Optimize(const Plan& plan, bool enable_caching = true) {
    OptimizerOptions options{.parallelism = GetParam()};
    options.enable_caching = enable_caching;
    auto physical = Optimizer(options).Optimize(plan);
    EXPECT_TRUE(physical.ok()) << physical.status().ToString();
    return std::move(physical).value();
  }

  void RunPhysical(const PhysicalPlan& physical,
                   int64_t cache_spill_budget_bytes = INT64_MAX) {
    ExecutionOptions options{.parallelism = GetParam()};
    options.cache_spill_budget_bytes = cache_spill_budget_bytes;
    auto result = Executor(options).Run(physical);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }

  static PhysicalTask& TaskNamed(PhysicalPlan* plan, const std::string& name) {
    for (PhysicalTask& task : plan->tasks) {
      if (task.name == name) return task;
    }
    ADD_FAILURE() << "no physical task named " << name;
    return plan->tasks.front();
  }

  /// (field 0, field 1) of every record, as a sorted multiset.
  static std::vector<std::pair<int64_t, int64_t>> Pairs(
      const std::vector<Record>& records) {
    std::vector<std::pair<int64_t, int64_t>> pairs;
    for (const Record& rec : records) {
      pairs.emplace_back(rec.GetInt(0), rec.GetInt(1));
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
  }

  static std::vector<Record> ToRecords(
      const std::vector<std::pair<int64_t, int64_t>>& pairs) {
    std::vector<Record> records;
    for (const auto& [a, b] : pairs) records.push_back(Record::OfInts(a, b));
    return records;
  }

  static std::vector<Record> Sorted(std::vector<Record> records) {
    std::sort(records.begin(), records.end(),
              [](const Record& a, const Record& b) {
                if (a.GetInt(0) != b.GetInt(0)) {
                  return a.GetInt(0) < b.GetInt(0);
                }
                return a.arity() > 1 && b.arity() > 1 &&
                       a.RawField(1) < b.RawField(1);
              });
    return records;
  }
};

TEST_P(ExecutorDopTest, CrossBuildsCartesianProduct) {
  std::vector<Record> left;
  std::vector<Record> right;
  for (int i = 0; i < 4; ++i) left.push_back(Record::OfInts(i));
  for (int j = 0; j < 3; ++j) right.push_back(Record::OfInts(j * 10));
  std::vector<Record> out;

  PlanBuilder pb;
  auto l = pb.Source("l", left);
  auto r = pb.Source("r", right);
  auto crossed = pb.Cross("cross", l, r,
                          [](const Record& a, const Record& b, Collector* c) {
                            c->Emit(Record::OfInts(a.GetInt(0) + b.GetInt(0)));
                          });
  pb.Sink("out", crossed, &out);
  RunPlan(std::move(pb).Finish());
  EXPECT_EQ(out.size(), 12u);
  int64_t sum = 0;
  for (const Record& rec : out) sum += rec.GetInt(0);
  // sum over i,j of (i + 10j) = 3*(0+1+2+3) + 4*(0+10+20) = 18 + 120.
  EXPECT_EQ(sum, 138);
}

TEST_P(ExecutorDopTest, CoGroupOuterSeesOneSidedKeys) {
  std::vector<Record> left = {Record::OfInts(1, 10), Record::OfInts(2, 20)};
  std::vector<Record> right = {Record::OfInts(2, 200),
                               Record::OfInts(3, 300)};
  std::vector<Record> out;

  PlanBuilder pb;
  auto l = pb.Source("l", left);
  auto r = pb.Source("r", right);
  // Emit (key, left_count, right_count) per key.
  auto grouped = pb.CoGroup(
      "cg", l, r, {0}, {0},
      [](const std::vector<Record>& lg, const std::vector<Record>& rg,
         Collector* c) {
        int64_t key = lg.empty() ? rg.front().GetInt(0) : lg.front().GetInt(0);
        c->Emit(Record::OfInts(key, static_cast<int64_t>(lg.size()),
                               static_cast<int64_t>(rg.size())));
      });
  pb.Sink("out", grouped, &out);
  RunPlan(std::move(pb).Finish());
  auto sorted = Sorted(out);
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].GetInt(1), 1);  // key 1: left only
  EXPECT_EQ(sorted[0].GetInt(2), 0);
  EXPECT_EQ(sorted[1].GetInt(1), 1);  // key 2: both
  EXPECT_EQ(sorted[1].GetInt(2), 1);
  EXPECT_EQ(sorted[2].GetInt(1), 0);  // key 3: right only
  EXPECT_EQ(sorted[2].GetInt(2), 1);
}

TEST_P(ExecutorDopTest, InnerCoGroupSkipsOneSidedKeys) {
  std::vector<Record> left = {Record::OfInts(1, 10), Record::OfInts(2, 20)};
  std::vector<Record> right = {Record::OfInts(2, 200),
                               Record::OfInts(3, 300)};
  std::vector<Record> out;

  PlanBuilder pb;
  auto l = pb.Source("l", left);
  auto r = pb.Source("r", right);
  auto grouped = pb.InnerCoGroup(
      "icg", l, r, {0}, {0},
      [](const std::vector<Record>& lg, const std::vector<Record>& rg,
         Collector* c) {
        c->Emit(Record::OfInts(lg.front().GetInt(0),
                               lg.front().GetInt(1) + rg.front().GetInt(1)));
      });
  pb.Sink("out", grouped, &out);
  RunPlan(std::move(pb).Finish());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].GetInt(0), 2);
  EXPECT_EQ(out[0].GetInt(1), 220);
}

TEST_P(ExecutorDopTest, UnionConcatenates) {
  std::vector<Record> a = {Record::OfInts(1), Record::OfInts(2)};
  std::vector<Record> b = {Record::OfInts(3)};
  std::vector<Record> out;
  PlanBuilder pb;
  auto u = pb.Union("u", pb.Source("a", a), pb.Source("b", b));
  pb.Sink("out", u, &out);
  RunPlan(std::move(pb).Finish());
  EXPECT_EQ(out.size(), 3u);
}

TEST_P(ExecutorDopTest, MultipleSinksFromSharedProducer) {
  std::vector<Record> data;
  for (int i = 0; i < 10; ++i) data.push_back(Record::OfInts(i));
  std::vector<Record> evens;
  std::vector<Record> odds;
  PlanBuilder pb;
  auto src = pb.Source("data", data);
  auto even = pb.Filter("even", src,
                        [](const Record& rec) { return rec.GetInt(0) % 2 == 0; });
  auto odd = pb.Filter("odd", src,
                       [](const Record& rec) { return rec.GetInt(0) % 2 == 1; });
  pb.Sink("evens", even, &evens);
  pb.Sink("odds", odd, &odds);
  RunPlan(std::move(pb).Finish());
  EXPECT_EQ(evens.size(), 5u);
  EXPECT_EQ(odds.size(), 5u);
}

TEST_P(ExecutorDopTest, MetricsCountShippedRecords) {
  std::vector<Record> data;
  for (int i = 0; i < 100; ++i) data.push_back(Record::OfInts(i % 5, i));
  std::vector<Record> out;
  PlanBuilder pb;
  auto src = pb.Source("data", data);
  auto sums = pb.Reduce("sum", src, {0},
                        [](const std::vector<Record>& group, Collector* c) {
                          c->Emit(group.front());
                        });
  pb.Sink("out", sums, &out);
  ExecutionResult result = RunPlan(std::move(pb).Finish());
  // At least the 100 reduce inputs crossed a channel.
  EXPECT_GE(result.records_shipped, 100);
  EXPECT_GT(result.bytes_shipped, 0);
  // Exchange health was aggregated: something was queued, and every shipped
  // batch buffer was accounted as a pool hit or miss.
  EXPECT_GT(result.queue_depth_high_water, 0);
  EXPECT_GT(result.batch_pool_hits + result.batch_pool_misses, 0);
}

TEST_P(ExecutorDopTest, EmptyInputsProduceEmptyOutputs) {
  std::vector<Record> out;
  PlanBuilder pb;
  auto src = pb.Source("empty", std::vector<Record>{});
  auto mapped = pb.Map("id", src, [](const Record& rec, Collector* c) {
    c->Emit(rec);
  });
  auto sums = pb.Reduce("sum", mapped, {0},
                        [](const std::vector<Record>& group, Collector* c) {
                          c->Emit(group.front());
                        });
  pb.Sink("out", sums, &out);
  RunPlan(std::move(pb).Finish());
  EXPECT_TRUE(out.empty());
}

TEST_P(ExecutorDopTest, BulkIterationWithConstantJoinSide) {
  // Iterate x -> x + lookup(key) with a constant lookup table: exercises
  // the constant-path cache inside a loop join.
  std::vector<Record> init;
  std::vector<Record> lookup;
  for (int k = 0; k < 6; ++k) {
    init.push_back(Record::OfInts(k, 0));
    lookup.push_back(Record::OfInts(k, k));
  }
  std::vector<Record> out;
  PlanBuilder pb;
  auto src = pb.Source("init", init);
  auto table = pb.Source("lookup", lookup);
  auto it = pb.BeginBulkIteration("acc", src, 4, {0});
  auto next = pb.Match("add", it.PartialSolution(), table, {0}, {0},
                       [](const Record& x, const Record& t, Collector* c) {
                         c->Emit(Record::OfInts(x.GetInt(0),
                                                x.GetInt(1) + t.GetInt(1)));
                       });
  pb.DeclarePreserved(next, 0, 0, 0);
  auto result = it.Close(next);
  pb.Sink("out", result, &out);
  RunPlan(std::move(pb).Finish());
  auto sorted = Sorted(out);
  ASSERT_EQ(sorted.size(), 6u);
  for (int k = 0; k < 6; ++k) {
    EXPECT_EQ(sorted[k].GetInt(1), 4 * k);  // 4 iterations of +k
  }
}

// Each operator kernel below runs both as a one-shot task and as a loop
// task, under every local strategy it supports. The loop cases replay a
// constant input for several supersteps, once with the §4.3 cache in memory
// and once under a spill budget small enough to push it to disk. Every case
// is checked against a reference computed here.

using Pair = std::pair<int64_t, int64_t>;

constexpr int kLoopSupersteps = 4;
constexpr int64_t kTinySpillBudget = 64;
constexpr int64_t kSpillBudgets[] = {INT64_MAX, kTinySpillBudget};

/// Reference group-by-key sum.
std::vector<Pair> SumByKey(const std::vector<Pair>& pairs) {
  std::map<int64_t, int64_t> sums;
  for (const auto& [key, value] : pairs) sums[key] += value;
  return {sums.begin(), sums.end()};
}

/// Reduce UDF: (key, sum of field 1) per group.
void SumValues(const std::vector<Record>& group, Collector* c) {
  int64_t sum = 0;
  for (const Record& rec : group) sum += rec.GetInt(1);
  c->Emit(Record::OfInts(group.front().GetInt(0), sum));
}

TEST_P(ExecutorDopTest, OneShotReduceWithAndWithoutPresortedInput) {
  std::vector<Record> data;
  std::vector<Pair> pairs;
  for (int i = 0; i < 200; ++i) {
    data.push_back(Record::OfInts((i * 7) % 13, i));
    pairs.emplace_back((i * 7) % 13, i);
  }
  std::vector<Record> out;
  PlanBuilder pb;
  // "sum" emits two records per key, in key order, so "total" reads them
  // presorted over a forward edge and must still group them together.
  auto sums = pb.Reduce("sum", pb.Source("data", data), {0},
                        [](const std::vector<Record>& group, Collector* c) {
                          int64_t sum = 0;
                          for (const Record& rec : group) sum += rec.GetInt(1);
                          const int64_t key = group.front().GetInt(0);
                          c->Emit(Record::OfInts(key, sum));
                          c->Emit(Record::OfInts(
                              key, static_cast<int64_t>(group.size())));
                        });
  pb.DeclarePreserved(sums, 0, 0, 0);
  auto totals = pb.Reduce(
      "total", sums, {0}, [](const std::vector<Record>& group, Collector* c) {
        int64_t total = 0;
        for (const Record& rec : group) total += rec.GetInt(1);
        c->Emit(Record::OfInts(group.front().GetInt(0),
                               total * 10 +
                                   static_cast<int64_t>(group.size())));
      });
  pb.Sink("out", totals, &out);
  Plan plan = std::move(pb).Finish();
  PhysicalPlan physical = Optimize(plan);
  EXPECT_FALSE(TaskNamed(&physical, "sum").input_presorted);
  EXPECT_TRUE(TaskNamed(&physical, "total").input_presorted);
  RunPhysical(physical);

  std::map<int64_t, int64_t> counts;
  for (const auto& [key, value] : pairs) ++counts[key];
  std::vector<Pair> expected;
  for (const auto& [key, sum] : SumByKey(pairs)) {
    expected.emplace_back(key, (sum + counts[key]) * 10 + 2);
  }
  EXPECT_EQ(Pairs(out), expected);
}

TEST_P(ExecutorDopTest, OneShotMatchUnderEachLocalStrategy) {
  std::vector<Record> left;
  std::vector<Record> right;
  for (int i = 0; i < 30; ++i) left.push_back(Record::OfInts(i % 9, i));
  for (int j = 0; j < 25; ++j) right.push_back(Record::OfInts(j % 11, j));
  std::vector<Pair> expected;
  for (const Record& l : left) {
    for (const Record& r : right) {
      if (l.GetInt(0) != r.GetInt(0)) continue;
      expected.emplace_back(l.GetInt(0), l.GetInt(1) * 1000 + r.GetInt(1));
    }
  }
  std::sort(expected.begin(), expected.end());

  std::vector<Record> out;
  PlanBuilder pb;
  auto joined =
      pb.Match("join", pb.Source("l", left), pb.Source("r", right), {0}, {0},
               [](const Record& a, const Record& b, Collector* c) {
                 c->Emit(Record::OfInts(a.GetInt(0),
                                        a.GetInt(1) * 1000 + b.GetInt(1)));
               });
  pb.Sink("out", joined, &out);
  Plan plan = std::move(pb).Finish();
  for (LocalStrategy local :
       {LocalStrategy::kHashBuildLeft, LocalStrategy::kHashBuildRight,
        LocalStrategy::kSortMerge}) {
    SCOPED_TRACE(std::string(LocalStrategyName(local)));
    PhysicalPlan physical = Optimize(plan);
    TaskNamed(&physical, "join").local = local;
    RunPhysical(physical);
    EXPECT_EQ(Pairs(out), expected);
  }
}

TEST_P(ExecutorDopTest, OneShotCrossUnderEachLocalStrategy) {
  std::vector<Record> left;
  std::vector<Record> right;
  for (int i = 0; i < 5; ++i) left.push_back(Record::OfInts(i, i));
  for (int j = 0; j < 3; ++j) right.push_back(Record::OfInts(j * 10, j));
  std::vector<Pair> expected;
  for (const Record& l : left) {
    for (const Record& r : right) {
      expected.emplace_back(l.GetInt(0) + r.GetInt(0),
                            l.GetInt(1) * 10 + r.GetInt(1));
    }
  }
  std::sort(expected.begin(), expected.end());

  std::vector<Record> out;
  PlanBuilder pb;
  auto crossed =
      pb.Cross("cross", pb.Source("l", left), pb.Source("r", right),
               [](const Record& a, const Record& b, Collector* c) {
                 c->Emit(Record::OfInts(a.GetInt(0) + b.GetInt(0),
                                        a.GetInt(1) * 10 + b.GetInt(1)));
               });
  pb.Sink("out", crossed, &out);
  Plan plan = std::move(pb).Finish();
  for (LocalStrategy local :
       {LocalStrategy::kCrossBuildLeft, LocalStrategy::kCrossBuildRight}) {
    SCOPED_TRACE(std::string(LocalStrategyName(local)));
    PhysicalPlan physical = Optimize(plan);
    TaskNamed(&physical, "cross").local = local;
    RunPhysical(physical);
    EXPECT_EQ(Pairs(out), expected);
  }
}

TEST_P(ExecutorDopTest, LoopMatchReplaysConstantSide) {
  // Keys 0, 3, 6 and 9 match twice, so their record count doubles every
  // superstep; key 10 exists only on the constant side.
  std::vector<Pair> init;
  std::vector<Record> table;
  for (int k = 0; k < 10; ++k) {
    init.emplace_back(k, k);
    table.push_back(Record::OfInts(k, 1));
    if (k % 3 == 0) table.push_back(Record::OfInts(k, 2 * k));
  }
  table.push_back(Record::OfInts(10, 5));
  std::vector<Pair> expected = init;
  for (int step = 0; step < kLoopSupersteps; ++step) {
    std::vector<Pair> joined;
    for (const auto& [key, value] : expected) {
      for (const Record& t : table) {
        if (t.GetInt(0) == key) joined.emplace_back(key, value + t.GetInt(1));
      }
    }
    std::sort(joined.begin(), joined.end());
    expected = joined;
  }

  std::vector<Record> out;
  PlanBuilder pb;
  auto it = pb.BeginBulkIteration("acc", pb.Source("init", ToRecords(init)),
                                  kLoopSupersteps, {0});
  auto next = pb.Match("add", it.PartialSolution(), pb.Source("table", table),
                       {0}, {0},
                       [](const Record& x, const Record& t, Collector* c) {
                         c->Emit(Record::OfInts(x.GetInt(0),
                                                x.GetInt(1) + t.GetInt(1)));
                       });
  pb.DeclarePreserved(next, 0, 0, 0);
  pb.Sink("out", it.Close(next), &out);
  Plan plan = std::move(pb).Finish();
  for (LocalStrategy local :
       {LocalStrategy::kHashBuildLeft, LocalStrategy::kHashBuildRight,
        LocalStrategy::kSortMerge}) {
    for (bool caching : {true, false}) {
      for (int64_t budget : kSpillBudgets) {
        SCOPED_TRACE(std::string(LocalStrategyName(local)) +
                     (caching ? " cached" : " uncached") + " budget " +
                     std::to_string(budget));
        PhysicalPlan physical = Optimize(plan, caching);
        TaskNamed(&physical, "add").local = local;
        RunPhysical(physical, budget);
        EXPECT_EQ(Pairs(out), expected);
      }
    }
  }
}

TEST_P(ExecutorDopTest, LoopCrossReplaysConstantSide) {
  std::vector<Pair> init = {{0, 0}, {1, 1}};
  std::vector<Record> table;
  for (int j = 1; j <= 3; ++j) table.push_back(Record::OfInts(j));
  std::vector<Pair> expected = init;
  for (int step = 0; step < kLoopSupersteps; ++step) {
    std::vector<Pair> crossed;
    for (const auto& [key, value] : expected) {
      for (const Record& t : table) {
        crossed.emplace_back(key, value + t.GetInt(0));
      }
    }
    expected = SumByKey(crossed);
  }

  std::vector<Record> out;
  PlanBuilder pb;
  auto it = pb.BeginBulkIteration("acc", pb.Source("init", ToRecords(init)),
                                  kLoopSupersteps, {0});
  auto crossed = pb.Cross("cross", it.PartialSolution(),
                          pb.Source("table", table),
                          [](const Record& x, const Record& t, Collector* c) {
                            c->Emit(Record::OfInts(x.GetInt(0),
                                                   x.GetInt(1) + t.GetInt(0)));
                          });
  auto summed = pb.Reduce("sum", crossed, {0}, SumValues);
  pb.DeclarePreserved(summed, 0, 0, 0);
  pb.Sink("out", it.Close(summed), &out);
  Plan plan = std::move(pb).Finish();
  for (LocalStrategy local :
       {LocalStrategy::kCrossBuildLeft, LocalStrategy::kCrossBuildRight}) {
    for (int64_t budget : kSpillBudgets) {
      SCOPED_TRACE(std::string(LocalStrategyName(local)) + " budget " +
                   std::to_string(budget));
      PhysicalPlan physical = Optimize(plan);
      TaskNamed(&physical, "cross").local = local;
      RunPhysical(physical, budget);
      EXPECT_EQ(Pairs(out), expected);
    }
  }
}

TEST_P(ExecutorDopTest, LoopCoGroupReplaysConstantSide) {
  // Key 3 has no constant group; keys 8 and 9 have only a constant group.
  std::vector<Pair> init;
  std::vector<Record> table;
  for (int k = 0; k < 10; ++k) {
    if (k < 8) init.emplace_back(k, k);
    if (k != 3) table.push_back(Record::OfInts(k, k));
    if (k % 2 == 0) table.push_back(Record::OfInts(k, 1));
  }
  std::vector<Pair> expected = init;
  for (int step = 0; step < kLoopSupersteps; ++step) {
    std::map<int64_t, int64_t> group_sums;
    for (const Record& t : table) group_sums[t.GetInt(0)] += t.GetInt(1);
    for (auto& [key, value] : expected) value += group_sums[key] + 1;
  }

  std::vector<Record> out;
  PlanBuilder pb;
  auto it = pb.BeginBulkIteration("acc", pb.Source("init", ToRecords(init)),
                                  kLoopSupersteps, {0});
  auto next = pb.CoGroup(
      "cg", it.PartialSolution(), pb.Source("table", table), {0}, {0},
      [](const std::vector<Record>& lg, const std::vector<Record>& rg,
         Collector* c) {
        int64_t sum = 0;
        for (const Record& t : rg) sum += t.GetInt(1);
        for (const Record& x : lg) {
          c->Emit(Record::OfInts(x.GetInt(0), x.GetInt(1) + sum + 1));
        }
      });
  pb.DeclarePreserved(next, 0, 0, 0);
  pb.Sink("out", it.Close(next), &out);
  Plan plan = std::move(pb).Finish();
  for (int64_t budget : kSpillBudgets) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    RunPhysical(Optimize(plan), budget);
    EXPECT_EQ(Pairs(out), expected);
  }
}

TEST_P(ExecutorDopTest, LoopUnionReplaysConstantSide) {
  // Union(partial solution, constant) -> Filter -> Reduce -> Map inside the
  // loop; keys 8 and 9 enter from the constant side, key 5 is filtered.
  std::vector<Pair> init;
  std::vector<Record> table;
  for (int k = 0; k < 10; ++k) {
    if (k < 8) init.emplace_back(k, 1);
    table.push_back(Record::OfInts(k, k));
  }
  std::vector<Pair> expected = init;
  for (int step = 0; step < kLoopSupersteps; ++step) {
    std::vector<Pair> unioned;
    for (const Pair& p : expected) {
      if (p.first != 5) unioned.push_back(p);
    }
    for (const Record& t : table) {
      if (t.GetInt(0) != 5) unioned.emplace_back(t.GetInt(0), t.GetInt(1));
    }
    expected = SumByKey(unioned);
    for (auto& [key, value] : expected) value *= 2;
  }

  std::vector<Record> out;
  PlanBuilder pb;
  auto it = pb.BeginBulkIteration("acc", pb.Source("init", ToRecords(init)),
                                  kLoopSupersteps, {0});
  auto unioned = pb.Union("u", it.PartialSolution(), pb.Source("table", table));
  auto kept = pb.Filter("drop5", unioned,
                        [](const Record& rec) { return rec.GetInt(0) != 5; });
  auto summed = pb.Reduce("sum", kept, {0}, SumValues);
  pb.DeclarePreserved(summed, 0, 0, 0);
  auto doubled = pb.Map("double", summed, [](const Record& rec, Collector* c) {
    c->Emit(Record::OfInts(rec.GetInt(0), rec.GetInt(1) * 2));
  });
  pb.DeclarePreserved(doubled, 0, 0, 0);
  pb.Sink("out", it.Close(doubled), &out);
  Plan plan = std::move(pb).Finish();
  for (int64_t budget : kSpillBudgets) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    RunPhysical(Optimize(plan), budget);
    EXPECT_EQ(Pairs(out), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(Parallelism, ExecutorDopTest,
                         testing::Values(1, 2, 4),
                         [](const testing::TestParamInfo<int>& info) {
                           return "dop" + std::to_string(info.param);
                         });

PhysicalPlan TrivialPlan(std::vector<Record>* out) {
  PlanBuilder pb;
  auto src = pb.Source("src", std::vector<Record>{Record::OfInts(1)});
  pb.Sink("out", src, out);
  Plan plan = std::move(pb).Finish();
  Optimizer optimizer(OptimizerOptions{.parallelism = 2});
  auto physical = optimizer.Optimize(plan);
  EXPECT_TRUE(physical.ok()) << physical.status().ToString();
  return std::move(*physical);
}

TEST(ExecutionOptionsValidationTest, NegativeParallelismIsRejected) {
  std::vector<Record> out;
  PhysicalPlan plan = TrivialPlan(&out);
  Executor executor(ExecutionOptions{.parallelism = -3});
  auto result = executor.Run(plan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().ToString().find("parallelism"),
            std::string::npos);
  // StartSession applies the same validation.
  auto session = executor.StartSession(plan);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
}

TEST(ExecutionOptionsValidationTest, BadCheckpointSuperstepIsRejected) {
  std::vector<Record> out;
  PhysicalPlan plan = TrivialPlan(&out);
  ExecutionOptions options;
  options.checkpoint_superstep = -2;
  auto result = Executor(options).Run(plan);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().ToString().find("checkpoint_superstep"),
            std::string::npos);
}

TEST(ExecutionOptionsValidationTest, ZeroParallelismStillDefaults) {
  std::vector<Record> out;
  PhysicalPlan plan = TrivialPlan(&out);
  auto result = Executor(ExecutionOptions{.parallelism = 0}).Run(plan);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(out.size(), 1u);
}

}  // namespace
}  // namespace sfdf
