// Tests for the case-split conditional solver: sequential vs parallel vs
// brute-force-oracle agreement on the LIP-hard family, warm-context reuse,
// the big-M cross-check, and the SearchCounters contract.

#include <gtest/gtest.h>

#include "base/arena.h"
#include "base/num.h"
#include "core/cardinality_encoding.h"
#include "core/conditional_solver.h"
#include "core/consistency.h"
#include "core/encoding_solver.h"
#include "workloads/generators.h"

namespace xicc {
namespace {

// The Theorem 4.7 gadget: consistency of the encoded spec ⇔ the 0/1-LIP
// instance has a binary solution. Runs the whole pipeline once sequentially
// and once with a multi-threaded case split; both verdicts must match the
// brute-force oracle.
class ParallelCaseSplitTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParallelCaseSplitTest, ParallelMatchesSequentialAndOracle) {
  const uint64_t seed = GetParam();
  for (size_t rows : {2, 3, 4}) {
    const size_t cols = rows + 2;
    workloads::BinaryLipInstance instance =
        workloads::RandomLip(seed + rows, rows, cols, /*ones_per_row=*/3);
    workloads::LipEncoding enc = workloads::EncodeLipAsConsistency(instance);
    const bool oracle = workloads::LipHasBinarySolution(instance);

    bool verdicts[2];
    for (size_t threads : {1, 4}) {
      ConsistencyOptions options;
      options.build_witness = false;
      options.ilp.num_threads = threads;
      auto result = CheckConsistency(enc.dtd, enc.sigma, options);
      ASSERT_TRUE(result.ok()) << result.status();
      verdicts[threads > 1] = result->consistent;
    }
    EXPECT_EQ(verdicts[0], oracle) << "seed " << seed << " rows " << rows;
    EXPECT_EQ(verdicts[1], oracle) << "seed " << seed << " rows " << rows;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelCaseSplitTest,
                         ::testing::Values(101u, 211u, 307u, 401u));

// Direct SolveWithConditionals exercise at several thread counts, including
// more threads than conditionals (the fan-out must cap at the active set).
TEST(ConditionalSolverTest, ThreadCountsAgreeOnDirectSystems) {
  Dtd dtd = workloads::CatalogDtd(4);
  ConstraintSet sigma = workloads::CatalogFkChainSigma(4).Normalize();
  auto enc = BuildCardinalityEncoding(dtd, sigma);
  ASSERT_TRUE(enc.ok());

  bool base_verdict = false;
  for (size_t threads : {1, 2, 3, 8, 32}) {
    IlpOptions options;
    options.num_threads = threads;
    auto solved =
        SolveWithConditionals(enc->system, enc->conditionals, options);
    ASSERT_TRUE(solved.ok()) << "threads " << threads;
    if (threads == 1) {
      base_verdict = solved->feasible;
    } else {
      EXPECT_EQ(solved->feasible, base_verdict) << "threads " << threads;
    }
    if (solved->feasible) {
      // Any returned assignment satisfies the base system and every
      // conditional (premise > 0 → conclusion > 0).
      for (const LinearConstraint& c : enc->system.constraints()) {
        BigInt lhs(0);
        for (const auto& [var, coef] : c.coeffs) {
          lhs += coef.num() * solved->values[var];
        }
        switch (c.op) {
          case RelOp::kLe:
            EXPECT_LE(lhs, c.rhs);
            break;
          case RelOp::kGe:
            EXPECT_GE(lhs, c.rhs);
            break;
          case RelOp::kEq:
            EXPECT_EQ(lhs, c.rhs);
            break;
        }
      }
      for (const Conditional& cond : enc->conditionals) {
        BigInt premise(0);
        for (const auto& [var, coef] : cond.premise.terms()) {
          premise += coef.num() * solved->values[var];
        }
        if (premise > BigInt(0)) {
          BigInt conclusion(0);
          for (const auto& [var, coef] : cond.conclusion.terms()) {
            conclusion += coef.num() * solved->values[var];
          }
          EXPECT_GT(conclusion, BigInt(0));
        }
      }
    }
  }
}

// The warm context carries the base basis across calls with a growing
// conditional set — verdicts must be unchanged vs. fresh cold calls.
TEST(ConditionalSolverTest, WarmContextReuseKeepsVerdicts) {
  Dtd dtd = workloads::CatalogDtd(3);
  ConstraintSet sigma = workloads::CatalogFkChainSigma(3).Normalize();
  auto enc = BuildCardinalityEncoding(dtd, sigma);
  ASSERT_TRUE(enc.ok());

  CaseSplitWarmContext warm;
  std::vector<Conditional> conditionals;
  for (size_t round = 0; round <= enc->conditionals.size(); ++round) {
    IlpOptions options;
    auto with_warm =
        SolveWithConditionals(enc->system, conditionals, options, &warm);
    auto cold = SolveWithConditionals(enc->system, conditionals, options);
    ASSERT_TRUE(with_warm.ok());
    ASSERT_TRUE(cold.ok());
    EXPECT_EQ(with_warm->feasible, cold->feasible) << "round " << round;
    if (round < enc->conditionals.size()) {
      conditionals.push_back(enc->conditionals[round]);
    }
  }
  EXPECT_TRUE(warm.valid);
}

// Parallel search respects the node budget: exhaustion is reported as
// kResourceExhausted in every thread configuration, never as a verdict.
TEST(ConditionalSolverTest, BudgetExhaustionReportedUnderThreads) {
  workloads::BinaryLipInstance instance =
      workloads::RandomLip(/*seed=*/77, 4, 6, /*ones_per_row=*/3);
  workloads::LipEncoding enc = workloads::EncodeLipAsConsistency(instance);
  for (size_t threads : {1, 4}) {
    ConsistencyOptions options;
    options.build_witness = false;
    options.ilp.num_threads = threads;
    options.ilp.max_nodes = 1;
    auto result = CheckConsistency(enc.dtd, enc.sigma, options);
    ASSERT_FALSE(result.ok()) << "threads " << threads;
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << "threads " << threads;
  }
}

// ------------------------------------------------- SearchCounters contract.

// Add sums every counter and keeps the deeper search depth, in either order.
TEST(ConditionalSolverTest, SearchCountersAddSumsAndMaxesDepth) {
  SearchCounters a;
  a.ilp_nodes = 1;
  a.lp_pivots = 2;
  a.cuts_added = 3;
  a.warm_starts = 4;
  a.cold_restarts = 5;
  a.search_depth = 9;
  a.lp_kernel = {6, 7, 8, 9, 10, 11, 12, 13, 14};
  a.num_small_ops = 15;
  a.num_big_ops = 16;
  a.num_promotions = 17;
  a.num_demotions = 18;
  a.arena_bytes = 19;
  a.ilp_wall_ms = 0.5;
  SearchCounters b = a;
  b.search_depth = 4;

  SearchCounters ab = a;
  ab.Add(b);
  SearchCounters ba = b;
  ba.Add(a);
  for (const SearchCounters& sum : {ab, ba}) {
    EXPECT_EQ(sum.ilp_nodes, 2u);
    EXPECT_EQ(sum.lp_pivots, 4u);
    EXPECT_EQ(sum.cuts_added, 6u);
    EXPECT_EQ(sum.warm_starts, 8u);
    EXPECT_EQ(sum.cold_restarts, 10u);
    EXPECT_EQ(sum.search_depth, 9u);
    EXPECT_EQ(sum.lp_kernel.dantzig_pivots, 12u);
    EXPECT_EQ(sum.lp_kernel.bland_pivots, 14u);
    EXPECT_EQ(sum.lp_kernel.drive_out_pivots, 16u);
    EXPECT_EQ(sum.lp_kernel.bland_fallbacks, 18u);
    EXPECT_EQ(sum.lp_kernel.fill_in, 20u);
    EXPECT_EQ(sum.lp_kernel.nnz_cells, 22u);
    EXPECT_EQ(sum.lp_kernel.total_cells, 24u);
    EXPECT_EQ(sum.lp_kernel.fast_rows, 26u);
    EXPECT_EQ(sum.lp_kernel.fast_row_promotions, 28u);
    EXPECT_EQ(sum.num_small_ops, 30u);
    EXPECT_EQ(sum.num_big_ops, 32u);
    EXPECT_EQ(sum.num_promotions, 34u);
    EXPECT_EQ(sum.num_demotions, 36u);
    EXPECT_EQ(sum.arena_bytes, 38u);
    EXPECT_DOUBLE_EQ(sum.ilp_wall_ms, 1.0);
  }
}

// The calling thread's arithmetic and arena counters, read directly — the
// oracle the solvers' own traffic accounting is checked against.
struct Traffic {
  uint64_t small_ops, big_ops, promotions, demotions, arena_bytes;
  static Traffic Now() {
    const NumCounters& n = ThisThreadNumCounters();
    return {n.small_ops, n.big_ops, n.promotions, n.demotions,
            ThisThreadArena().total_allocated()};
  }
};

// With one thread every solver layer reports exactly the traffic its call
// caused: nested solves (the case split's leaf ILPs, the connectivity
// rounds' case splits) are counted once, not once per layer.
TEST(ConditionalSolverTest, SingleThreadTrafficIsCountedOnce) {
  workloads::LipEncoding lip = workloads::EncodeLipAsConsistency(
      workloads::RandomLip(/*seed=*/103, 2, 4, /*ones_per_row=*/3));
  auto enc = BuildCardinalityEncoding(lip.dtd, lip.sigma.Normalize());
  ASSERT_TRUE(enc.ok());
  auto expect_traffic_counted_once = [](const char* layer, auto solve) {
    const Traffic before = Traffic::Now();
    Result<IlpSolution> solved = solve();
    const Traffic after = Traffic::Now();
    ASSERT_TRUE(solved.ok()) << layer << ": " << solved.status();
    EXPECT_GT(solved->num_small_ops, 0u) << layer;
    EXPECT_EQ(solved->num_small_ops, after.small_ops - before.small_ops)
        << layer;
    EXPECT_EQ(solved->num_big_ops, after.big_ops - before.big_ops) << layer;
    EXPECT_EQ(solved->num_promotions, after.promotions - before.promotions)
        << layer;
    EXPECT_EQ(solved->num_demotions, after.demotions - before.demotions)
        << layer;
    EXPECT_EQ(solved->arena_bytes, after.arena_bytes - before.arena_bytes)
        << layer;
  };
  expect_traffic_counted_once("SolveIlp",
                              [&] { return SolveIlp(enc->system); });
  expect_traffic_counted_once("SolveWithConditionals", [&] {
    return SolveWithConditionals(enc->system, enc->conditionals);
  });
  expect_traffic_counted_once("SolveEncodingSystem", [&] {
    return SolveEncodingSystem(*enc, enc->system, EncodingSolveOptions{});
  });
}

// A parallel case split stopped by its node budget after the fan-out hands
// back the prefix tasks' work in its partial counters, not just the work
// done before the fan-out.
TEST(ConditionalSolverTest, ParallelBudgetStopKeepsPrefixTaskCounters) {
  workloads::LipEncoding lip = workloads::EncodeLipAsConsistency(
      workloads::RandomLip(/*seed=*/77, 4, 6, /*ones_per_row=*/3));
  auto enc = BuildCardinalityEncoding(lip.dtd, lip.sigma.Normalize());
  ASSERT_TRUE(enc.ok());
  auto stopped_partial = [&](size_t max_nodes) {
    IlpOptions options;
    options.num_threads = 4;
    options.max_nodes = max_nodes;
    IlpSolution partial;
    options.partial = &partial;
    auto solved =
        SolveWithConditionals(enc->system, enc->conditionals, options);
    EXPECT_FALSE(solved.ok()) << "max_nodes " << max_nodes;
    // The case split's own budget tripped, so the fan-out had started.
    EXPECT_EQ(solved.status().code(), StatusCode::kResourceExhausted);
    EXPECT_NE(solved.status().message().find("case-split"),
              std::string::npos)
        << solved.status();
    return partial;
  };
  // A budget of one split node stops the tasks almost at once; sixteen
  // lets them each solve LPs first.
  const IlpSolution barely = stopped_partial(1);
  const IlpSolution partial = stopped_partial(16);
  const size_t max_tasks = 8;  // 2^3 prefixes for four threads.
  EXPECT_GT(partial.ilp_nodes, max_tasks);
  EXPECT_GT(partial.lp_pivots, 0u);
  EXPECT_GT(partial.lp_pivots, barely.lp_pivots);
  // Every split node within the budget ran one LP solve on a pool thread.
  EXPECT_GE(partial.warm_starts + partial.cold_restarts,
            barely.warm_starts + barely.cold_restarts + 10);
  EXPECT_GT(partial.num_small_ops, barely.num_small_ops);
}

}  // namespace
}  // namespace xicc
