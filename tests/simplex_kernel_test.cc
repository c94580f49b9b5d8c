// Sparse pricing-driven kernel (DESIGN.md §12): the anti-cycling contract
// of the Dantzig→Bland degeneracy fallback, randomized differential parity
// against the dense-Bland reference solver (on general systems and on
// Ψ-shaped ones, where the crash does most of the work), the crash's own
// contract, and the kernel's instrumentation counters.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "base/bigint.h"
#include "base/num.h"
#include "core/cardinality_encoding.h"
#include "ilp/audit.h"
#include "ilp/linear_system.h"
#include "ilp/simplex.h"
#include "workloads/generators.h"

namespace xicc {
namespace {

// ------------------------------------------------------- Anti-cycling.

/// The Beale/Chvátal cycling LP (Chvátal, "Linear Programming", ch. 3)
/// mapped into phase-1 form. The example's two cycling rows are scaled ×2
/// to integer coefficients, with x4/x5 playing the example's slack columns
/// as structural variables. Both rows are ≤ 0 rows, so their own slacks
/// seed the basis; each is a half-scaled copy of the x4/x5 column, so it
/// shares that column's reduced-cost sign, never beats it in pricing, and
/// ties in the ratio test exactly as x4/x5 would. The last row is a driver
/// equality with rhs 1 whose coefficients are the example's objective: its
/// artificial is the only one, so the initial phase-1 reduced-cost row is
/// the example's, and the crash — which only touches artificials at value
/// 0 — leaves the basis alone. The driver's ratio is always positive, so
/// every pivot of the cycle is degenerate in a ≤ row, and Dantzig pricing
/// (ratio ties to the sparser row, then the smaller basic index) revisits
/// the example's six bases forever; Bland's rule walks out in a handful of
/// pivots. x = (1, 0, 1, 0, 2, 0) is feasible.
LinearSystem CyclingFixture() {
  LinearSystem sys;
  for (int i = 0; i < 6; ++i) sys.AddVariable("x" + std::to_string(i));
  auto add_row = [&sys](std::initializer_list<int> coeffs, RelOp op,
                        int rhs) {
    LinearExpr expr;
    int var = 0;
    for (int c : coeffs) {
      if (c != 0) expr.Add(var, BigInt(c));
      ++var;
    }
    sys.AddConstraint(expr, op, BigInt(rhs));
  };
  add_row({1, -11, -5, 18, 2, 0}, RelOp::kLe, 0);
  add_row({1, -3, -1, 2, 0, 2}, RelOp::kLe, 0);
  add_row({10, -57, -9, -24, 0, 0}, RelOp::kEq, 1);
  return sys;
}

TEST(AntiCyclingTest, PureDantzigCyclesOnTheFixture) {
  LinearSystem sys = CyclingFixture();
  LpPricingConfig pure;
  pure.dantzig = true;
  pure.degenerate_streak_limit = 0;  // Fallback disabled.
  pure.pivot_cap = 1000;
  ScopedLpPricingConfig guard(pure);
  LpResult lp = SolveLpFeasibility(sys);
  // Without the fallback the solve spins on degenerate pivots until the cap
  // trips — the failure mode the fallback exists to rule out.
  EXPECT_TRUE(lp.pivot_cap_hit);
  EXPECT_TRUE(lp.aborted);
  EXPECT_EQ(lp.pivots, 1000u);
  EXPECT_EQ(lp.kernel.bland_fallbacks, 0u);
  // The crash left the fixture alone: every capped pivot was Dantzig's.
  EXPECT_EQ(lp.kernel.drive_out_pivots, 0u);
  EXPECT_EQ(lp.kernel.dantzig_pivots, 1000u);
}

TEST(AntiCyclingTest, DegeneracyFallbackTerminatesTheFixture) {
  LinearSystem sys = CyclingFixture();
  LpResult lp = SolveLpFeasibility(sys);  // Default pricing config.
  ASSERT_FALSE(lp.aborted);
  EXPECT_TRUE(lp.feasible);  // x = 0 satisfies every row.
  // The degeneracy streak must actually have fired the fallback, and the
  // fallback's Bland pivots finished the solve.
  EXPECT_GE(lp.kernel.bland_fallbacks, 1u);
  EXPECT_GE(lp.kernel.bland_pivots, 1u);
  EXPECT_EQ(lp.kernel.drive_out_pivots, 0u);
  EXPECT_EQ(lp.pivots, lp.kernel.dantzig_pivots + lp.kernel.bland_pivots);
}

TEST(AntiCyclingTest, BlandOnlyConfigTerminatesTheFixture) {
  LinearSystem sys = CyclingFixture();
  LpPricingConfig bland;
  bland.dantzig = false;
  ScopedLpPricingConfig guard(bland);
  LpResult lp = SolveLpFeasibility(sys);
  ASSERT_FALSE(lp.aborted);
  EXPECT_TRUE(lp.feasible);
  EXPECT_EQ(lp.kernel.dantzig_pivots, 0u);
  EXPECT_EQ(lp.kernel.drive_out_pivots, 0u);
  EXPECT_EQ(lp.pivots, lp.kernel.bland_pivots);
}

TEST(AntiCyclingTest, DenseReferenceAgreesOnTheFixture) {
  LinearSystem sys = CyclingFixture();
  LpResult dense = SolveLpFeasibilityDenseBland(sys);
  ASSERT_FALSE(dense.aborted);
  EXPECT_TRUE(dense.feasible);
}

// ------------------------------------------------- Differential fuzz.

/// True iff `values` (one Num per structural variable, all expected ≥ 0)
/// satisfies every constraint of `sys` exactly.
bool SatisfiesSystem(const LinearSystem& sys, const std::vector<Num>& values) {
  for (const Num& v : values) {
    if (v.sign() < 0) return false;
  }
  for (const LinearConstraint& c : sys.constraints()) {
    Num lhs;
    for (const auto& [var, coeff] : c.coeffs) {
      lhs += coeff * values[static_cast<size_t>(var)];
    }
    const Num& rhs = c.rhs;
    switch (c.op) {
      case RelOp::kLe:
        if (!(lhs <= rhs)) return false;
        break;
      case RelOp::kGe:
        if (!(lhs >= rhs)) return false;
        break;
      case RelOp::kEq:
        if (!(lhs == rhs)) return false;
        break;
    }
  }
  return true;
}

TEST(SimplexDifferentialTest, SparseKernelMatchesDenseBlandOnRandomSystems) {
  std::mt19937_64 rng(0x51CC);
  std::uniform_int_distribution<int> nvars(1, 4);
  std::uniform_int_distribution<int> nrows(1, 4);
  std::uniform_int_distribution<int> coef(-4, 4);
  std::uniform_int_distribution<int> rhs_val(-6, 6);
  std::uniform_int_distribution<int> op_kind(0, 2);

  size_t feasible = 0, infeasible = 0;
  constexpr int kTrials = 10000;
  for (int trial = 0; trial < kTrials; ++trial) {
    const int nv = nvars(rng);
    const int nr = nrows(rng);
    LinearSystem sys;
    for (int v = 0; v < nv; ++v) sys.AddVariable("x" + std::to_string(v));
    for (int r = 0; r < nr; ++r) {
      LinearExpr expr;
      for (int v = 0; v < nv; ++v) {
        const int c = coef(rng);
        if (c != 0) expr.Add(v, BigInt(c));
      }
      const int k = op_kind(rng);
      const RelOp op =
          k == 0 ? RelOp::kLe : (k == 1 ? RelOp::kGe : RelOp::kEq);
      sys.AddConstraint(expr, op, BigInt(rhs_val(rng)));
    }

    LpResult sparse = SolveLpFeasibility(sys);
    LpResult dense = SolveLpFeasibilityDenseBland(sys);
    ASSERT_FALSE(sparse.aborted) << "trial " << trial;
    ASSERT_FALSE(dense.aborted) << "trial " << trial;
    ASSERT_EQ(sparse.feasible, dense.feasible)
        << "verdict divergence at trial " << trial << ":\n"
        << sys.ToString();
    if (sparse.feasible) {
      ++feasible;
      ASSERT_TRUE(SatisfiesSystem(sys, sparse.values))
          << "sparse vertex violates the system at trial " << trial << ":\n"
          << sys.ToString();
      ASSERT_TRUE(SatisfiesSystem(sys, dense.values))
          << "dense vertex violates the system at trial " << trial << ":\n"
          << sys.ToString();
    } else {
      ++infeasible;
    }
    // The split instrumentation must always reconcile with the total.
    ASSERT_EQ(sparse.pivots, sparse.kernel.dantzig_pivots +
                                 sparse.kernel.bland_pivots +
                                 sparse.kernel.drive_out_pivots)
        << "trial " << trial;
  }
  // Both verdicts must actually be exercised, or the generator is broken.
  EXPECT_GT(feasible, 0u);
  EXPECT_GT(infeasible, 0u);
}

TEST(SimplexDifferentialTest, WarmDualReSolveMatchesColdOnAppendedRows) {
  // Random feasible prefixes, then 1–3 appended rows of every RelOp: the
  // warm dual re-solve from the prefix's exported tableau must reach the
  // cold verdict, and every kept (kOk, feasible) tableau must pass the
  // tableau auditor — called directly, so plain builds check it too.
  std::mt19937_64 rng(0xD0A1);
  std::uniform_int_distribution<int> nvars(1, 4);
  std::uniform_int_distribution<int> nrows(1, 4);
  std::uniform_int_distribution<int> nappend(1, 3);
  std::uniform_int_distribution<int> coef(-4, 4);
  std::uniform_int_distribution<int> rhs_val(-6, 6);
  std::uniform_int_distribution<int> op_kind(0, 2);
  auto random_row = [&](LinearSystem* sys, int nv, RelOp op) {
    LinearExpr expr;
    for (int v = 0; v < nv; ++v) {
      const int c = coef(rng);
      if (c != 0) expr.Add(v, BigInt(c));
    }
    sys->AddConstraint(expr, op, BigInt(rhs_val(rng)));
  };
  auto random_op = [&] {
    const int k = op_kind(rng);
    return k == 0 ? RelOp::kLe : (k == 1 ? RelOp::kGe : RelOp::kEq);
  };

  size_t appended_by_op[3] = {0, 0, 0};
  size_t warm_feasible = 0, warm_infeasible = 0;
  constexpr int kTrials = 4000;
  for (int trial = 0; trial < kTrials; ++trial) {
    const int nv = nvars(rng);
    LinearSystem sys;
    for (int v = 0; v < nv; ++v) sys.AddVariable("x" + std::to_string(v));
    const int nr = nrows(rng);
    for (int r = 0; r < nr; ++r) random_row(&sys, nv, random_op());
    LpTableau tab;
    if (!SolveLpFeasibility(sys, &tab).feasible) continue;
    ASSERT_TRUE(AuditTableau(sys, tab).empty()) << "trial " << trial;

    const int na = nappend(rng);
    for (int r = 0; r < na; ++r) {
      const RelOp op = random_op();
      ++appended_by_op[static_cast<int>(op)];
      random_row(&sys, nv, op);
    }
    const LpResult cold = SolveLpFeasibility(sys);
    const WarmResult warm = ReSolveLpFeasibilityDual(sys, &tab);
    ASSERT_NE(warm.status, WarmStatus::kPivotLimit) << "trial " << trial;
    ASSERT_NE(warm.status, WarmStatus::kAborted) << "trial " << trial;
    if (warm.status != WarmStatus::kOk) continue;  // Callers go cold.
    ASSERT_EQ(warm.lp.feasible, cold.feasible)
        << "warm/cold divergence at trial " << trial << ":\n"
        << sys.ToString();
    if (!warm.lp.feasible) {
      ++warm_infeasible;
      continue;
    }
    ++warm_feasible;
    ASSERT_TRUE(SatisfiesSystem(sys, warm.lp.values))
        << "warm vertex violates the system at trial " << trial << ":\n"
        << sys.ToString();
    const std::vector<std::string> violations = AuditTableau(sys, tab);
    ASSERT_TRUE(violations.empty())
        << "trial " << trial << ": " << violations.front();
    ASSERT_EQ(tab.num_constraints, sys.NumConstraints());
  }
  for (size_t count : appended_by_op) EXPECT_GT(count, 0u);
  EXPECT_GT(warm_feasible, 0u);
  EXPECT_GT(warm_infeasible, 0u);
}

/// A random system of Ψ(D,Σ)'s shape: mostly homogeneous count equalities
/// of two or three terms, some homogeneous bounds, the odd negated-key row
/// (≤ −1), and one pin row with a positive rhs, like ext(r) = 1.
LinearSystem RandomPsiShapedSystem(std::mt19937_64& rng) {
  std::uniform_int_distribution<int> nvars(3, 8);
  std::uniform_int_distribution<int> nrows(3, 8);
  std::uniform_int_distribution<int> nterms(2, 3);
  std::uniform_int_distribution<int> percent(0, 99);
  std::uniform_int_distribution<int> magnitude(1, 2);
  std::uniform_int_distribution<int> pin_rhs(1, 2);
  const int nv = nvars(rng);
  const int nr = nrows(rng);
  std::uniform_int_distribution<int> var(0, nv - 1);
  std::uniform_int_distribution<int> pin_at(0, nr - 1);
  const int pin = pin_at(rng);
  LinearSystem sys;
  for (int v = 0; v < nv; ++v) sys.AddVariable("x" + std::to_string(v));
  for (int r = 0; r < nr; ++r) {
    LinearExpr expr;
    const int terms = r == pin ? 1 : nterms(rng);
    for (int t = 0; t < terms; ++t) {
      const int sign = t == 0 || percent(rng) < 30 ? 1 : -1;
      expr.Add(var(rng), BigInt(sign * magnitude(rng)));
    }
    const int kind = percent(rng);
    if (r == pin) {
      sys.AddConstraint(expr, RelOp::kEq, BigInt(pin_rhs(rng)));
    } else if (kind < 70) {
      sys.AddConstraint(expr, RelOp::kEq, BigInt(0));
    } else if (kind < 95) {
      sys.AddConstraint(expr, kind < 85 ? RelOp::kLe : RelOp::kGe,
                        BigInt(0));
    } else {
      sys.AddConstraint(expr, RelOp::kLe, BigInt(-1));
    }
  }
  return sys;
}

TEST(SimplexDifferentialTest, CrashedKernelMatchesDenseBlandOnPsiShapes) {
  // The crash pivots most of these rows before pricing sees them. Verdicts
  // must match the dense-Bland reference, feasible vertices must satisfy
  // the system exactly, the exported (crashed) basis must audit clean, and
  // a warm re-solve of appended rows from it must reach the cold verdict.
  std::mt19937_64 rng(0x9517);
  std::uniform_int_distribution<int> nappend(1, 3);
  std::uniform_int_distribution<int> percent(0, 99);
  size_t feasible = 0, infeasible = 0, warm_compared = 0;
  size_t drive_out_pivots = 0;
  constexpr int kTrials = 4000;
  for (int trial = 0; trial < kTrials; ++trial) {
    LinearSystem sys = RandomPsiShapedSystem(rng);
    LpTableau tab;
    const LpResult sparse = SolveLpFeasibility(sys, &tab);
    const LpResult dense = SolveLpFeasibilityDenseBland(sys);
    ASSERT_FALSE(sparse.aborted) << "trial " << trial;
    ASSERT_FALSE(dense.aborted) << "trial " << trial;
    ASSERT_EQ(sparse.feasible, dense.feasible)
        << "verdict divergence at trial " << trial << ":\n"
        << sys.ToString();
    ASSERT_EQ(sparse.pivots, sparse.kernel.dantzig_pivots +
                                 sparse.kernel.bland_pivots +
                                 sparse.kernel.drive_out_pivots)
        << "trial " << trial;
    drive_out_pivots += sparse.kernel.drive_out_pivots;
    if (!sparse.feasible) {
      ++infeasible;
      continue;
    }
    ++feasible;
    ASSERT_TRUE(SatisfiesSystem(sys, sparse.values))
        << "crashed vertex violates the system at trial " << trial << ":\n"
        << sys.ToString();
    const std::vector<std::string> exported = AuditTableau(sys, tab);
    ASSERT_TRUE(exported.empty())
        << "trial " << trial << ": " << exported.front();

    // C_Σ-like appended rows: two-term homogeneous rows of every RelOp, and
    // now and then a negated-key or pin-like rhs.
    const int na = nappend(rng);
    const size_t nv = sys.NumVariables();
    std::uniform_int_distribution<size_t> var(0, nv - 1);
    for (int r = 0; r < na; ++r) {
      LinearExpr expr;
      expr.Add(var(rng), BigInt(1)).Add(var(rng), BigInt(-1));
      const int kind = percent(rng);
      const RelOp op = kind < 40 ? RelOp::kLe
                                 : (kind < 70 ? RelOp::kGe : RelOp::kEq);
      const int rhs = percent(rng) < 80 ? 0 : (kind % 2 == 0 ? 1 : -1);
      sys.AddConstraint(expr, op, BigInt(rhs));
    }
    const LpResult cold = SolveLpFeasibility(sys);
    const WarmResult warm = ReSolveLpFeasibilityDual(sys, &tab);
    ASSERT_NE(warm.status, WarmStatus::kPivotLimit) << "trial " << trial;
    ASSERT_NE(warm.status, WarmStatus::kAborted) << "trial " << trial;
    if (warm.status != WarmStatus::kOk) continue;  // Redundant row: cold.
    ++warm_compared;
    ASSERT_EQ(warm.lp.feasible, cold.feasible)
        << "warm/cold divergence at trial " << trial << ":\n"
        << sys.ToString();
    if (!warm.lp.feasible) continue;
    ASSERT_TRUE(SatisfiesSystem(sys, warm.lp.values))
        << "warm vertex violates the system at trial " << trial << ":\n"
        << sys.ToString();
    const std::vector<std::string> violations = AuditTableau(sys, tab);
    ASSERT_TRUE(violations.empty())
        << "trial " << trial << ": " << violations.front();
  }
  EXPECT_GT(feasible, 0u);
  EXPECT_GT(infeasible, 0u);
  EXPECT_GT(warm_compared, 0u);
  EXPECT_GT(drive_out_pivots, 0u);
}

// ------------------------------------------------------------- Crash.

TEST(CrashTest, AllHomogeneousSystemNeedsNoPricingPivots) {
  // Every rhs is 0 and no row is redundant: row i (i < 5) is
  // x_i − x_{i+1} − x_{i+2} = 0, triangular in x_i, and three bounds
  // x_i − x_7 ≥ 0 each own a surplus column. The crash retires all eight
  // artificials, which leaves phase 1 optimal at once: no row is priced.
  LinearSystem sys;
  for (int v = 0; v < 8; ++v) sys.AddVariable("x" + std::to_string(v));
  for (int i = 0; i < 5; ++i) {
    LinearExpr expr;
    expr.Add(i, BigInt(1)).Add(i + 1, BigInt(-1)).Add(i + 2, BigInt(-1));
    sys.AddConstraint(expr, RelOp::kEq, BigInt(0));
  }
  for (int i : {0, 3, 5}) {
    LinearExpr expr;
    expr.Add(i, BigInt(1)).Add(7, BigInt(-1));
    sys.AddConstraint(expr, RelOp::kGe, BigInt(0));
  }
  LpTableau tab;
  const LpResult lp = SolveLpFeasibility(sys, &tab);
  ASSERT_FALSE(lp.aborted);
  ASSERT_TRUE(lp.feasible);
  EXPECT_EQ(lp.kernel.dantzig_pivots, 0u);
  EXPECT_EQ(lp.kernel.bland_pivots, 0u);
  EXPECT_EQ(lp.kernel.drive_out_pivots, 8u);
  EXPECT_EQ(lp.pivots, 8u);
  EXPECT_TRUE(SatisfiesSystem(sys, lp.values));
  for (int b : tab.basis) EXPECT_GE(b, 0);  // Artificial-free export.
  EXPECT_TRUE(AuditTableau(sys, tab).empty());
}

TEST(CrashTest, LipRootLpFillInStaysFarBelowThePricingOnlyKernel) {
  // Fill guard on the root LP of a fixed 10×10 LIP encoding — the shape
  // perfbench's lip_hard checks: 448 rows, 337 of them homogeneous
  // equalities. Without the crash, pricing alone left 452,754 fill-in
  // cells (497 pivots); the crash and the sparse ratio tie-break leave
  // about 83k.
  workloads::LipEncoding lip = workloads::EncodeLipAsConsistency(
      workloads::RandomLip(/*seed=*/1, /*rows=*/10, /*cols=*/10,
                           /*ones_per_row=*/3));
  Result<CardinalityEncoding> encoding =
      BuildCardinalityEncoding(lip.dtd, lip.sigma.Normalize());
  ASSERT_TRUE(encoding.ok()) << encoding.status();
  LpTableau tab;
  const LpResult lp = SolveLpFeasibility(encoding->system, &tab);
  ASSERT_FALSE(lp.aborted);
  ASSERT_TRUE(lp.feasible);
  EXPECT_GE(lp.kernel.drive_out_pivots, 300u);
  EXPECT_LT(lp.kernel.dantzig_pivots + lp.kernel.bland_pivots, 60u);
  EXPECT_LT(lp.kernel.fill_in, 150'000u);
  EXPECT_TRUE(SatisfiesSystem(encoding->system, lp.values));
  EXPECT_TRUE(AuditTableau(encoding->system, tab).empty());
}

// ------------------------------------------------------ Instrumentation.

TEST(SparseKernelStatsTest, DensityCountersMatchTheSystem) {
  // x0 + x1 <= 5 and x0 - x2 >= 1: the ≥ row needs an artificial; the
  // initial constraint block is 2 rows × (3 structural + 2 slack + 1
  // artificial) = 12 cells, of which the nonzeros are 2 structural + 1
  // slack in row 0 and 2 structural + 1 slack + 1 artificial in row 1.
  LinearSystem sys;
  VarId x0 = sys.AddVariable("x0");
  VarId x1 = sys.AddVariable("x1");
  sys.AddVariable("x2");
  LinearExpr a;
  a.Add(x0, BigInt(1)).Add(x1, BigInt(1));
  sys.AddConstraint(a, RelOp::kLe, BigInt(5));
  LinearExpr b;
  b.Add(x0, BigInt(1)).Add(2, BigInt(-1));
  sys.AddConstraint(b, RelOp::kGe, BigInt(1));

  LpResult lp = SolveLpFeasibility(sys);
  ASSERT_TRUE(lp.feasible);
  EXPECT_EQ(lp.kernel.total_cells, 12u);
  EXPECT_EQ(lp.kernel.nnz_cells, 7u);
  EXPECT_EQ(sys.NumNonzeros(), 4u);
  // These tiny coefficients never leave the int64 fast lane.
  EXPECT_EQ(lp.kernel.fast_row_promotions, 0u);
  EXPECT_GT(lp.kernel.fast_rows, 0u);
}

TEST(SparseKernelStatsTest, ScopedPricingConfigRestores) {
  const LpPricingConfig before = GetLpPricingConfig();
  {
    LpPricingConfig override_config;
    override_config.dantzig = false;
    override_config.pivot_cap = 7;
    ScopedLpPricingConfig guard(override_config);
    EXPECT_FALSE(GetLpPricingConfig().dantzig);
    EXPECT_EQ(GetLpPricingConfig().pivot_cap, 7u);
  }
  EXPECT_EQ(GetLpPricingConfig().dantzig, before.dantzig);
  EXPECT_EQ(GetLpPricingConfig().pivot_cap, before.pivot_cap);
}

}  // namespace
}  // namespace xicc
