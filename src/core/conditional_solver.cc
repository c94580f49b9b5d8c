#include "core/conditional_solver.h"

#include <atomic>
#include <chrono>
#include <optional>
#include <utility>

#include "base/debug.h"
#include "base/thread_annotations.h"
#include "base/worksteal.h"
#include "ilp/audit.h"
#include "ilp/simplex.h"

namespace xicc {

namespace {

/// Search state shared by every DFS worker of one solve — a single worker
/// sequentially (num_threads = 1), or one per fanned-out prefix in the
/// parallel regime. Only the node counter and the terminal flags are
/// contended; per-worker counters are accumulated locally and merged once
/// per task.
struct SearchShared {
  const std::vector<Conditional>* active = nullptr;
  IlpOptions options;
  /// Armed stop signal shared by every worker (null when unarmed); points at
  /// the solver's options, which outlive the search.
  const StopSignal* stop = nullptr;
  std::atomic<size_t> nodes{0};
  std::atomic<bool> found{false};
  std::atomic<bool> budget_hit{false};
  std::atomic<bool> failed{false};
  /// The stop signal fired somewhere in the search — deadline expiry, an
  /// external cancel, or a leaf solve observing either. Not a failure: the
  /// final status comes from the signal, with partial statistics attached.
  std::atomic<bool> stopped{false};
  Mutex mu;  // xicc-analyze: lock-leaf
  /// `solution` carries feasible + values only (its counters are assembled
  /// by the solver); `error` is the first leaf failure.
  IlpSolution solution XICC_GUARDED_BY(mu);
  Status error XICC_GUARDED_BY(mu);
  /// The work of the prefix tasks that ran on pool threads, each merged
  /// once when its task ends — never inside a pivot loop.
  SearchCounters pooled XICC_GUARDED_BY(mu);
};

/// One case-split DFS over a private trail-managed system. Resolutions are
/// pushed/popped on the trail — O(1) amortized per node instead of an
/// O(rows) system copy — and each node's LP prune warm starts from the
/// parent's basis; the basis that survives the prune then seeds the leaf
/// ILP's root.
class SplitWorker {
 public:
  SplitWorker(SearchShared* shared, LinearSystem* system)
      : shared_(shared), system_(system) {}

  /// Resolves conditionals from index `depth` on; `system_` carries the
  /// resolutions made so far, `parent` the basis of the node above (null →
  /// cold).
  void Explore(size_t depth, const LpTableau* parent) {
    if (Done()) return;
    if (shared_->stop != nullptr && shared_->stop->ShouldStop()) {
      shared_->stopped.store(true, std::memory_order_relaxed);
      return;
    }
    XICC_DCHECK_AUDIT(AuditTrail(*system_));
    size_t node = shared_->nodes.fetch_add(1, std::memory_order_relaxed) + 1;
    if (shared_->options.max_nodes != 0 &&
        node > shared_->options.max_nodes) {
      shared_->budget_hit.store(true, std::memory_order_relaxed);
      return;
    }

    // LP pruning: if even the relaxation (ignoring unresolved conditionals)
    // is infeasible, no resolution below can succeed.
    LpTableau tab;
    bool have_tab = false;
    if (parent != nullptr && shared_->options.warm_start) {
      tab = *parent;
      WarmResult warm =
          ReSolveLpFeasibilityDual(*system_, &tab, shared_->stop);
      counters.AddLp(warm.lp);
      if (warm.status == WarmStatus::kAborted) {
        shared_->stopped.store(true, std::memory_order_relaxed);
        return;
      }
      if (warm.status == WarmStatus::kOk) {
        ++counters.warm_starts;
        if (!warm.lp.feasible) return;
        have_tab = true;
      }
    }
    if (!have_tab) {
      ++counters.cold_restarts;
      LpResult lp = SolveLpFeasibility(*system_, &tab, shared_->stop);
      counters.AddLp(lp);
      if (lp.aborted) {
        shared_->stopped.store(true, std::memory_order_relaxed);
        return;
      }
      if (!lp.feasible) return;
    }

    if (depth == shared_->active->size()) {
      // Fully resolved: the conditionals now hold for *any* solution of
      // `system`, so plain integer feasibility decides this leaf — its root
      // LP warm-seeded from the pruning basis just computed.
      IlpOptions leaf_options = shared_->options;
      IlpSolution leaf_partial;
      leaf_options.partial = &leaf_partial;
      Result<IlpSolution> leaf = SolveIlp(*system_, leaf_options, &tab);
      if (!leaf.ok()) {
        // A stopped leaf is the search being stopped, not failing: keep the
        // work it did (merged with this worker's counters) and let the
        // solver report the stop status with partial statistics.
        const StatusCode code = leaf.status().code();
        if (code == StatusCode::kDeadlineExceeded ||
            code == StatusCode::kCancelled) {
          counters.Add(leaf_partial);
          MutexLock lock(&shared_->mu);
          if (shared_->error.ok()) shared_->error = leaf.status();
          shared_->stopped.store(true, std::memory_order_relaxed);
          return;
        }
        MutexLock lock(&shared_->mu);
        if (shared_->error.ok()) shared_->error = leaf.status();
        shared_->failed.store(true, std::memory_order_relaxed);
        return;
      }
      counters.Add(*leaf);
      if (leaf->feasible) {
        MutexLock lock(&shared_->mu);
        if (!shared_->found.load(std::memory_order_relaxed)) {
          shared_->solution.feasible = true;
          shared_->solution.values = std::move(leaf->values);
          shared_->found.store(true, std::memory_order_relaxed);
        }
      }
      return;
    }

    const Conditional& cond = (*shared_->active)[depth];

    // Branch 1: conclusion ≥ 1 (the conditional is discharged outright).
    system_->PushCheckpoint();
    system_->AddConstraint(cond.conclusion, RelOp::kGe, BigInt(1));
    Explore(depth + 1, &tab);
    system_->PopCheckpoint();
    if (Done()) return;
    // Branch 2: premise = 0 (the premise is false; over nonnegative
    // variables this pins every term of the premise to zero).
    system_->PushCheckpoint();
    system_->AddConstraint(cond.premise, RelOp::kEq, BigInt(0));
    Explore(depth + 1, &tab);
    system_->PopCheckpoint();
  }

  /// This worker's counters (case-split nodes excepted: those are the
  /// shared `nodes`), merged by the caller after the task finishes. The
  /// traffic fields sum the leaf solves' own slices; the caller replaces
  /// them with the delta measured around the whole task.
  SearchCounters counters;

 private:
  bool Done() const {
    return shared_->found.load(std::memory_order_relaxed) ||
           shared_->failed.load(std::memory_order_relaxed) ||
           shared_->budget_hit.load(std::memory_order_relaxed) ||
           shared_->stopped.load(std::memory_order_relaxed);
  }

  SearchShared* shared_;
  LinearSystem* system_;
};

class CaseSplitSolver {
 public:
  /// Copying mode: the solver works on a private copy of `base`.
  CaseSplitSolver(const LinearSystem& base,
                  const std::vector<Conditional>& conditionals,
                  const IlpOptions& options, CaseSplitWarmContext* warm)
      : owned_(base),
        work_(&*owned_),
        conditionals_(conditionals),
        options_(options),
        warm_(warm) {}

  /// In-place mode: the solver appends onto `*base`'s trail. The caller owns
  /// the enclosing checkpoint that rolls those rows back.
  CaseSplitSolver(LinearSystem* base,
                  const std::vector<Conditional>& conditionals,
                  const IlpOptions& options, CaseSplitWarmContext* warm)
      : work_(base),
        conditionals_(conditionals),
        options_(options),
        warm_(warm) {}

  Result<IlpSolution> Run() {
    start_ = std::chrono::steady_clock::now();
    if (options_.stop.Armed()) stop_ = &options_.stop;
    // Two-tier arithmetic + arena traffic: everything this solve does on the
    // calling thread (leaf ILPs, presolve probes, the sequential DFS) lands
    // in this thread's counters, so one delta at the end captures it without
    // double-counting the nested SolveIlp's own accounting. Pool tasks
    // measure their own thread-local deltas (see RunSearch).
    traffic_ = ThreadTraffic();

    // The base basis: factorized cold exactly once — taken from the caller's
    // cross-round context when available (the connectivity-cut loop re-enters
    // here with the same base every round), solved otherwise. It warm-seeds
    // the optimistic leaf, the presolve probes, and the DFS root alike.
    // On the warm path the leaf reads the context's basis in place — no
    // copy. `base_tab` (the solver's own mutable basis for presolve and the
    // DFS) is only materialized if the leaf fails to settle the query, which
    // keeps the common consistent-spec round at a single tableau duplication
    // (the leaf root's).
    LpTableau base_tab;
    const LpTableau* base_ro = nullptr;
    bool tab_ok = false;
    if (options_.warm_start && warm_ != nullptr && warm_->valid) {
      XICC_DCHECK_AUDIT(AuditTableau(*work_, warm_->base_tableau));
      base_ro = &warm_->base_tableau;
      tab_ok = true;
    } else {
      ++counters_.cold_restarts;
      LpResult lp = SolveLpFeasibility(*work_, &base_tab, stop_);
      counters_.AddLp(lp);
      if (lp.aborted) return NoVerdict(stop_->ToStatus());
      if (!lp.feasible) return Finish(IlpSolution());
      tab_ok = true;
      base_ro = &base_tab;
      if (warm_ != nullptr) {
        warm_->base_tableau = base_tab;
        warm_->valid = true;
      }
    }

    // Optimistic leaf: resolve every conditional to its conclusion ≥ 1 and
    // try that single system first. Consistent specifications normally
    // populate all their element types, so this one ILP call settles them
    // without touching the exponential split.
    {
      work_->PushCheckpoint();
      for (const Conditional& cond : conditionals_) {
        work_->AddConstraint(cond.conclusion, RelOp::kGe, BigInt(1));
      }
      IlpOptions leaf_options = options_;
      // Private partial sink: a stopped leaf's work must fold into THIS
      // solver's totals before they reach the caller's partial pointer.
      IlpSolution leaf_partial;
      leaf_options.partial = &leaf_partial;
      Result<IlpSolution> leaf =
          SolveIlp(*work_, leaf_options, tab_ok ? base_ro : nullptr);
      work_->PopCheckpoint();
      if (!leaf.ok()) {
        counters_.Add(leaf_partial);
        return NoVerdict(leaf.status());
      }
      counters_.Add(*leaf);
      if (leaf->feasible) return Finish(std::move(*leaf));
    }

    // The split machinery below mutates its basis (presolve extends it over
    // forced rows); give it a private copy if it is still aliasing the
    // caller's context.
    if (base_ro != &base_tab) base_tab = *base_ro;

    // Presolve: a conditional whose premise cannot vanish (base + premise=0
    // is LP-infeasible) has a forced conclusion; install it as a hard row
    // and drop the conditional from the exponential split. Typical win:
    // ext(τ) of unavoidable element types, which the DTD pins ≥ 1. Each
    // probe is a push/solve/pop round on the one working system, re-solved
    // warm from the base basis.
    for (const Conditional& cond : conditionals_) {
      if (stop_ != nullptr && stop_->ShouldStop()) {
        return NoVerdict(stop_->ToStatus());
      }
      work_->PushCheckpoint();
      work_->AddConstraint(cond.premise, RelOp::kEq, BigInt(0));
      bool premise_can_vanish = ProbeLp(base_tab, tab_ok);
      work_->PopCheckpoint();
      if (stopped_) return NoVerdict(stop_->ToStatus());
      if (premise_can_vanish) {
        active_.push_back(cond);
        continue;
      }
      work_->AddConstraint(cond.conclusion, RelOp::kGe, BigInt(1));
      if (tab_ok && options_.warm_start) {
        // Extend the working basis over the freshly forced row so later
        // probes and the DFS root stay warm. The re-solve runs on a copy
        // that replaces the basis only on a feasible verdict; on failure the
        // basis simply keeps covering its old prefix (still a valid warm
        // seed).
        LpTableau extended = base_tab;
        WarmResult warm = ReSolveLpFeasibilityDual(*work_, &extended, stop_);
        counters_.AddLp(warm.lp);
        if (warm.status == WarmStatus::kAborted) {
          return NoVerdict(stop_->ToStatus());
        }
        if (warm.status == WarmStatus::kOk) {
          ++counters_.warm_starts;
          // Forced conclusions hold in every solution satisfying the
          // conditionals, so their joint infeasibility settles the verdict.
          if (!warm.lp.feasible) return Finish(IlpSolution());
          base_tab = std::move(extended);
        }
      }
    }

    // The (possibly parallel) case-split DFS over the surviving
    // conditionals.
    SearchShared shared;
    shared.active = &active_;
    shared.options = options_;
    shared.stop = stop_;
    // DFS leaf solves may run on pool threads — a shared partial sink would
    // race; workers keep private ones.
    shared.options.partial = nullptr;
    RunSearch(&base_tab, tab_ok, &shared);
    counters_.ilp_nodes += shared.nodes.load();
    XICC_DCHECK_AUDIT(AuditTrail(*work_));

    if (shared.found.load()) {
      // All workers have exited (pool.Wait / sequential return), but the
      // annotated discipline still wants the lock for the guarded move.
      MutexLock lock(&shared.mu);
      return Finish(std::move(shared.solution));
    }
    if (shared.failed.load()) {
      MutexLock lock(&shared.mu);
      return shared.error;
    }
    if (shared.stopped.load()) {
      // A worker observed the stop (or a leaf returned a stop status, kept
      // in shared.error). The signal's own status wins so the caller sees
      // why the check has no verdict.
      Status status;
      {
        MutexLock lock(&shared.mu);
        status = !shared.error.ok()
                     ? shared.error
                     : (stop_ != nullptr
                            ? stop_->ToStatus()
                            : Status::Cancelled("case-split was stopped"));
      }
      return NoVerdict(status);
    }
    if (shared.budget_hit.load()) {
      return NoVerdict(Status::ResourceExhausted(
          "conditional case-split exceeded node budget"));
    }
    return Finish(IlpSolution());
  }

 private:
  /// LP feasibility of the current work_ state, warm from `base_tab` when
  /// usable; used by the presolve probes (verdict only, no tableau kept).
  bool ProbeLp(const LpTableau& base_tab, bool tab_ok) {
    if (tab_ok && options_.warm_start) {
      LpTableau probe = base_tab;
      WarmResult warm = ReSolveLpFeasibilityDual(*work_, &probe, stop_);
      counters_.AddLp(warm.lp);
      if (warm.status == WarmStatus::kAborted) {
        stopped_ = true;
        return false;  // Meaningless; the caller checks stopped_ first.
      }
      if (warm.status == WarmStatus::kOk) {
        ++counters_.warm_starts;
        return warm.lp.feasible;
      }
    }
    ++counters_.cold_restarts;
    LpResult lp = SolveLpFeasibility(*work_, nullptr, stop_);
    counters_.AddLp(lp);
    if (lp.aborted) {
      stopped_ = true;
      return false;
    }
    return lp.feasible;
  }

  /// Runs the case-split DFS and merges its workers' counters: a
  /// calling-thread worker into counters_, the pool tasks into pooled_.
  void RunSearch(LpTableau* root_tab, bool tab_ok, SearchShared* shared) {
    const LpTableau* root = tab_ok ? root_tab : nullptr;
    const size_t threads = options_.num_threads;
    if (threads <= 1 || active_.size() < 2) {
      SplitWorker worker(shared, work_);
      worker.Explore(0, root);
      counters_.Add(worker.counters);
      return;
    }

    // Fan the first `levels` resolutions out as 2^levels prefix tasks on a
    // work-stealing pool; each task owns a private copy of the system and
    // runs the deeper levels sequential-warm-started. One extra level past
    // log2(threads) oversubscribes the pool so an uneven subtree cannot
    // leave workers idle.
    size_t levels = 1;
    while (levels < active_.size() && (size_t{1} << levels) < 2 * threads) {
      ++levels;
    }
    if (levels > active_.size()) levels = active_.size();
    const size_t num_tasks = size_t{1} << levels;
    {
      // Constructed with the solve's cancel token (when any): Cancel() then
      // wakes parked workers and the pool drains unstarted prefix tasks
      // without running them — the fan-out itself honors the stop.
      WorkStealingPool pool(threads,
                            stop_ != nullptr ? stop_->cancel : nullptr);
      for (size_t mask = 0; mask < num_tasks; ++mask) {
        // Bit i of `mask` picks conditional i's resolution; enumeration
        // order matches the sequential DFS (conclusion side first).
        pool.Submit([this, mask, levels, root, shared] {
          if (shared->found.load(std::memory_order_relaxed) ||
              shared->failed.load(std::memory_order_relaxed) ||
              shared->budget_hit.load(std::memory_order_relaxed) ||
              shared->stopped.load(std::memory_order_relaxed)) {
            return;
          }
          if (shared->stop != nullptr && shared->stop->ShouldStop()) {
            shared->stopped.store(true, std::memory_order_relaxed);
            return;
          }
          // Several tasks run back-to-back on one pool thread, so each
          // measures its own slice of the thread's traffic.
          const ThreadTraffic traffic;
          LinearSystem local = *work_;
          for (size_t level = 0; level < levels; ++level) {
            const Conditional& cond = active_[level];
            if ((mask >> level) & 1) {
              local.AddConstraint(cond.premise, RelOp::kEq, BigInt(0));
            } else {
              local.AddConstraint(cond.conclusion, RelOp::kGe, BigInt(1));
            }
          }
          SplitWorker worker(shared, &local);
          worker.Explore(levels, root);
          traffic.MeasureInto(&worker.counters);
          MutexLock lock(&shared->mu);
          shared->pooled.Add(worker.counters);
        });
      }
      pool.Wait();
    }
    MutexLock lock(&shared->mu);
    pooled_ = shared->pooled;
  }

  /// Everything counted so far, as this solver reports it into `out`: the
  /// merged counters, with the calling thread's traffic since Run() started
  /// (every nested same-thread solve's slice counted once) plus the pool
  /// tasks' own, and the elapsed wall time.
  IlpSolution Finish(IlpSolution out) const {
    static_cast<SearchCounters&>(out) = counters_;
    traffic_.MeasureInto(&out);
    out.Add(pooled_);
    out.ilp_wall_ms =
        std::chrono::duration<double, std::milli>(  // xicc-lint: allow(exact-arithmetic)
            std::chrono::steady_clock::now() - start_)
            .count();
    return out;
  }

  /// The no-verdict exit: `status` says why there is no answer, and the
  /// caller's partial sink (when given) receives everything counted so far
  /// — the work already done is part of the contract.
  Status NoVerdict(Status status) const {
    if (options_.partial != nullptr) *options_.partial = Finish(IlpSolution());
    return status;
  }

  std::optional<LinearSystem> owned_;  // Copying mode only.
  LinearSystem* work_;                 // Points at owned_ or the caller's.
  const std::vector<Conditional>& conditionals_;
  std::vector<Conditional> active_;  // Survivors of presolve.
  IlpOptions options_;
  CaseSplitWarmContext* warm_;
  /// Non-null iff options_.stop is armed; points into options_.
  const StopSignal* stop_ = nullptr;
  /// Set when a presolve-phase LP solve was aborted by the stop signal
  /// (ProbeLp cannot return the fact any other way).
  bool stopped_ = false;

  std::chrono::steady_clock::time_point start_;
  /// Counters of the work done on the calling thread (base LP, optimistic
  /// leaf, presolve, a sequential DFS) and the case-split nodes; their
  /// traffic fields are superseded by traffic_ (see Finish).
  SearchCounters counters_;
  /// The parallel DFS's pool tasks, each with its own thread's traffic.
  SearchCounters pooled_;
  ThreadTraffic traffic_;
};

}  // namespace

Result<IlpSolution> SolveWithConditionals(
    const LinearSystem& base, const std::vector<Conditional>& conditionals,
    const IlpOptions& options, CaseSplitWarmContext* warm) {
  CaseSplitSolver solver(base, conditionals, options, warm);
  return solver.Run();
}

Result<IlpSolution> SolveWithConditionalsInPlace(
    LinearSystem* base, const std::vector<Conditional>& conditionals,
    const IlpOptions& options, CaseSplitWarmContext* warm) {
  // One enclosing checkpoint rolls back everything the solver appends —
  // including presolve's forced-conclusion rows, which land outside the
  // solver's own per-branch checkpoints by design (they hold for the whole
  // solve, but not beyond it).
  TrailScope scope(base);
  CaseSplitSolver solver(base, conditionals, options, warm);
  return solver.Run();
}

}  // namespace xicc
