#pragma once

// Internal to src/core: the glue around the Figure-5 decision procedures
// that the one-shot API (CheckConsistency / CheckImplication) and
// SpecSession share. Each caller supplies only what genuinely differs —
// whether compiled content models are at hand, how Lemma 3.6's "can τ occur
// twice" is answered, and how Σ ∪ {¬φ} is checked — so verdicts, methods,
// explanations, and witness verification cannot drift between the two.

#include <functional>
#include <string>

#include "constraints/constraint.h"
#include "core/consistency.h"
#include "core/encoding_solver.h"
#include "core/implication.h"
#include "dtd/compiled.h"
#include "dtd/dtd.h"
#include "xml/tree.h"

namespace xicc {

/// Verdict explanations every consistency path reports identically.
inline constexpr char kNoValidTreeExplanation[] =
    "no finite tree conforms to the DTD (the root element type cannot derive "
    "a finite document)";
inline constexpr char kMinimumSizeExplanation[] =
    "the DTD admits no document with the requested minimum size";
inline constexpr char kCardinalityExplanation[] =
    "the cardinality system Ψ(D,Σ) has no solution over the nonnegative "
    "integers (Lemma 4.6): the DTD's counting constraints contradict the "
    "keys/foreign keys";

/// The check-level options as the encoding solver takes them. The
/// check-level stop signal overrides whatever the caller left on the inner
/// ILP options — one knob arms the whole stack.
EncodingSolveOptions ToSolveOptions(const ConsistencyOptions& options);

/// Adds Σ_τ ext(τ) ≥ options.min_witness_nodes over `encoding`'s element
/// types to `system` (no row when no minimum size is asked for).
void AddMinimumSizeRow(const ConsistencyOptions& options,
                       const CardinalityEncoding& encoding,
                       LinearSystem* system);

/// `base` with witness construction and verification off: for inner calls
/// that only need verdicts (closure enumeration, equivalence).
ConsistencyOptions VerdictOnly(const ConsistencyOptions& base);

/// Validates + evaluates a freshly built witness; any failure is a bug in
/// the encoding or the constructor, surfaced as kInternal. `models` (may be
/// null) are compiled DFAs for `dtd`'s content models.
Status VerifyWitness(const XmlTree& tree, const Dtd& dtd,
                     const CompiledContentModels* models,
                     const ConstraintSet& sigma);

/// Attaches `tree` to `result`, verified when options.verify_witness is set.
/// A witness too large to materialize keeps the verdict and surfaces the
/// reason as the explanation; any other build failure is returned.
Status AttachWitness(const Dtd& dtd, const CompiledContentModels* models,
                     const ConstraintSet& sigma,
                     const ConsistencyOptions& options, Result<XmlTree> tree,
                     ConsistencyResult* result);

/// Σ subsumes φ = τ[X] → τ iff some key τ[Y] → τ in Σ has Y ⊆ X (then φ is
/// a superkey of it). Foreign keys contribute their key component.
bool Subsumes(const ConstraintSet& sigma, const Constraint& phi);

/// ¬φ for a unary key or inclusion; kUndecidableClass for multi-attribute
/// ones (Corollary 3.4).
Result<Constraint> Negate(const Constraint& phi);

/// Checks T ⊨ D, T ⊨ Σ and T ⊭ φ; a failure is kInternal.
Status VerifyCounterexample(const XmlTree& tree, const Dtd& dtd,
                            const CompiledContentModels* models,
                            const ConstraintSet& sigma, const Constraint& phi);

/// The Lemma 3.7 counterexample: a valid tree with two τ elements agreeing
/// on X and all other attribute values pairwise distinct. Built through the
/// ILP pipeline (Ψ_D plus ext(τ) ≥ 2) and post-edited.
Result<XmlTree> BuildKeyCounterexample(const Dtd& dtd, const Constraint& phi,
                                       const ConsistencyOptions& options);

/// Lemma 3.6: can some valid tree contain two `type` elements?
using CanHaveTwoFn = std::function<bool(const std::string& type)>;
/// Consistency of Σ ∪ {`negated`} over D.
using RefuteFn =
    std::function<Result<ConsistencyResult>(const Constraint& negated)>;

/// (D,Σ) ⊢ φ — the dispatch CheckImplication documents: the Section 2.2
/// foreign-key split, the Theorem 3.5(3) / Lemma 3.7 keys-only path, and
/// the Σ ∪ {¬φ} refutation. Validates φ against `dtd`; Σ is the caller's.
Result<ImplicationResult> DecideImplication(
    const Dtd& dtd, const CompiledContentModels* models,
    const ConstraintSet& sigma, const Constraint& phi,
    const ConsistencyOptions& options, const CanHaveTwoFn& can_have_two,
    const RefuteFn& refute);

}  // namespace xicc
