#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/consistency.h"
#include "core/implication.h"
#include "core/spec_session.h"

namespace xicc {

/// Incremental specification authoring — the workflow Corollary 4.11 is
/// motivated by: "one often defines the DTD of a specification at one time,
/// but writes constraints in stages; constraints are added incrementally
/// when new requirements are discovered."
///
/// The checker holds a DTD and a growing, always-consistent constraint set;
/// each TryAdd re-runs consistency (PTIME for the fixed DTD) and either
/// commits the constraint or reports why it must be rejected, flagging
/// already-implied additions along the way.
///
/// The checker runs on a SpecSession: the DTD is compiled once on the
/// first TryAdd and every later check appends only the new constraint's
/// C_Σ rows onto the compiled skeleton's trail — one build plus n deltas
/// instead of n full rebuilds, with the same verdicts as CheckConsistency /
/// CheckImplication on the accepted set plus the addition.
class IncrementalChecker {
 public:
  /// The DTD must outlive the checker. `check_redundancy` controls whether
  /// each addition is first tested for being implied (an extra refutation
  /// call — for inclusions it routes through the exponential Section 5
  /// system); with it off, every consistent addition reports kAccepted.
  /// Witness construction follows `options.build_witness` (with
  /// min_witness_nodes respected); disable it there to keep TryAdd
  /// verdict-only.
  explicit IncrementalChecker(const Dtd* dtd,
                              const ConsistencyOptions& options = {},
                              bool check_redundancy = true)
      : dtd_(dtd), options_(options), check_redundancy_(check_redundancy) {}

  enum class Outcome {
    kAccepted,          ///< Consistent with everything accepted so far.
    kAcceptedRedundant, ///< Accepted, but already implied — a no-op.
    kRejected,          ///< Would make the specification inconsistent.
  };

  struct AddResult {
    Outcome outcome;
    std::string explanation;
    /// On kAccepted with options.build_witness: a checked witness of the
    /// whole accepted set including the new constraint.
    std::optional<XmlTree> witness;
  };

  /// Attempts to add `constraint`. Rejected constraints leave the accepted
  /// set untouched.
  Result<AddResult> TryAdd(const Constraint& constraint);

  /// The constraints accepted so far (in acceptance order).
  const ConstraintSet& accepted() const { return accepted_; }

  /// Session statistics (zero counters before the first TryAdd).
  SpecSessionStats session_stats() const {
    return session_ != nullptr ? session_->stats() : SpecSessionStats{};
  }

 private:
  /// Compiles the DTD on first use (compilation can fail, so it cannot live
  /// in the constructor).
  Status EnsureSession();

  const Dtd* dtd_;
  ConsistencyOptions options_;
  bool check_redundancy_;
  std::unique_ptr<SpecSession> session_;
  ConstraintSet accepted_;
};

/// Specification equivalence: (D, Σ1) ≡ (D, Σ2) iff every constraint of
/// each side is implied by the other. Subsumes the implication machinery,
/// so the same decidability boundaries apply (kUndecidableClass for
/// multi-attribute content).
struct EquivalenceResult {
  bool equivalent = false;
  /// When not equivalent: a constraint of one side not implied by the
  /// other, rendered with its direction.
  std::string separating_constraint;
};

Result<EquivalenceResult> CheckEquivalence(
    const Dtd& dtd, const ConstraintSet& sigma1, const ConstraintSet& sigma2,
    const ConsistencyOptions& options = {});

}  // namespace xicc
