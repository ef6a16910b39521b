#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "plan/plan.h"
#include "plan/schema.h"
#include "plan/spj.h"

/// \file verifier.h
/// A SPES-style automated equivalence verifier [54] for SPJ subexpressions
/// with conjunctive predicates under bag semantics, built on the from-scratch
/// DPLL(T) difference-logic solver (src/smt). See DESIGN.md §1 for the
/// substitution rationale.
///
/// Method: both plans are canonicalized and flattened to
/// (table multiset, predicate conjunction, output list). For conjunctive
/// queries under bag semantics, equivalence holds iff some table-name-
/// consistent bijection between scan atoms maps one query onto the other
/// (Chaudhuri & Vardi); predicate-set equality is checked as mutual
/// implication discharged by the SMT solver, which also proves implied
/// (redundant) predicates such as Figure 1's
///   A.val > B.val + 10 ∧ B.val + 10 > 20  ⊢  A.val > 20.
///
/// Aggregates (the §9.1 extension) are proved structurally on top of the
/// SPJ machinery: two aggregate roots are equivalent when some bijection
/// makes their SPJ children mutually imply each other, their group-by key
/// sets coincide under the renaming, and their aggregate lists match
/// positionally. This is conservative (set-equal keys, syntactic argument
/// match after renaming) and therefore sound.
///
/// The verifier is correct but not complete (§2.1): plans outside the
/// supported fragment (outer joins, non-root projections, non-linear
/// predicates) yield kUnknown.

namespace geqo {

enum class EquivalenceVerdict : uint8_t {
  kEquivalent,
  kNotEquivalent,
  kUnknown,
};

std::string_view VerdictToString(EquivalenceVerdict verdict);

/// \brief Verifier tuning knobs.
struct VerifierOptions {
  /// Upper bound on alias bijections tried per pair (factorial in the
  /// number of same-table self-join atoms; real workloads stay tiny).
  uint64_t max_bijections = 100000;
  /// Models the paper's out-of-process AV invocation (SPES spawns a JVM +
  /// Z3 per check, ~18 ms wall — see kSpesInvocationOverheadSeconds in
  /// bench_util.h): every CheckEquivalence call stalls this long before
  /// returning. 0 disables it (the in-process DPLL(T) cost only).
  /// `sharded_serve_test` sets it to hold verifier workers mid-task while
  /// snapshots pause the queue. perfbench refuses to run with it set: a
  /// modeled stall is not measured work.
  double modeled_invocation_stall_seconds = 0.0;
};

/// \brief Cumulative verifier work counters (reported by benches; the
/// solver-call count tracks the paper's O(2^Ω(γ)) AV cost driver). The
/// smt_* fields accumulate the DPLL(T) search totals across every solver
/// call, so one merged VerifierStats carries the full SMT cost of a run.
struct VerifierStats {
  uint64_t pairs_checked = 0;
  uint64_t solver_calls = 0;
  uint64_t bijections_tried = 0;
  uint64_t unknown_results = 0;
  uint64_t smt_decisions = 0;
  uint64_t smt_propagations = 0;
  uint64_t smt_theory_checks = 0;
  uint64_t smt_conflicts = 0;

  /// Field-wise difference vs an earlier copy of the same counters.
  VerifierStats DeltaSince(const VerifierStats& before) const {
    VerifierStats delta;
    delta.pairs_checked = pairs_checked - before.pairs_checked;
    delta.solver_calls = solver_calls - before.solver_calls;
    delta.bijections_tried = bijections_tried - before.bijections_tried;
    delta.unknown_results = unknown_results - before.unknown_results;
    delta.smt_decisions = smt_decisions - before.smt_decisions;
    delta.smt_propagations = smt_propagations - before.smt_propagations;
    delta.smt_theory_checks = smt_theory_checks - before.smt_theory_checks;
    delta.smt_conflicts = smt_conflicts - before.smt_conflicts;
    return delta;
  }
};

/// Adds \p delta to the global metrics registry under the "verify." and
/// "smt." counters. No-op (one atomic load) when GEQO_TRACE=off; callers
/// fold merged per-run deltas, never per-query values, to keep the hot path
/// off the registry.
void FoldVerifierStatsToMetrics(const VerifierStats& delta);

/// \brief The automated verifier (the AV of Equation 2).
class SpesVerifier {
 public:
  explicit SpesVerifier(const Catalog* catalog,
                        VerifierOptions options = VerifierOptions())
      : catalog_(catalog), options_(options) {}

  /// Decides semantic equivalence of \p a and \p b.
  EquivalenceVerdict CheckEquivalence(const PlanPtr& a, const PlanPtr& b);

  /// §9.2 extension: decides whether \p a is semantically contained in
  /// \p b (every result row of a appears in b, over every database).
  EquivalenceVerdict CheckContainment(const PlanPtr& a, const PlanPtr& b);

  const VerifierStats& stats() const { return stats_; }
  void ResetStats() { stats_ = VerifierStats(); }
  /// Folds another verifier's counters into this one. The parallel pipeline
  /// verifies with per-thread SpesVerifier instances (CheckEquivalence
  /// mutates stats_, so instances must not be shared across threads) and
  /// merges their work accounting back into the pipeline's verifier.
  void MergeStats(const VerifierStats& other) {
    stats_.pairs_checked += other.pairs_checked;
    stats_.solver_calls += other.solver_calls;
    stats_.bijections_tried += other.bijections_tried;
    stats_.unknown_results += other.unknown_results;
    stats_.smt_decisions += other.smt_decisions;
    stats_.smt_propagations += other.smt_propagations;
    stats_.smt_theory_checks += other.smt_theory_checks;
    stats_.smt_conflicts += other.smt_conflicts;
  }

 private:
  EquivalenceVerdict CheckFlattened(const FlatSpj& a, const FlatSpj& b,
                                    bool containment_only,
                                    const PlanNode* aggregate_a = nullptr,
                                    const PlanNode* aggregate_b = nullptr);

  const Catalog* catalog_;
  VerifierOptions options_;
  VerifierStats stats_;
};

}  // namespace geqo
