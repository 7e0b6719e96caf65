"""Denial-constraint substrate.

Implements §2.1 of the paper: predicates, denial constraints (DCs), a
small textual parser, and — most importantly — the violation-counting
engine that the constraint-aware sampler (Algorithm 3), the weight
learner (Algorithm 5), and the evaluation Metric I are built on.

Counting conventions (matching the paper):

* A *unary* DC is violated by single tuples; ``V(phi, D)`` is a set of
  tuple ids.
* A *binary* DC is violated by unordered tuple pairs ("tuple groups");
  a pair ``{a, b}`` violates if the predicate conjunction holds under
  either orientation ``(i=a, j=b)`` or ``(i=b, j=a)``.
* ``V(phi, t_i | D_:i)`` — the incremental count used by the chain
  decomposition Eqn. (3) — is the number of new violations created by
  appending ``t_i`` after the prefix ``D_:i``.

Two counting engines share these conventions: the scan engine of
:mod:`repro.constraints.violations` (stateless, re-evaluates predicates
against the instance) and the incremental indexes of
:mod:`repro.constraints.index` (per-DC state updated as tuples are
appended/removed/rewritten; O(group) probes, bit-identical counts).
Algorithm 3's sampler and the repair passes run on the indexes, which
serve every DC shape; Algorithm 5's violation matrix counts by group
arithmetic or blocked scans.
"""

from repro.constraints.predicate import Operator, Predicate
from repro.constraints.dc import DenialConstraint
from repro.constraints.parser import parse_dc
from repro.constraints.violations import (
    candidate_violation_counts,
    count_violations,
    incremental_violations,
    multi_candidate_violation_counts,
    violating_pair_percentage,
    violating_pairs,
    violation_matrix,
)
from repro.constraints.algebra import (
    dc_signature,
    fd_closure,
    implied_fd,
    is_trivial,
    minimize_dcs,
)
from repro.constraints.discovery import discover_dcs
from repro.constraints.fd import extract_fds
from repro.constraints.index import (
    ArrayFDViolationIndex,
    FDViolationIndex,
    GridViolationIndex,
    UnaryViolationIndex,
    ViolationIndex,
    build_grid_index,
    build_index,
    per_row_violation_counts,
)

__all__ = [
    "ArrayFDViolationIndex",
    "DenialConstraint",
    "FDViolationIndex",
    "GridViolationIndex",
    "UnaryViolationIndex",
    "ViolationIndex",
    "build_grid_index",
    "build_index",
    "per_row_violation_counts",
    "Operator",
    "Predicate",
    "candidate_violation_counts",
    "count_violations",
    "dc_signature",
    "discover_dcs",
    "fd_closure",
    "implied_fd",
    "is_trivial",
    "minimize_dcs",
    "extract_fds",
    "incremental_violations",
    "multi_candidate_violation_counts",
    "parse_dc",
    "violating_pair_percentage",
    "violating_pairs",
    "violation_matrix",
]
