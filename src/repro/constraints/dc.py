"""Denial constraints.

A denial constraint (DC) is a universally quantified negated conjunction
``forall t_i, t_j: not (P_1 and ... and P_m)`` (§2.1).  A *violation* is
an assignment of real tuples to the tuple variables under which all
predicates hold simultaneously.

This module gives DCs identity (a name), hardness (hard DCs admit no
violations in the true data; soft DCs do), and the structural
classification the rest of the system needs:

* unary vs binary (how many tuple variables appear);
* the participating attribute set ``A_phi``, which drives the
  chain-decomposition assignment ``Phi_{A_j}`` (§3.2) and the
  constraint-aware sequencing (Algorithm 4);
* FD-shape detection (``X -> Y``), which feeds Algorithm 4 and the
  sampler's FD count tables.
"""

from __future__ import annotations

from repro.constraints.predicate import CONST, Operator, Predicate, TUPLE_I, TUPLE_J


class DCParseError(ValueError):
    """Malformed DC text, or a DC that does not fit its schema."""


class DenialConstraint:
    """A named denial constraint over a single relation.

    Parameters
    ----------
    name:
        Identifier used in reports (e.g. ``"phi_a1"``).
    predicates:
        The conjunction ``P_1 ... P_m``.  At most two tuple variables
        (``t_i``, ``t_j``) may appear.
    hard:
        True if the constraint is hard (weight is treated as infinite
        during sampling); False for soft DCs whose weight is learned by
        Algorithm 5.
    """

    def __init__(self, name: str, predicates, hard: bool = True):
        predicates = list(predicates)
        if not predicates:
            raise ValueError("a DC needs at least one predicate")
        self.name = name
        self.predicates = predicates
        self.hard = bool(hard)
        vars_used = set()
        for p in predicates:
            vars_used |= p.tuple_vars
        vars_used.discard(CONST)
        if vars_used - {TUPLE_I, TUPLE_J}:
            raise ValueError(f"unsupported tuple variables: {vars_used}")
        self._vars = vars_used
        # DCs are immutable after construction; the structural queries
        # below sit on sampler hot paths, so compute them once.
        self._is_unary = (vars_used <= {TUPLE_I} or vars_used <= {TUPLE_J})
        attrs: set[str] = set()
        for p in predicates:
            attrs |= p.attributes
        self._attributes = frozenset(attrs)
        self._fd_shape = self._compute_fd()
        self._order_shape = self._compute_conditional_order()

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def is_unary(self) -> bool:
        """True if only one tuple variable appears (single-tuple DC)."""
        return self._is_unary

    @property
    def is_binary(self) -> bool:
        return not self.is_unary

    @property
    def attributes(self) -> frozenset[str]:
        """The participating attribute set ``A_phi``."""
        return self._attributes

    def bind(self, relation) -> "DenialConstraint":
        """Encode constant predicates against a schema (see
        Predicate.bind).

        A DC that does not fit the schema — an attribute outside it, or
        a constant its attribute cannot hold — raises
        :class:`DCParseError` naming the DC.
        """
        try:
            missing = sorted(a for a in self.attributes if a not in relation)
            if missing:
                raise ValueError(
                    f"no attribute {', '.join(map(repr, missing))}")
            predicates = [p.bind(relation) for p in self.predicates]
        except ValueError as exc:
            raise DCParseError(
                f"DC {self.name!r} does not fit the schema: {exc}") from None
        return DenialConstraint(self.name, predicates, self.hard)

    def active_at(self, prefix_attrs) -> bool:
        """True if all participating attributes are within ``prefix_attrs``.

        Used to compute ``Phi_{A_j}``: the DC becomes *active* at the
        first position of the schema sequence whose prefix covers
        ``A_phi`` (Example 3).
        """
        return self.attributes <= set(prefix_attrs)

    # ------------------------------------------------------------------
    # FD shape
    # ------------------------------------------------------------------
    def as_fd(self) -> tuple[tuple[str, ...], str] | None:
        """If this DC encodes a functional dependency, return ``(X, y)``.

        An FD-shaped DC is a binary DC whose predicates are all of the
        form ``t_i.A = t_j.A`` (the determinant set X) plus exactly one
        ``t_i.B != t_j.B`` (the dependent attribute y):
        ``not(t_i.X = t_j.X and t_i.y != t_j.y)`` is ``X -> y``.
        Returns None if the DC is not FD-shaped.
        """
        return self._fd_shape

    def _compute_fd(self):
        if self.is_unary:
            return None
        lhs, rhs = [], []
        for p in self.predicates:
            same_attr = (not p.is_constant and p.lhs_attr == p.rhs_attr
                         and p.lhs_var != p.rhs_var)
            if not same_attr:
                return None
            if p.op is Operator.EQ:
                lhs.append(p.lhs_attr)
            elif p.op is Operator.NE:
                rhs.append(p.lhs_attr)
            else:
                return None
        if len(rhs) != 1 or not lhs:
            return None
        return tuple(sorted(lhs)), rhs[0]

    def as_conditional_order(self):
        """Detect the conditional-order shape used by monotonicity DCs.

        Matches binary DCs of the form
        ``not(ti.E1 = tj.E1 and ... and ti.A > tj.A and ti.B < tj.B)``
        — equality predicates on a (possibly empty) condition set plus
        exactly one strictly-increasing/strictly-decreasing pair on two
        attributes outside it (the paper's cap_gain/cap_loss and
        salary/rate constraints; with ``A = B``, or ``A`` or ``B`` among
        the ``E``, the predicates contradict and no pair violates).  Returns
        ``(eq_attrs, greater_attr, less_attr)`` or None.

        The shape powers the sampler's feasible-interval candidate
        augmentation: within an equality group, the zero-violation
        values of one order attribute given the other form a closed
        interval whose endpoints are themselves feasible.
        """
        return self._order_shape

    def _compute_conditional_order(self):
        if self.is_unary:
            return None
        eq_attrs: list[str] = []
        greater: list[str] = []
        less: list[str] = []
        for p in self.predicates:
            cross = (not p.is_constant and p.lhs_attr == p.rhs_attr
                     and p.lhs_var != p.rhs_var)
            if not cross:
                return None
            # Normalise so the i-side is on the left.
            op = p.op if p.lhs_var == TUPLE_I else p.op.flip()
            if op is Operator.EQ:
                eq_attrs.append(p.lhs_attr)
            elif op is Operator.GT:
                greater.append(p.lhs_attr)
            elif op is Operator.LT:
                less.append(p.lhs_attr)
            else:
                return None
        if (len(greater) != 1 or len(less) != 1 or greater == less
                or {greater[0], less[0]} & set(eq_attrs)):
            return None
        return sorted(eq_attrs), greater[0], less[0]

    @classmethod
    def fd(cls, name: str, determinant, dependent: str,
           hard: bool = True) -> "DenialConstraint":
        """Convenience constructor for a functional dependency ``X -> y``."""
        determinant = ([determinant] if isinstance(determinant, str)
                       else list(determinant))
        preds = [Predicate(TUPLE_I, a, Operator.EQ, TUPLE_J, a)
                 for a in determinant]
        preds.append(Predicate(TUPLE_I, dependent, Operator.NE,
                               TUPLE_J, dependent))
        return cls(name, preds, hard=hard)

    def __repr__(self) -> str:
        body = " and ".join(repr(p) for p in self.predicates)
        kind = "hard" if self.hard else "soft"
        return f"DC[{self.name}, {kind}]: not({body})"


def active_dc_map(dcs, sequence) -> dict[str, list]:
    """Partition DCs by the sequence position at which they activate.

    Returns ``{attr_name: [dcs that activate at this attribute]}`` —
    the ``Phi_{A_j}`` sets of §3.2: a DC activates at the first
    attribute of ``sequence`` whose prefix (inclusive) covers all of the
    DC's participating attributes.  DCs referencing attributes outside
    the sequence raise ``ValueError``.
    """
    out: dict[str, list] = {a: [] for a in sequence}
    seen: set[str] = set()
    position = {a: p for p, a in enumerate(sequence)}
    for dc in dcs:
        missing = dc.attributes - set(sequence)
        if missing:
            raise ValueError(
                f"DC {dc.name} references attributes {sorted(missing)} "
                f"not in the sequence"
            )
        last = max(position[a] for a in dc.attributes)
        out[sequence[last]].append(dc)
        seen.add(dc.name)
    return out
