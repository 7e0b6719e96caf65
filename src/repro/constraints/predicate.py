"""Predicates of denial constraints.

A predicate is ``(v1 o v2)`` or ``(v1 o c)`` where ``v1, v2`` reference
attributes of the universally quantified tuple variables ``t_i``/``t_j``
and ``c`` is a constant (§2.1).  Comparison happens on the *stored*
representation: integer codes for categorical attributes, floats for
numerical attributes — which makes equality comparisons exact and order
comparisons meaningful for numerical attributes.
"""

from __future__ import annotations

import enum

import numpy as np


class Operator(enum.Enum):
    """The six comparison operators of the DC grammar."""

    EQ = "="
    NE = "!="
    GT = ">"
    GE = ">="
    LT = "<"
    LE = "<="

    def apply(self, left, right):
        """Evaluate ``left op right`` elementwise (numpy-broadcasting)."""
        fn = _OP_FUNCS[self]
        return fn(left, right)

    def flip(self) -> "Operator":
        """The operator with swapped operands: ``a op b == b op.flip a``."""
        return _FLIPPED[self]

    def negate(self) -> "Operator":
        """The logical negation: ``not (a op b) == a op.negate b``."""
        return _NEGATED[self]


_OP_FUNCS = {
    Operator.EQ: np.equal,
    Operator.NE: np.not_equal,
    Operator.GT: np.greater,
    Operator.GE: np.greater_equal,
    Operator.LT: np.less,
    Operator.LE: np.less_equal,
}

_FLIPPED = {
    Operator.EQ: Operator.EQ,
    Operator.NE: Operator.NE,
    Operator.GT: Operator.LT,
    Operator.GE: Operator.LE,
    Operator.LT: Operator.GT,
    Operator.LE: Operator.GE,
}

_NEGATED = {
    Operator.EQ: Operator.NE,
    Operator.NE: Operator.EQ,
    Operator.GT: Operator.LE,
    Operator.GE: Operator.LT,
    Operator.LT: Operator.GE,
    Operator.LE: Operator.GT,
}

#: Tuple-variable tags.  ``TUPLE_I``/``TUPLE_J`` are the two universally
#: quantified variables; ``CONST`` marks a constant right-hand side.
TUPLE_I = "i"
TUPLE_J = "j"
CONST = "const"


class Predicate:
    """One conjunct of a denial constraint.

    Parameters
    ----------
    lhs_var, lhs_attr:
        Tuple variable (``"i"`` or ``"j"``) and attribute of the left
        operand.
    op:
        The comparison :class:`Operator`.
    rhs_var:
        ``"i"``, ``"j"``, or ``"const"``.
    rhs_attr:
        Attribute name of the right operand (ignored for constants).
    const:
        The constant value for ``rhs_var == "const"``; categorical
        constants must be given as raw domain values and are encoded by
        :meth:`bind`.
    """

    def __init__(self, lhs_var: str, lhs_attr: str, op: Operator,
                 rhs_var: str, rhs_attr: str | None = None, const=None):
        if lhs_var not in (TUPLE_I, TUPLE_J):
            raise ValueError(f"bad tuple variable {lhs_var!r}")
        if rhs_var not in (TUPLE_I, TUPLE_J, CONST):
            raise ValueError(f"bad rhs variable {rhs_var!r}")
        if rhs_var == CONST and const is None:
            raise ValueError("constant predicate needs a const value")
        if rhs_var != CONST and rhs_attr is None:
            raise ValueError("attribute predicate needs rhs_attr")
        self.lhs_var = lhs_var
        self.lhs_attr = lhs_attr
        self.op = op
        self.rhs_var = rhs_var
        self.rhs_attr = rhs_attr
        self.const = const

    @property
    def is_constant(self) -> bool:
        return self.rhs_var == CONST

    @property
    def attributes(self) -> set[str]:
        """All attribute names referenced by this predicate."""
        attrs = {self.lhs_attr}
        if not self.is_constant:
            attrs.add(self.rhs_attr)
        return attrs

    @property
    def tuple_vars(self) -> set[str]:
        """Tuple variables referenced (``{"i"}`` or ``{"i", "j"}``)."""
        out = {self.lhs_var}
        if not self.is_constant:
            out.add(self.rhs_var)
        return out

    def bind(self, relation) -> "Predicate":
        """Return a copy with the constant encoded against the schema.

        Categorical constants given as raw values (e.g. ``"Bachelors"``)
        become integer codes so they compare against stored columns.
        A constant the schema cannot hold — a categorical value or code
        outside the domain, or a non-numeric constant on a numerical
        attribute — raises :class:`ValueError`.
        """
        if not self.is_constant:
            return self
        attr = relation[self.lhs_attr]
        const = self.const
        if attr.is_categorical:
            if not isinstance(const, (int, np.integer)):
                if not attr.domain.contains(const):
                    raise ValueError(
                        f"{const!r} is not a value of {attr.name!r}")
                const = attr.domain.encode(const)
            elif not 0 <= const < attr.domain.size:
                raise ValueError(
                    f"code {const} is outside the {attr.domain.size} "
                    f"codes of {attr.name!r}")
        else:
            try:
                const = float(const)
            except ValueError:
                raise ValueError(
                    f"{const!r} is not a number, and {attr.name!r} is "
                    f"numerical") from None
        return Predicate(self.lhs_var, self.lhs_attr, self.op,
                         CONST, None, const)

    def evaluate(self, value_of):
        """Evaluate the predicate given a value resolver.

        ``value_of(var, attr)`` must return a scalar or numpy array for
        the requested tuple variable and attribute; all returned shapes
        must be mutually broadcastable.  Returns a boolean array of the
        broadcast shape.
        """
        left = value_of(self.lhs_var, self.lhs_attr)
        if self.is_constant:
            right = self.const
        else:
            right = value_of(self.rhs_var, self.rhs_attr)
        return self.op.apply(left, right)

    def swapped(self) -> "Predicate":
        """The predicate with tuple variables i and j exchanged."""
        swap = {TUPLE_I: TUPLE_J, TUPLE_J: TUPLE_I, CONST: CONST}
        return Predicate(swap[self.lhs_var], self.lhs_attr, self.op,
                         swap[self.rhs_var], self.rhs_attr, self.const)

    def __repr__(self) -> str:
        lhs = f"t{self.lhs_var}.{self.lhs_attr}"
        if self.is_constant:
            rhs = repr(self.const)
        else:
            rhs = f"t{self.rhs_var}.{self.rhs_attr}"
        return f"{lhs} {self.op.value} {rhs}"
