"""Text format for denial constraint sets.

One constraint per line, in the grammar of
:mod:`repro.constraints.parser` prefixed by a name and hardness flag::

    # monotone capital gains/losses
    phi_a1 hard: not(ti.edu == tj.edu and ti.edu_num != tj.edu_num)
    phi_b2 soft: not(ti.a12 != tj.a12 and ti.a13 <= tj.a13)

Blank lines and ``#`` comments are ignored.  :func:`format_dc` is the
inverse of :func:`repro.constraints.parser.parse_dc`: formatting a DC
and re-parsing it yields an equivalent constraint.
"""

from __future__ import annotations

import numpy as np

from repro.constraints.dc import DenialConstraint
from repro.constraints.parser import DCParseError, parse_dc
from repro.constraints.predicate import CONST, Operator, Predicate

#: Operators rendered with their parser spelling (EQ prints as ``==``
#: because a bare ``=`` reads like assignment).
_OP_TEXT = {
    Operator.EQ: "==",
    Operator.NE: "!=",
    Operator.GT: ">",
    Operator.GE: ">=",
    Operator.LT: "<",
    Operator.LE: "<=",
}


def _format_const(predicate: Predicate, relation=None) -> str:
    """Render a constant, decoding categorical codes when possible."""
    const = predicate.const
    if relation is not None and predicate.lhs_attr in relation:
        attr = relation[predicate.lhs_attr]
        if attr.is_categorical and isinstance(const, (int, np.integer)):
            const = attr.domain.decode(const)
    if isinstance(const, str):
        if "'" in const:
            return f'"{const}"'
        return f"'{const}'"
    if isinstance(const, (float, np.floating)) and float(const).is_integer():
        return str(int(const))
    return str(const)


def format_predicate(predicate: Predicate, relation=None) -> str:
    """Render one predicate in the parser grammar.

    Pass the ``relation`` the DC was bound against to decode categorical
    constant codes back to raw values (making the output re-parseable
    with ``parse_dc(..., relation=relation)``).
    """
    lhs = f"t{predicate.lhs_var}.{predicate.lhs_attr}"
    op = _OP_TEXT[predicate.op]
    if predicate.rhs_var == CONST:
        return f"{lhs} {op} {_format_const(predicate, relation)}"
    rhs = f"t{predicate.rhs_var}.{predicate.rhs_attr}"
    return f"{lhs} {op} {rhs}"


def format_dc(dc: DenialConstraint, relation=None) -> str:
    """Render a DC body as ``not(P_1 and ... and P_m)``."""
    body = " and ".join(format_predicate(p, relation) for p in dc.predicates)
    return f"not({body})"


def save_dcs(dcs, path: str, relation=None) -> None:
    """Write constraints to a file, one ``name hard|soft: not(...)`` line
    each."""
    with open(path, "w") as f:
        for dc in dcs:
            hardness = "hard" if dc.hard else "soft"
            f.write(f"{dc.name} {hardness}: {format_dc(dc, relation)}\n")


def load_dcs(path: str, relation=None) -> list[DenialConstraint]:
    """Read a constraint file written by :func:`save_dcs`.

    Passing ``relation`` binds constants against the schema (categorical
    raw values become codes), matching what :class:`Kamino` expects.
    """
    out: list[DenialConstraint] = []
    seen: set[str] = set()
    with open(path) as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            head, sep, body = line.partition(":")
            if not sep:
                raise DCParseError(
                    f"{path}:{lineno}: expected 'name hard|soft: not(...)'"
                )
            parts = head.split()
            if len(parts) != 2 or parts[1] not in ("hard", "soft"):
                raise DCParseError(
                    f"{path}:{lineno}: bad header {head!r}; expected "
                    f"'name hard' or 'name soft'"
                )
            name, hardness = parts
            if name in seen:
                raise DCParseError(
                    f"{path}:{lineno}: duplicate DC name {name!r}")
            seen.add(name)
            try:
                out.append(parse_dc(body.strip(), name=name,
                                    hard=hardness == "hard",
                                    relation=relation))
            except DCParseError as exc:
                raise DCParseError(f"{path}:{lineno}: {exc}") from None
    return out
