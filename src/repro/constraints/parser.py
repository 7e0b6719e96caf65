"""A small textual parser for denial constraints.

Grammar (ASCII rendering of the paper's first-order formulae)::

    dc        := "not(" predicate ( "and" predicate )* ")"
    predicate := operand op operand
    operand   := tuplevar "." attr | constant
    tuplevar  := "ti" | "tj" | "t1" | "t2"
    op        := "==" | "=" | "!=" | ">" | ">=" | "<" | "<="
    constant  := number | 'single-quoted string' | "double-quoted string"

Examples::

    not(ti.edu == tj.edu and ti.edu_num != tj.edu_num)
    not(ti.cap_gain > tj.cap_gain and ti.cap_loss < tj.cap_loss)
    not(ti.age < 10 and ti.cap_gain > 1000000)
"""

from __future__ import annotations

import re

from repro.constraints.dc import DCParseError, DenialConstraint
from repro.constraints.predicate import CONST, Operator, Predicate, TUPLE_I, TUPLE_J

_TUPLE_VARS = {"ti": TUPLE_I, "t1": TUPLE_I, "tj": TUPLE_J, "t2": TUPLE_J}

# Order matters: two-character operators must be matched first.
_OPS = [
    (">=", Operator.GE), ("<=", Operator.LE), ("!=", Operator.NE),
    ("==", Operator.EQ), (">", Operator.GT), ("<", Operator.LT),
    ("=", Operator.EQ),
]

_OPERAND_RE = re.compile(
    r"\s*(?:"
    r"(?P<ref>(ti|tj|t1|t2))\.(?P<attr>[A-Za-z_][A-Za-z0-9_]*)"
    r"|'(?P<sq>[^']*)'"
    r'|"(?P<dq>[^"]*)"'
    r"|(?P<num>-?\d+(?:\.\d+)?)"
    r")\s*"
)


def _parse_operand(text: str):
    """Return ((var, attr) | ("const", value), rest-of-text)."""
    m = _OPERAND_RE.match(text)
    if not m:
        raise DCParseError(f"cannot parse operand at: {text!r}")
    if m.group("ref"):
        return (_TUPLE_VARS[m.group("ref")], m.group("attr")), text[m.end():]
    if m.group("sq") is not None:
        return (CONST, m.group("sq")), text[m.end():]
    if m.group("dq") is not None:
        return (CONST, m.group("dq")), text[m.end():]
    num = m.group("num")
    value = float(num) if "." in num else int(num)
    return (CONST, value), text[m.end():]


def _parse_predicate(text: str) -> Predicate:
    left, rest = _parse_operand(text)
    if left[0] == CONST:
        raise DCParseError(f"predicate lhs must be a tuple ref: {text!r}")
    op = None
    for symbol, candidate in _OPS:
        if rest.startswith(symbol):
            op = candidate
            rest = rest[len(symbol):]
            break
    if op is None:
        raise DCParseError(f"missing operator in predicate: {text!r}")
    right, tail = _parse_operand(rest)
    if tail.strip():
        raise DCParseError(f"trailing junk in predicate: {tail!r}")
    lhs_var, lhs_attr = left
    if right[0] == CONST:
        return Predicate(lhs_var, lhs_attr, op, CONST, None, right[1],
                         from_text=True)
    rhs_var, rhs_attr = right
    return Predicate(lhs_var, lhs_attr, op, rhs_var, rhs_attr)


def parse_dc(text: str, name: str = "dc", hard: bool = True,
             relation=None) -> DenialConstraint:
    """Parse a DC from text; optionally bind constants to a schema.

    Parameters
    ----------
    text:
        The constraint in the grammar documented above.
    name:
        Identifier of the constraint.
    hard:
        Hardness flag (see :class:`DenialConstraint`).
    relation:
        If given, constants in predicates are encoded against the
        schema's domains (categorical constants become codes), and a
        DC that does not fit the schema raises :class:`DCParseError`
        (see :meth:`DenialConstraint.bind`).
    """
    stripped = text.strip()
    lowered = stripped.lower()
    if lowered.startswith("not(") and stripped.endswith(")"):
        body = stripped[stripped.index("(") + 1:-1]
    elif stripped.startswith("¬(") and stripped.endswith(")"):
        body = stripped[stripped.index("(") + 1:-1]
    else:
        raise DCParseError(f"DC must be of the form not(...): {text!r}")
    parts = re.split(r"\band\b|∧", body)
    predicates = [_parse_predicate(p) for p in parts]
    dc = DenialConstraint(name, predicates, hard=hard)
    if relation is not None:
        dc = dc.bind(relation)
    return dc
