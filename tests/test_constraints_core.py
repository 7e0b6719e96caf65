"""Unit tests for predicates, DCs, and the parser."""

import numpy as np
import pytest

from repro.cli import infer_schema
from repro.constraints import DenialConstraint, Operator, Predicate, parse_dc
from repro.constraints.dc import active_dc_map
from repro.constraints.parser import DCParseError
from repro.constraints.predicate import CONST, TUPLE_I, TUPLE_J
from repro.schema import (
    Attribute, CategoricalDomain, NumericalDomain, Relation,
)


@pytest.fixture
def relation():
    return Relation([
        Attribute("edu", CategoricalDomain(["HS", "BS", "MS"])),
        Attribute("num", NumericalDomain(0, 20, integer=True)),
        Attribute("gain", NumericalDomain(0, 100)),
        Attribute("loss", NumericalDomain(0, 100)),
    ])


class TestOperator:
    def test_apply(self):
        assert Operator.EQ.apply(1, 1)
        assert Operator.NE.apply(1, 2)
        assert Operator.GT.apply(2, 1)
        assert Operator.GE.apply(2, 2)
        assert Operator.LT.apply(1, 2)
        assert Operator.LE.apply(2, 2)

    def test_apply_broadcasts(self):
        out = Operator.GT.apply(np.array([1, 2, 3]), 2)
        assert out.tolist() == [False, False, True]

    def test_flip(self):
        assert Operator.GT.flip() is Operator.LT
        assert Operator.GE.flip() is Operator.LE
        assert Operator.EQ.flip() is Operator.EQ

    def test_negate(self):
        assert Operator.EQ.negate() is Operator.NE
        assert Operator.LT.negate() is Operator.GE


class TestPredicate:
    def test_attributes_and_vars(self):
        p = Predicate(TUPLE_I, "a", Operator.EQ, TUPLE_J, "b")
        assert p.attributes == {"a", "b"}
        assert p.tuple_vars == {TUPLE_I, TUPLE_J}

    def test_constant_predicate(self):
        p = Predicate(TUPLE_I, "a", Operator.GT, CONST, None, 5)
        assert p.is_constant
        assert p.attributes == {"a"}

    def test_constant_requires_value(self):
        with pytest.raises(ValueError):
            Predicate(TUPLE_I, "a", Operator.GT, CONST)

    def test_bind_encodes_categorical_constant(self, relation):
        p = Predicate(TUPLE_I, "edu", Operator.EQ, CONST, None, "BS")
        bound = p.bind(relation)
        assert bound.const == 1

    def test_swapped(self):
        p = Predicate(TUPLE_I, "a", Operator.GT, TUPLE_J, "b")
        s = p.swapped()
        assert s.lhs_var == TUPLE_J and s.rhs_var == TUPLE_I

    def test_evaluate_with_resolver(self):
        p = Predicate(TUPLE_I, "a", Operator.LT, TUPLE_J, "a")
        out = p.evaluate(lambda var, attr:
                         np.array([1, 5]) if var == TUPLE_I else 3)
        assert out.tolist() == [True, False]


class TestDenialConstraint:
    def test_unary_detection(self):
        dc = DenialConstraint("u", [
            Predicate(TUPLE_I, "a", Operator.GT, CONST, None, 5)])
        assert dc.is_unary and not dc.is_binary

    def test_binary_detection(self):
        dc = DenialConstraint.fd("f", "a", "b")
        assert dc.is_binary

    def test_as_fd(self):
        dc = DenialConstraint.fd("f", ["x", "y"], "z")
        assert dc.as_fd() == (("x", "y"), "z")

    def test_as_fd_rejects_order_dc(self, relation):
        dc = parse_dc("not(ti.gain > tj.gain and ti.loss < tj.loss)")
        assert dc.as_fd() is None

    def test_as_conditional_order(self):
        dc = parse_dc("not(ti.s == tj.s and ti.a > tj.a and ti.b < tj.b)")
        assert dc.as_conditional_order() == (["s"], "a", "b")

    def test_as_conditional_order_no_eq(self):
        dc = parse_dc("not(ti.a > tj.a and ti.b < tj.b)")
        assert dc.as_conditional_order() == ([], "a", "b")

    def test_as_conditional_order_rejects_fd(self):
        dc = DenialConstraint.fd("f", "a", "b")
        assert dc.as_conditional_order() is None

    def test_as_conditional_order_rejects_nonstrict(self):
        dc = parse_dc("not(ti.a >= tj.a and ti.b < tj.b)")
        assert dc.as_conditional_order() is None

    def test_as_conditional_order_rejects_contradictions(self):
        """An order attribute that is also an equality attribute, or
        one attribute both increasing and decreasing: no pair can
        violate, and the interval hints would key on the cell being
        drawn."""
        for text in ("not(ti.a == tj.a and ti.a > tj.a and ti.b < tj.b)",
                     "not(ti.s == tj.s and ti.a > tj.a and ti.a < tj.a)"):
            assert parse_dc(text).as_conditional_order() is None, text

    def test_attributes(self):
        dc = DenialConstraint.fd("f", ["x"], "y")
        assert dc.attributes == {"x", "y"}

    def test_active_at(self):
        dc = DenialConstraint.fd("f", ["x"], "y")
        assert not dc.active_at(["x"])
        assert dc.active_at(["x", "y", "z"])

    def test_needs_predicates(self):
        with pytest.raises(ValueError):
            DenialConstraint("empty", [])

    def test_active_dc_map(self):
        fd1 = DenialConstraint.fd("f1", "a", "b")
        fd2 = DenialConstraint.fd("f2", "b", "c")
        mapping = active_dc_map([fd1, fd2], ["a", "b", "c"])
        assert [d.name for d in mapping["b"]] == ["f1"]
        assert [d.name for d in mapping["c"]] == ["f2"]
        assert mapping["a"] == []

    def test_active_dc_map_missing_attr(self):
        fd = DenialConstraint.fd("f", "a", "zzz")
        with pytest.raises(ValueError):
            active_dc_map([fd], ["a", "b"])


class TestParser:
    def test_fd_form(self, relation):
        dc = parse_dc("not(ti.edu == tj.edu and ti.num != tj.num)",
                      name="fd", relation=relation)
        assert dc.as_fd() == (("edu",), "num")

    def test_single_equals_accepted(self):
        dc = parse_dc("not(ti.a = tj.a and ti.b != tj.b)")
        assert dc.as_fd() == (("a",), "b")

    def test_unary_with_constants(self, relation):
        dc = parse_dc("not(ti.num < 10 and ti.gain > 50)",
                      relation=relation)
        assert dc.is_unary
        assert dc.predicates[0].const == 10

    def test_string_constant(self, relation):
        dc = parse_dc("not(ti.edu == 'BS' and ti.num < 5)",
                      relation=relation)
        assert dc.predicates[0].const == 1  # encoded code of "BS"

    def test_t1_t2_aliases(self):
        dc = parse_dc("not(t1.a == t2.a and t1.b != t2.b)")
        assert dc.is_binary

    def test_unicode_form(self):
        dc = parse_dc("¬(ti.a = tj.a ∧ ti.b != tj.b)")
        assert dc.as_fd() == (("a",), "b")

    def test_missing_not_rejected(self):
        with pytest.raises(DCParseError):
            parse_dc("(ti.a == tj.a)")

    def test_garbage_operand_rejected(self):
        with pytest.raises(DCParseError):
            parse_dc("not(ti.a == %$)")

    def test_const_lhs_rejected(self):
        with pytest.raises(DCParseError):
            parse_dc("not(5 == ti.a)")

    def test_missing_operator_rejected(self):
        with pytest.raises(DCParseError):
            parse_dc("not(ti.a tj.a)")

    def test_hardness_flag(self):
        assert parse_dc("not(ti.a > 1)", hard=False).hard is False
        assert parse_dc("not(ti.a > 1)").hard is True

    @pytest.mark.parametrize("text, message", [
        ("not(ti.nosuch == tj.num)", "no attribute 'nosuch'"),
        ("not(ti.edu == tj.edu and ti.x != tj.y)", "no attribute 'x', 'y'"),
        ("not(ti.edu == 'PhD')", "'PhD' is not a value of 'edu'"),
        ("not(ti.edu == 3)", "code 3 is outside the 3 codes of 'edu'"),
        ("not(ti.edu == -1)", "code -1 is outside"),
        ("not(ti.num == 'x')", "'x' is not a number"),
    ], ids=["attribute", "attributes", "categorical-value",
            "categorical-code", "negative-code", "numerical-constant"])
    def test_dc_outside_the_schema_rejected(self, relation, text, message):
        """Bound to a schema, a DC it cannot hold is a DCParseError
        naming the DC; so is binding it later (``Kamino`` binds its DCs
        on construction, before any fit phase runs)."""
        with pytest.raises(DCParseError, match="DC 'bad' does not fit"):
            parse_dc(text, name="bad", relation=relation)
        with pytest.raises(DCParseError) as err:
            parse_dc(text, name="bad").bind(relation)
        assert message in str(err.value)

    def test_integer_names_a_value_of_an_integer_valued_domain(
            self, tmp_path):
        """On a categorical column of integers (as a CSV reads them, or
        as ints), an unquoted integer in DC text names the value, by
        either binding route; binding the bound DC again (``Kamino``,
        ``FittedKamino.load``) keeps its code."""
        path = tmp_path / "flags.csv"
        path.write_text("flag,edu\n5,HS\n7,BS\n5,MS\n")
        rel = infer_schema(str(path), categorical_threshold=20)
        assert rel["flag"].domain.values == ["5", "7"]
        ints = Relation([Attribute("flag", CategoricalDomain([7, 5]))])
        for schema, code, texts in (
                (rel, 1, ("not(ti.flag == 7)", "not(ti.flag == '7')")),
                (ints, 0, ("not(ti.flag == 7)",))):
            for text in texts:
                for dc in (parse_dc(text, name="f", relation=schema),
                           parse_dc(text, name="f").bind(schema)):
                    assert dc.predicates[0].const == code, text
                    assert dc.bind(schema).predicates[0].const == code
            for dc in (lambda: parse_dc("not(ti.flag == 1)", name="f",
                                        relation=schema),
                       lambda: parse_dc("not(ti.flag == 1)",
                                        name="f").bind(schema)):
                with pytest.raises(DCParseError,
                                   match="1 is not a value of 'flag'"):
                    dc()
        # A domain with a non-integer value keeps integers as codes.
        dc = parse_dc("not(ti.edu == 1)", relation=rel)
        assert dc.predicates[0].const == 1

    def test_binding_keeps_in_schema_constants(self, relation):
        dc = parse_dc("not(ti.edu == 2 and ti.num == '5')",
                      relation=relation)
        assert [p.const for p in dc.predicates] == [2, 5.0]
        assert dc.bind(relation).predicates[0].const == 2
