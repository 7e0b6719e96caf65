"""Tests for repro.io: schema JSON, DC text format, and bundles."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.dc import DenialConstraint
from repro.constraints.parser import parse_dc
from repro.constraints.predicate import (
    CONST, Operator, Predicate, TUPLE_I, TUPLE_J,
)
from repro.datasets import load
from repro.io import (
    DatasetBundle,
    domain_from_dict,
    domain_to_dict,
    format_dc,
    format_predicate,
    load_bundle,
    load_dcs,
    load_relation,
    relation_from_dict,
    relation_to_dict,
    save_bundle,
    save_dcs,
    save_relation,
)
from repro.io.bundle import read_table_csv
from repro.schema.domain import CategoricalDomain, NumericalDomain
from repro.schema.relation import Attribute, Relation
from repro.schema.table import Table


# ----------------------------------------------------------------------
# Schema JSON
# ----------------------------------------------------------------------
def test_categorical_domain_round_trip():
    dom = CategoricalDomain(["a", "b", "c"])
    back = domain_from_dict(domain_to_dict(dom))
    assert back.values == dom.values


def test_numerical_domain_round_trip():
    dom = NumericalDomain(-3.5, 10.0, integer=False, bins=12)
    back = domain_from_dict(domain_to_dict(dom))
    assert (back.low, back.high, back.integer, back.bins) == (
        -3.5, 10.0, False, 12)


def test_integer_domain_round_trip():
    dom = NumericalDomain(0, 100, integer=True, bins=8)
    back = domain_from_dict(domain_to_dict(dom))
    assert back.integer and back.size == dom.size


def test_domain_from_dict_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown domain kind"):
        domain_from_dict({"kind": "fancy"})


def test_relation_round_trip_preserves_order_and_domains():
    rel = Relation([
        Attribute("b", CategoricalDomain([1, 2, 3])),
        Attribute("a", NumericalDomain(0.0, 1.0, bins=4)),
    ])
    back = relation_from_dict(relation_to_dict(rel))
    assert back.names == ["b", "a"]
    assert back["b"].domain.values == [1, 2, 3]
    assert back["a"].domain.bins == 4


def test_relation_from_dict_rejects_bad_format():
    with pytest.raises(ValueError, match="unsupported schema format"):
        relation_from_dict({"format": "other", "attributes": []})


def test_save_load_relation_file(tmp_path):
    rel = load("adult", n=10, seed=0).relation
    path = tmp_path / "schema.json"
    save_relation(rel, str(path))
    back = load_relation(str(path))
    assert back.names == rel.names
    # File is actual JSON with the version tag.
    raw = json.loads(path.read_text())
    assert raw["format"] == "repro.schema/1"


@given(values=st.lists(st.text(min_size=1, max_size=8), min_size=1,
                       max_size=10, unique=True))
@settings(max_examples=30, deadline=None)
def test_categorical_round_trip_property(values):
    dom = CategoricalDomain(values)
    back = domain_from_dict(json.loads(json.dumps(domain_to_dict(dom))))
    assert back.values == dom.values


@given(low=st.floats(-1e6, 1e6), width=st.floats(0.0, 1e6),
       bins=st.integers(1, 64))
@settings(max_examples=30, deadline=None)
def test_numerical_round_trip_property(low, width, bins):
    dom = NumericalDomain(low, low + width, bins=bins)
    back = domain_from_dict(json.loads(json.dumps(domain_to_dict(dom))))
    assert back.low == dom.low and back.high == dom.high
    assert back.bins == dom.bins


# ----------------------------------------------------------------------
# DC text format
# ----------------------------------------------------------------------
def _rel():
    return Relation([
        Attribute("edu", CategoricalDomain(["HS", "BSc", "MSc"])),
        Attribute("edu_num", NumericalDomain(0, 20, integer=True)),
        Attribute("age", NumericalDomain(0, 100, integer=True)),
    ])


def test_format_predicate_cross_tuple():
    p = Predicate(TUPLE_I, "edu", Operator.EQ, TUPLE_J, "edu")
    assert format_predicate(p) == "ti.edu == tj.edu"


def test_format_predicate_constant_numeric():
    p = Predicate(TUPLE_I, "age", Operator.LT, CONST, None, 10)
    assert format_predicate(p) == "ti.age < 10"


def test_format_predicate_decodes_bound_categorical(tmp_path):
    rel = _rel()
    p = Predicate(TUPLE_I, "edu", Operator.EQ, CONST, None, "BSc").bind(rel)
    assert p.const == 1  # bound to the code
    assert format_predicate(p, rel) == "ti.edu == 'BSc'"


def test_format_predicate_quotes_strings_with_apostrophe():
    p = Predicate(TUPLE_I, "edu", Operator.EQ, CONST, None, "it's")
    assert format_predicate(p) == 'ti.edu == "it\'s"'


def test_format_dc_round_trip_through_parser():
    dc = DenialConstraint.fd("fd1", "edu", "edu_num")
    text = format_dc(dc)
    back = parse_dc(text, name="fd1", hard=True)
    assert back.as_fd() == dc.as_fd()
    assert format_dc(back) == text


def test_save_load_dcs_round_trip(tmp_path):
    rel = _rel()
    dcs = [
        DenialConstraint.fd("fd1", "edu", "edu_num", hard=True),
        parse_dc("not(ti.age < 10 and ti.edu == 'MSc')", name="u1",
                 hard=False, relation=rel),
    ]
    path = tmp_path / "dcs.txt"
    save_dcs(dcs, str(path), relation=rel)
    back = load_dcs(str(path), relation=rel)
    assert [d.name for d in back] == ["fd1", "u1"]
    assert back[0].hard and not back[1].hard
    assert back[0].as_fd() == dcs[0].as_fd()
    # The bound constant survived the round trip as the same code.
    assert back[1].predicates[1].const == dcs[1].predicates[1].const
    # On a domain of integers the code is written as its value, an
    # unquoted integer, and read back as that value's code.
    ints = Relation([Attribute("flag", CategoricalDomain([7, 5]))])
    dc = parse_dc("not(ti.flag == 5)", name="f", relation=ints)
    save_dcs([dc], str(path), relation=ints)
    (back,) = load_dcs(str(path), relation=ints)
    assert back.predicates[0].const == dc.predicates[0].const == 1


def test_load_dcs_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "dcs.txt"
    path.write_text(
        "# header comment\n"
        "\n"
        "fd1 hard: not(ti.edu == tj.edu and ti.edu_num != tj.edu_num)\n")
    back = load_dcs(str(path))
    assert len(back) == 1 and back[0].name == "fd1"


def test_load_dcs_rejects_missing_colon(tmp_path):
    path = tmp_path / "dcs.txt"
    path.write_text("fd1 hard not(ti.a == tj.a)\n")
    with pytest.raises(ValueError, match="expected 'name hard"):
        load_dcs(str(path))


def test_load_dcs_rejects_bad_hardness(tmp_path):
    path = tmp_path / "dcs.txt"
    path.write_text("fd1 squishy: not(ti.edu == tj.edu)\n")
    with pytest.raises(ValueError, match="bad header"):
        load_dcs(str(path))


def test_load_dcs_rejects_duplicate_names(tmp_path):
    path = tmp_path / "dcs.txt"
    path.write_text(
        "fd1 hard: not(ti.edu == tj.edu)\n"
        "fd1 hard: not(ti.age > tj.age)\n")
    with pytest.raises(ValueError, match="duplicate DC name"):
        load_dcs(str(path))


@pytest.mark.parametrize("name", ["adult", "br2000", "tax", "tpch"])
def test_paper_dcs_round_trip_for_every_dataset(name, tmp_path):
    dataset = load(name, n=30, seed=0)
    path = tmp_path / "dcs.txt"
    save_dcs(dataset.dcs, str(path), relation=dataset.relation)
    back = load_dcs(str(path), relation=dataset.relation)
    assert [d.name for d in back] == [d.name for d in dataset.dcs]
    table = dataset.table
    from repro.constraints import count_violations
    for original, reloaded in zip(dataset.dcs, back):
        assert original.hard == reloaded.hard
        assert count_violations(original, table) == \
            count_violations(reloaded, table)


# ----------------------------------------------------------------------
# Bundles
# ----------------------------------------------------------------------
def test_bundle_round_trip(tmp_path):
    dataset = load("adult", n=40, seed=0)
    directory = tmp_path / "adult_bundle"
    save_bundle(str(directory), dataset.table, dataset.dcs)
    bundle = load_bundle(str(directory))
    assert isinstance(bundle, DatasetBundle)
    assert bundle.n == 40
    assert bundle.relation.names == dataset.relation.names
    assert [d.name for d in bundle.dcs] == [d.name for d in dataset.dcs]
    for attr in dataset.relation:
        np.testing.assert_allclose(
            bundle.table.column(attr.name).astype(float),
            dataset.table.column(attr.name).astype(float))


def test_bundle_without_dcs(tmp_path):
    dataset = load("tpch", n=15, seed=0)
    directory = tmp_path / "no_dcs"
    save_bundle(str(directory), dataset.table)
    bundle = load_bundle(str(directory))
    assert bundle.dcs == []


def test_bundle_missing_schema_raises(tmp_path):
    with pytest.raises(FileNotFoundError, match="schema.json"):
        load_bundle(str(tmp_path))


def test_bundle_missing_data_raises(tmp_path):
    dataset = load("tpch", n=5, seed=0)
    save_relation(dataset.relation, str(tmp_path / "schema.json"))
    with pytest.raises(FileNotFoundError, match="data.csv"):
        load_bundle(str(tmp_path))


def test_read_table_csv_coerces_integer_categories(tmp_path):
    rel = Relation([Attribute("cat", CategoricalDomain([1, 2, 3]))])
    table = Table(rel, {"cat": np.array([0, 2, 1])})
    path = tmp_path / "data.csv"
    table.to_csv(str(path))
    back = read_table_csv(rel, str(path))
    np.testing.assert_array_equal(back.column("cat"), [0, 2, 1])


def test_read_table_csv_rejects_out_of_domain_cell(tmp_path):
    rel = Relation([Attribute("cat", CategoricalDomain(["x", "y"]))])
    path = tmp_path / "data.csv"
    path.write_text("cat\nz\n")
    with pytest.raises(ValueError, match="not in domain"):
        read_table_csv(rel, str(path))


def test_read_table_csv_rejects_ragged_row(tmp_path):
    rel = Relation([
        Attribute("a", CategoricalDomain(["x"])),
        Attribute("b", NumericalDomain(0, 1)),
    ])
    path = tmp_path / "data.csv"
    path.write_text("a,b\nx,0.5\nx\n")
    with pytest.raises(ValueError, match="cells"):
        read_table_csv(rel, str(path))


def test_read_table_csv_rejects_wrong_header(tmp_path):
    rel = Relation([Attribute("a", NumericalDomain(0, 1))])
    path = tmp_path / "data.csv"
    path.write_text("wrong\n0.5\n")
    with pytest.raises(ValueError, match="header"):
        read_table_csv(rel, str(path))


@pytest.mark.parametrize("name", ["br2000", "tax"])
def test_bundle_round_trip_other_datasets(name, tmp_path):
    dataset = load(name, n=25, seed=3)
    directory = tmp_path / name
    save_bundle(str(directory), dataset.table, dataset.dcs)
    bundle = load_bundle(str(directory))
    assert bundle.n == 25
    for attr in dataset.relation:
        np.testing.assert_allclose(
            bundle.table.column(attr.name).astype(float),
            dataset.table.column(attr.name).astype(float))
