"""Tests for the repro-kamino command-line interface."""

import json

import numpy as np
import pytest

from repro import cli
from repro.cli import build_parser, infer_schema, main
from repro.datasets import load
from repro.io import load_bundle, save_bundle
from repro.privacy.ledger import PrivacyLedger


@pytest.fixture
def tpch_bundle(tmp_path):
    dataset = load("tpch", n=80, seed=0)
    directory = tmp_path / "tpch"
    save_bundle(str(directory), dataset.table, dataset.dcs)
    return str(directory)


# ----------------------------------------------------------------------
# Schema inference
# ----------------------------------------------------------------------
def test_infer_schema_mixed_types(tmp_path):
    path = tmp_path / "raw.csv"
    rows = ["name,score,age"]
    rng = np.random.default_rng(0)
    for i in range(60):
        rows.append(f"user{i % 3},{rng.uniform():.6f},{20 + i}")
    path.write_text("\n".join(rows) + "\n")
    rel = infer_schema(str(path))
    assert rel["name"].is_categorical
    assert rel["name"].domain.size == 3
    assert rel["score"].is_numerical and not rel["score"].domain.integer
    assert rel["age"].is_numerical and rel["age"].domain.integer


def test_infer_schema_numeric_small_cardinality_is_categorical(tmp_path):
    path = tmp_path / "raw.csv"
    lines = ["flag"] + [str(i % 2) for i in range(50)]
    path.write_text("\n".join(lines) + "\n")
    rel = infer_schema(str(path), categorical_threshold=20)
    assert rel["flag"].is_categorical


def test_infer_schema_rejects_empty(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("a,b\n")
    with pytest.raises(ValueError, match="no data rows"):
        infer_schema(str(path))


def test_infer_schema_rejects_ragged(tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("a,b\n1\n")
    with pytest.raises(ValueError, match="cells"):
        infer_schema(str(path))


def test_cmd_infer_schema_writes_file(tmp_path, capsys):
    path = tmp_path / "raw.csv"
    path.write_text("x\n" + "\n".join(str(i) for i in range(30)) + "\n")
    out = tmp_path / "schema.json"
    assert main(["infer-schema", str(path), "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert data["format"] == "repro.schema/1"


def test_cmd_infer_schema_stdout(tmp_path, capsys):
    path = tmp_path / "raw.csv"
    path.write_text("x\na\nb\n")
    assert main(["infer-schema", str(path)]) == 0
    out = capsys.readouterr().out
    assert '"categorical"' in out


# ----------------------------------------------------------------------
# check / discover
# ----------------------------------------------------------------------
def test_cmd_check_reports_violations(tpch_bundle, capsys):
    assert main(["check", tpch_bundle]) == 0
    out = capsys.readouterr().out
    assert "phi_h1" in out and "hard" in out


def test_cmd_check_without_dcs(tmp_path, capsys):
    dataset = load("tpch", n=20, seed=0)
    directory = tmp_path / "nodc"
    save_bundle(str(directory), dataset.table)
    assert main(["check", str(directory)]) == 0
    assert "no DCs" in capsys.readouterr().out


def test_cmd_discover_prints_parseable_dcs(tpch_bundle, capsys):
    assert main(["discover", tpch_bundle, "--limit", "4"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert 0 < len(out) <= 4
    from repro.constraints.parser import parse_dc
    for line in out:
        head, _, body = line.partition(":")
        parse_dc(body.strip())  # must round-trip through the grammar


def test_cmd_discover_minimize_prunes(tpch_bundle, capsys):
    assert main(["discover", tpch_bundle, "--limit", "32"]) == 0
    full = len(capsys.readouterr().out.strip().splitlines())
    assert main(["discover", tpch_bundle, "--limit", "32",
                 "--minimize"]) == 0
    minimized = len(capsys.readouterr().out.strip().splitlines())
    assert 0 < minimized <= full


# ----------------------------------------------------------------------
# synthesize / evaluate / ledger
# ----------------------------------------------------------------------
def test_cmd_synthesize_and_evaluate(tpch_bundle, tmp_path, capsys):
    out_dir = tmp_path / "synth"
    ledger_path = tmp_path / "ledger.json"
    code = main(["synthesize", tpch_bundle, "--epsilon", "1.0",
                 "--out", str(out_dir), "--max-iterations", "8",
                 "--ledger", str(ledger_path)])
    assert code == 0
    text = capsys.readouterr().out
    assert "privacy: epsilon=" in text
    assert "ledger" in text

    bundle = load_bundle(str(out_dir))
    assert bundle.n == 80
    ledger = PrivacyLedger.load(str(ledger_path))
    assert len(ledger) == 1
    assert 0 < ledger.spent_epsilon() <= 1.0 + 1e-6

    code = main(["evaluate", tpch_bundle, str(out_dir), "--alpha", "1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Metric I" in out and "Metric III" in out


def test_cmd_synthesize_non_private(tpch_bundle, tmp_path, capsys):
    out_dir = tmp_path / "synth_np"
    code = main(["synthesize", tpch_bundle, "--epsilon", "inf",
                 "--out", str(out_dir), "--max-iterations", "8",
                 "--n", "40"])
    assert code == 0
    bundle = load_bundle(str(out_dir))
    assert bundle.n == 40
    assert "privacy:" not in capsys.readouterr().out


def test_cmd_fit_then_sample_many(tpch_bundle, tmp_path, capsys):
    """fit once -> two samples at different seeds/sizes, no retraining."""
    model_path = tmp_path / "model.npz"
    ledger_path = tmp_path / "ledger.json"
    code = main(["fit", tpch_bundle, "--epsilon", "1.0",
                 "--max-iterations", "8", "--out", str(model_path),
                 "--ledger", str(ledger_path)])
    assert code == 0
    text = capsys.readouterr().out
    assert "wrote fitted model" in text and "privacy: epsilon=" in text

    schema = f"{tpch_bundle}/schema.json"
    dcs = f"{tpch_bundle}/dcs.txt"
    out_a, out_b = tmp_path / "synth_a", tmp_path / "synth_b"
    for out, n, seed in ((out_a, "40", "1"), (out_b, "120", "2")):
        code = main(["sample", str(model_path), "--schema", schema,
                     "--dcs", dcs, "--out", str(out), "--n", n,
                     "--seed", seed])
        assert code == 0
        assert "no privacy spend" in capsys.readouterr().out
    assert load_bundle(str(out_a)).n == 40
    assert load_bundle(str(out_b)).n == 120

    # Only the fit consumed budget: one ledger entry, within epsilon.
    ledger = PrivacyLedger.load(str(ledger_path))
    assert len(ledger) == 1
    assert 0 < ledger.spent_epsilon() <= 1.0 + 1e-6

    # The sampled bundles evaluate cleanly against the truth.
    assert main(["evaluate", tpch_bundle, str(out_b)]) == 0
    out = capsys.readouterr().out
    assert "Metric I" in out and "Metric III" in out


def test_cmd_sample_deterministic_per_seed(tpch_bundle, tmp_path, capsys):
    model_path = tmp_path / "model.npz"
    assert main(["fit", tpch_bundle, "--epsilon", "inf",
                 "--max-iterations", "8", "--out", str(model_path)]) == 0
    schema = f"{tpch_bundle}/schema.json"
    outs = []
    for name in ("s1", "s2"):
        out = tmp_path / name
        assert main(["sample", str(model_path), "--schema", schema,
                     "--out", str(out), "--n", "30", "--seed", "7"]) == 0
        outs.append(load_bundle(str(out)).table)
    capsys.readouterr()
    for attr in outs[0].relation.names:
        np.testing.assert_array_equal(outs[0].column(attr),
                                      outs[1].column(attr))


def test_cmd_synthesize_save_model_round_trip(tpch_bundle, tmp_path,
                                              capsys):
    out_dir = tmp_path / "synth"
    model_path = tmp_path / "model.npz"
    code = main(["synthesize", tpch_bundle, "--epsilon", "1.0",
                 "--out", str(out_dir), "--max-iterations", "8",
                 "--save-model", str(model_path)])
    assert code == 0
    assert "wrote fitted model" in capsys.readouterr().out
    # The saved model reproduces the synthesize draw (default state).
    resampled = tmp_path / "resampled"
    assert main(["sample", str(model_path),
                 "--schema", f"{tpch_bundle}/schema.json",
                 "--dcs", f"{tpch_bundle}/dcs.txt",
                 "--out", str(resampled)]) == 0
    capsys.readouterr()
    a = load_bundle(str(out_dir)).table
    b = load_bundle(str(resampled)).table
    for attr in a.relation.names:
        np.testing.assert_array_equal(a.column(attr), b.column(attr))


def test_cmd_evaluate_alpha_defaults(tpch_bundle, tmp_path, capsys):
    """--alpha has a true parser-level default of (1, 2)."""
    from repro.cli import build_parser
    parser = build_parser()
    args = parser.parse_args(["evaluate", "a", "b"])
    assert tuple(args.alpha) == (1, 2)
    args = parser.parse_args(["evaluate", "a", "b", "--alpha", "3"])
    assert args.alpha == [3]
    args = parser.parse_args(["evaluate", "a", "b",
                              "--alpha", "1", "--alpha", "3"])
    assert args.alpha == [1, 3]
    # The default tuple is never mutated by an invocation.
    args = parser.parse_args(["evaluate", "a", "b"])
    assert tuple(args.alpha) == (1, 2)


def test_cmd_evaluate_schema_mismatch(tpch_bundle, tmp_path, capsys):
    other = load("adult", n=20, seed=0)
    directory = tmp_path / "adult"
    save_bundle(str(directory), other.table, other.dcs)
    assert main(["evaluate", tpch_bundle, str(directory)]) == 2


def test_cmd_ledger_summary(tmp_path, capsys):
    ledger = PrivacyLedger(delta=1e-6)
    ledger.record_gaussian("hist", sigma=2.0)
    path = tmp_path / "ledger.json"
    ledger.save(str(path))
    assert main(["ledger", str(path)]) == 0
    assert "TOTAL" in capsys.readouterr().out


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cmd_check_show_rows(tmp_path, capsys):
    dataset = load("br2000", n=60, seed=0)  # soft DCs -> violations exist
    directory = tmp_path / "br"
    save_bundle(str(directory), dataset.table, dataset.dcs)
    assert main(["check", str(directory), "--show-rows", "2"]) == 0
    out = capsys.readouterr().out
    assert "violation: row" in out


def test_cmd_sample_engine_and_workers_flags(tpch_bundle, tmp_path,
                                             capsys):
    """Draws report the engine they ran on, and --workers draws are
    bit-identical to single-worker ones."""
    model_path = tmp_path / "model.npz"
    assert main(["fit", tpch_bundle, "--epsilon", "inf",
                 "--max-iterations", "8", "--out", str(model_path)]) == 0
    schema = f"{tpch_bundle}/schema.json"
    dcs = f"{tpch_bundle}/dcs.txt"
    tables = {}
    for name, extra in (("w1", []), ("w4", ["--workers", "4"])):
        out = tmp_path / name
        assert main(["sample", str(model_path), "--schema", schema,
                     "--dcs", dcs, "--out", str(out), "--n", "60",
                     "--seed", "5"] + extra) == 0
        tables[name] = load_bundle(str(out)).table
    text = capsys.readouterr().out
    assert "via the blocked engine, no privacy spend" in text
    assert "blocked engine, workers=4" in text
    for attr in tables["w1"].relation.names:
        np.testing.assert_array_equal(tables["w1"].column(attr),
                                      tables["w4"].column(attr),
                                      err_msg=attr)


# ----------------------------------------------------------------------
# --method (the multi-backend registry paths)
# ----------------------------------------------------------------------
def test_cmd_synthesize_method_privbayes(tpch_bundle, tmp_path, capsys):
    out = tmp_path / "synth"
    assert main(["synthesize", tpch_bundle, "--method", "privbayes",
                 "--epsilon", "1.0", "--n", "50", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "method=privbayes" in text
    assert "budget ledger:" in text and "TOTAL: epsilon=1" in text
    assert load_bundle(str(out)).table.n == 50


def test_cmd_fit_sample_round_trip_backend(tpch_bundle, tmp_path, capsys):
    """A non-Kamino artifact serves deterministic draws via 'sample'."""
    model = tmp_path / "pb.npz"
    assert main(["fit", tpch_bundle, "--method", "privbayes",
                 "--epsilon", "1.0", "--out", str(model)]) == 0
    schema = f"{tpch_bundle}/schema.json"
    tables = {}
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["sample", str(model), "--schema", schema,
                     "--out", str(out), "--n", "40", "--seed", "9"]) == 0
    text = capsys.readouterr().out
    assert "method=privbayes" in text
    a = load_bundle(str(tmp_path / "a")).table
    b = load_bundle(str(tmp_path / "b")).table
    for attr in a.relation.names:
        np.testing.assert_array_equal(a.column(attr), b.column(attr),
                                      err_msg=attr)


def _ignored_flags(capsys) -> list:
    """The flags named by the ``warning: --flag ...; ignoring it`` lines
    on stderr, in order."""
    lines = capsys.readouterr().err.splitlines()
    assert all(line.startswith("warning: ") and line.endswith("ignoring it")
               for line in lines), lines
    return [line.split()[1] for line in lines]


@pytest.mark.parametrize("out, flags", [
    ("draw.csv", ["--workers", "2"]),
    ("bundle", ["--chunk-rows", "16"]),
])
def test_cmd_sample_warns_about_flags_its_path_ignores(tpch_bundle, tmp_path,
                                                       capsys, out, flags):
    """A streamed draw runs on one worker; a bundle draw never streams."""
    model = tmp_path / "model.npz"
    assert main(["fit", tpch_bundle, "--epsilon", "inf",
                 "--max-iterations", "2", "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["sample", str(model),
                 "--schema", f"{tpch_bundle}/schema.json",
                 "--dcs", f"{tpch_bundle}/dcs.txt", "--n", "20",
                 "--out", str(tmp_path / out)] + flags) == 0
    assert _ignored_flags(capsys) == flags[::2]


def test_cmd_sample_streamed_draw_writes_its_trace(tpch_bundle, tmp_path,
                                                   capsys):
    """``--trace`` on a streamed draw saves and summarises one
    ``blocked-stream`` sample with a trace per working column, each over
    all ``--n`` rows; the CSV is the single-shot draw's."""
    from repro.core import FittedKamino
    from repro.io import load_dcs, load_relation
    from repro.io.stream import write_table_stream

    model = tmp_path / "model.npz"
    assert main(["fit", tpch_bundle, "--epsilon", "inf",
                 "--max-iterations", "2", "--out", str(model)]) == 0
    capsys.readouterr()
    schema, dcs = f"{tpch_bundle}/schema.json", f"{tpch_bundle}/dcs.txt"
    out, trace = tmp_path / "draw.csv", tmp_path / "t.json"
    assert main(["sample", str(model), "--schema", schema, "--dcs", dcs,
                 "--n", "50", "--seed", "3", "--chunk-rows", "16",
                 "--out", str(out), "--trace", str(trace)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f"wrote run trace to {trace}" in captured.out
    (run,) = json.loads(trace.read_text())["samples"]
    assert (run["engine"], run["n"], run["seed"]) == \
        ("blocked-stream", 50, 3)
    relation = load_relation(schema)
    fitted = FittedKamino.load(str(model), relation,
                               load_dcs(dcs, relation=relation))
    assert [col["name"] for col in run["columns"]] == \
        list(fitted.hyper.working_sequence)
    assert all(col["rows"] == 50 and col["mode"] for col in run["columns"])
    single = tmp_path / "single.csv"
    write_table_stream(str(single), relation,
                       [fitted.sample(n=50, seed=3).table], fmt="csv")
    assert out.read_bytes() == single.read_bytes()


def test_evaluate_alpha_past_the_attribute_count_is_an_error(tpch_bundle,
                                                            capsys):
    """An order past the bundle's attribute count has no marginal sets:
    one error line naming ``--alpha``, before any metric prints."""
    assert main(["evaluate", tpch_bundle, tpch_bundle, "--alpha", "1",
                 "--alpha", "99"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --alpha 99")


def test_backend_paths_warn_about_kamino_only_flags(tpch_bundle, tmp_path,
                                                    capsys):
    assert main(["synthesize", tpch_bundle, "--method", "privbayes",
                 "--epsilon", "1.0", "--n", "20", "--out",
                 str(tmp_path / "synth"), "--workers", "2"]) == 0
    assert _ignored_flags(capsys) == ["--workers"]
    model = tmp_path / "pb.npz"
    assert main(["fit", tpch_bundle, "--method", "privbayes",
                 "--epsilon", "1.0", "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["sample", str(model),
                 "--schema", f"{tpch_bundle}/schema.json", "--n", "20",
                 "--out", str(tmp_path / "draw.csv"), "--workers", "2",
                 "--chunk-rows", "8"]) == 0
    assert _ignored_flags(capsys) == ["--workers", "--chunk-rows"]


def test_cmd_sample_method_mismatch_fails(tpch_bundle, tmp_path, capsys):
    model = tmp_path / "mst.npz"
    assert main(["fit", tpch_bundle, "--method", "nist_mst",
                 "--epsilon", "1.0", "--out", str(model)]) == 0
    assert main(["sample", str(model), "--method", "privbayes",
                 "--schema", f"{tpch_bundle}/schema.json",
                 "--out", str(tmp_path / "x")]) == 2
    assert "not 'privbayes'" in capsys.readouterr().err


def test_cmd_synthesize_method_auto_routes_on_dcs(tpch_bundle, tmp_path,
                                                  capsys):
    """tpch ships DCs, so 'auto' must route to kamino."""
    out = tmp_path / "synth"
    assert main(["synthesize", tpch_bundle, "--method", "auto",
                 "--epsilon", "inf", "--max-iterations", "4",
                 "--n", "30", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "routed to 'kamino'" in text
    assert load_bundle(str(out)).table.n == 30


# ----------------------------------------------------------------------
# Bad input: one error line and exit status 2, never a traceback
# ----------------------------------------------------------------------
def _error_line(capsys) -> str:
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    return lines[0]


def test_missing_bundle_is_an_error_line(tmp_path, capsys):
    assert main(["synthesize", str(tmp_path / "nonexistent"),
                 "--out", str(tmp_path / "out")]) == 2
    assert "schema.json" in _error_line(capsys)


@pytest.mark.parametrize("value, message", [
    ("-1", "must be positive"),
    ("abc", "not a number"),
])
def test_bad_epsilon_is_a_usage_error(tpch_bundle, tmp_path, capsys, value,
                                      message):
    with pytest.raises(SystemExit) as exc:
        main(["synthesize", tpch_bundle, "--epsilon", value,
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --epsilon" in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["sample", "model.npz", "--out", "out"],
    ["fit", "bundle", "--out", "m.npz"],
    ["synthesize", "bundle", "--out", "out"],
    ["evaluate", "real", "synth"],
])
@pytest.mark.parametrize("value, message", [
    ("-1", "must be >= 0"),
    ("1.5", "not an integer"),
])
def test_bad_seed_is_a_usage_error(capsys, argv, value, message):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed" in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command, flag, value, message", [
    ("sample", "--n", "-5", "must be >= 0"),
    ("sample", "--n", "2.5", "not an integer"),
    ("sample", "--workers", "-1", "must be >= 0"),
    ("sample", "--chunk-rows", "0", "must be >= 1"),
    ("synthesize", "--n", "-3", "must be >= 0"),
    ("synthesize", "--workers", "-2", "must be >= 0"),
    ("synthesize", "--max-iterations", "-1", "must be >= 0"),
    ("fit", "--max-iterations", "1.5", "not an integer"),
    ("serve", "--chunk-rows", "0", "must be >= 1"),
    ("serve", "--hot-limit", "0", "must be >= 1"),
    ("serve", "--max-pending", "0", "must be >= 1"),
    ("serve", "--cache-max-bytes", "-5", "must be >= 0"),
    ("serve", "--timeout", "0", "must be a finite number > 0"),
    ("serve", "--timeout", "inf", "must be a finite number > 0"),
    ("serve", "--port", "70000", "must be <= 65535"),
    ("serve", "--port", "-1", "must be >= 0"),
    ("evaluate", "--alpha", "-1", "must be >= 1"),
    ("evaluate", "--alpha", "0", "must be >= 1"),
    ("evaluate", "--max-sets", "0", "must be >= 1"),
    ("evaluate", "--max-sets", "-3", "must be >= 1"),
])
def test_bad_integer_flag_is_a_usage_error(tpch_bundle, tmp_path, capsys,
                                           monkeypatch, command, flag,
                                           value, message):
    """Rejected while parsing, before any fit, draw or server start."""
    # A flag that slipped through would run the command (``serve``
    # would block for good): fail instead.
    monkeypatch.setattr(cli, f"cmd_{command}",
                        lambda args: pytest.fail(f"{command} ran"))
    out = tmp_path / "out.csv"
    argv = {
        "sample": ["sample", str(tmp_path / "model.npz"), "--schema",
                   f"{tpch_bundle}/schema.json", "--out", str(out)],
        "synthesize": ["synthesize", tpch_bundle, "--out", str(out)],
        "fit": ["fit", tpch_bundle, "--out", str(out)],
        "serve": ["serve", "--models-dir", str(out)],
        "evaluate": ["evaluate", tpch_bundle, str(out)],
    }[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err and message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_epsilon_inf_or_none_is_non_private():
    for text in ("inf", "none"):
        args = build_parser().parse_args(
            ["fit", "bundle", "--epsilon", text, "--out", "m.npz"])
        assert args.epsilon == float("inf")
    assert build_parser().parse_args(
        ["fit", "bundle", "--out", "m.npz"]).epsilon == 1.0


def test_config_error_is_an_error_line(tpch_bundle, tmp_path, capsys):
    assert main(["synthesize", tpch_bundle, "--delta", "2",
                 "--out", str(tmp_path / "out")]) == 2
    assert "delta must be in (0, 1)" in _error_line(capsys)


def test_malformed_dc_text_is_an_error_line(tpch_bundle, capsys):
    with open(f"{tpch_bundle}/dcs.txt", "a") as f:
        f.write("broken hard: not(ti.o_custkey ?? tj.o_custkey)\n")
    assert main(["check", tpch_bundle]) == 2
    line = _error_line(capsys)
    assert "dcs.txt:5: missing operator" in line


@pytest.mark.parametrize("line, message", [
    ("bad hard: not(ti.nosuch == tj.age)", "no attribute 'nosuch'"),
    ("bad hard: not(ti.sex == 'Nope')", "'Nope' is not a value of 'sex'"),
    ("bad hard: not(ti.age == 'x')", "'x' is not a number"),
    ("bad hard: not(ti.sex == 999)", "code 999 is outside"),
], ids=["attribute", "categorical-value", "numerical-constant",
        "categorical-code"])
def test_dc_outside_the_schema_is_an_error_before_fit(tmp_path, capsys,
                                                      line, message):
    """A DC the schema cannot hold is one ``error:`` line naming it,
    before the fit spends any budget: exit 2 and no model file."""
    dataset = load("adult", n=60, seed=0)
    bundle = tmp_path / "adult"
    save_bundle(str(bundle), dataset.table, dataset.dcs)
    with open(bundle / "dcs.txt", "a") as f:
        f.write(line + "\n")
    model = tmp_path / "model.npz"
    assert main(["fit", str(bundle), "--epsilon", "1.0",
                 "--max-iterations", "4", "--out", str(model)]) == 2
    error = _error_line(capsys)
    assert "DC 'bad' does not fit the schema" in error
    assert message in error
    assert not model.exists()


def test_corrupt_model_is_an_error_line(tpch_bundle, tmp_path, capsys):
    model = tmp_path / "model.npz"
    model.write_bytes(b"not a model")
    assert main(["sample", str(model),
                 "--schema", f"{tpch_bundle}/schema.json",
                 "--out", str(tmp_path / "out"), "--n", "10"]) == 2
    assert str(model) in _error_line(capsys)


def test_cross_attribute_dc_streams_to_csv(tmp_path, capsys):
    """A DC comparing two attributes counts in its violation index, so
    the draw streams in chunks (it once needed the sampled prefix) and
    the file equals the single-shot draw's export."""
    from repro.constraints import parse_dc
    from repro.core import FittedKamino
    from repro.io.stream import write_table_stream

    ds = load("adult", n=80, seed=0)
    cross = parse_dc("not(ti.age < tj.hours and ti.hours < tj.age)",
                     name="cross", hard=False, relation=ds.relation)
    bundle = tmp_path / "bundle"
    save_bundle(str(bundle), ds.table, ds.dcs + [cross])
    model = tmp_path / "model.npz"
    assert main(["fit", str(bundle), "--epsilon", "inf",
                 "--max-iterations", "2", "--out", str(model)]) == 0
    capsys.readouterr()
    out = tmp_path / "draw.csv"
    assert main(["sample", str(model), "--schema", f"{bundle}/schema.json",
                 "--dcs", f"{bundle}/dcs.txt", "--n", "300", "--seed", "3",
                 "--chunk-rows", "64", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    loaded = load_bundle(str(bundle))
    fitted = FittedKamino.load(str(model), loaded.relation, loaded.dcs)
    direct = tmp_path / "direct.csv"
    write_table_stream(str(direct), loaded.relation,
                       iter([fitted.sample(n=300, seed=3).table]),
                       fmt="csv")
    assert out.read_bytes() == direct.read_bytes()


def test_br2000_streams_to_csv(tmp_path, capsys):
    ds = load("br2000", n=80, seed=0)
    bundle = tmp_path / "bundle"
    save_bundle(str(bundle), ds.table, ds.dcs)
    model = tmp_path / "model.npz"
    assert main(["fit", str(bundle), "--epsilon", "1.0",
                 "--max-iterations", "4", "--out", str(model)]) == 0
    out = tmp_path / "draw.csv"
    assert main(["sample", str(model), "--schema", f"{bundle}/schema.json",
                 "--dcs", f"{bundle}/dcs.txt", "--n", "600", "--seed", "3",
                 "--chunk-rows", "128", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 601
