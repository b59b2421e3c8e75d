"""Exit codes, output envelopes, and determinism of the command-line tool."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import fliessnet
from fliessnet import (
    MaximalSeriesSpec,
    NetworkSpec,
    Series,
    complete_reldeg,
    io_map,
    network_to_json,
    relative_degree,
)
from fliessnet.cli import COMMANDS, run
from conftest import double_diamond_net, five_node_net, four_node_net, ladder_net

SRC = str(Path(fliessnet.__file__).resolve().parents[1])


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    """The command line in a child process that imports fliessnet from SRC,
    with every warning an error there as in the tests themselves."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-W", "error", "-m", "fliessnet.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True)


@pytest.fixture
def four_node_file(tmp_path):
    net = four_node_net(Fraction(2, 3), Fraction(1, 5), Fraction(3, 7), Fraction(4, 9))
    path = tmp_path / "four.json"
    path.write_text(json.dumps(network_to_json(net)))
    return str(path)


@pytest.fixture
def big_response_file(tmp_path):
    """A loop-free net whose one node 10**308 x0 x0 responds past the floats by t = 10."""
    path = tmp_path / "big.json"
    net = NetworkSpec(1, [[0]], [Series(1, 2, {(0, 0): 10**308})])
    path.write_text(json.dumps(network_to_json(net)))
    return str(path)


RESPONSE_PAST_THE_FLOATS = {"type": "DomainError",
                            "message": "the series response lies outside the float range"}


@pytest.fixture
def dd_file(tmp_path):
    path = tmp_path / "dd.json"
    path.write_text(json.dumps(network_to_json(double_diamond_net())))
    return str(path)


@pytest.fixture
def five_file(tmp_path):
    path = tmp_path / "five.json"
    path.write_text(json.dumps(network_to_json(five_node_net())))
    return str(path)


@pytest.fixture
def drift_file(tmp_path):
    """Node 2's series is x0 alone, so no relative degree can be predicted for it."""
    net = NetworkSpec(2, [[0, 0], [1, 0]], [Series(1, 3, {(1,): 1}), Series(1, 3, {(0,): 1})])
    path = tmp_path / "drift.json"
    path.write_text(json.dumps(network_to_json(net)))
    return str(path)


@pytest.fixture
def maximal_file(tmp_path):
    doc = {"m": 1, "W": [["1"]], "nodes": [{"kind": "maximal", "K": "1", "M": "1"}]}
    path = tmp_path / "one.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(argv, capsys):
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0, out
    return json.loads(out)


class TestBasics:
    def test_version_flag(self, capsys):
        assert run(["--version"]) == 0
        assert "fliessnet" in capsys.readouterr().out

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0

    def test_no_subcommand_is_usage_error(self, capsys):
        assert run([]) == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run(["abel", "--m", "1", "--wat", "3"]) == 2

    def test_every_subcommand_has_schema(self, four_node_file, maximal_file, tmp_path, capsys):
        """A real run's result has exactly the --schema fields, each of its declared type."""
        net = ["--net", four_node_file]
        pair = ["--from", "1", "--to", "4", "--degree", "4"]
        traj = str(tmp_path / "traj.csv")
        runs = {
            "iomap": ["iomap", *net, *pair],
            "reldeg": ["reldeg", *net, *pair],
            "bounds": ["bounds", "--m", "2", "--K", "3/2", "--M", "1"],
            "abel": ["abel", "--m", "2", "--K", "1", "--M", "1", "--n", "4", "--format", "json"],
            "simulate": ["simulate", "--net", maximal_file, "--T", "0.4", "--n", "20", "--out", traj],
            "montecarlo": ["montecarlo", *net, "--degree", "3", "--samples", "2", "--seed", "1",
                           "--from", "1", "--to", "4", "--word", "x0 x0 x1"],
            "validate": ["validate", *net, *pair, "--T", "0.3", "--n", "20"],
        }
        assert sorted(runs) == sorted(COMMANDS)
        for sub, argv in runs.items():
            schema = run_json([sub, "--schema"], capsys)
            assert schema["properties"]["meta"], sub
            if sub == "simulate":
                assert run(argv) == 0
                result = json.loads((tmp_path / "traj.csv.meta.json").read_text())["result"]
            else:
                result = run_json(argv, capsys)["result"]
            declared = schema["properties"]["result"]["properties"]
            assert set(result) == set(declared), sub
            for key, value in result.items():
                assert matches_json_type(value, declared[key]), (sub, key, value)

    def test_unread_flags_are_rejected(self, four_node_file, maximal_file, tmp_path, capsys):
        net = ["--net", four_node_file]
        pair = ["--from", "1", "--to", "4", "--degree", "3"]
        traj = ["--net", maximal_file, "--T", "0.4", "--out", str(tmp_path / "t.csv")]
        base = {
            "iomap": ["iomap", *net, *pair],
            "reldeg": ["reldeg", *net, *pair],
            "validate": ["validate", *net, *pair, "--T", "0.3"],
            "bounds": ["bounds", "--m", "2", "--K", "1", "--M", "1"],
            "abel": ["abel", "--m", "2", "--K", "1", "--M", "1", "--n", "3"],
            "simulate": ["simulate", *traj],
            "montecarlo": ["montecarlo", *net, "--degree", "3", "--samples", "2", "--seed", "1"],
        }
        unread = [("iomap", "--seed"), ("reldeg", "--seed"), ("validate", "--seed"),
                  ("bounds", "--seed"), ("abel", "--seed"), ("simulate", "--seed"),
                  ("bounds", "--net"), ("abel", "--net"), ("bounds", "--degree"),
                  ("abel", "--degree"), ("simulate", "--format"), ("simulate", "--degree"),
                  ("simulate", "--method"), ("montecarlo", "--jobs")]
        values = {"--format": "json", "--method": "ode"}
        for sub, flag in unread:
            value = values.get(flag, "3")
            assert run(base[sub] + [flag, value]) == 2, (sub, flag)
            assert "unrecognized arguments" in capsys.readouterr().err


class TestErrors:
    def test_missing_network_file(self, capsys):
        assert run(["iomap", "--net", "/no/such.json", "--from", "1", "--to", "2", "--degree", "3"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_required_flags(self, four_node_file, capsys):
        assert run(["iomap", "--net", four_node_file]) == 2
        err = capsys.readouterr().err
        assert "--from" in err and "--to" in err and "--degree" in err

    def test_domain_error_is_structured(self, four_node_file, capsys):
        code = run(["iomap", "--net", four_node_file, "--from", "9", "--to", "1", "--degree", "2"])
        assert code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["error"]["type"] == "NodeIndexError"
        assert "9" in doc["error"]["message"]

    def test_montecarlo_requires_seed(self, four_node_file, capsys):
        code = run(["montecarlo", "--net", four_node_file, "--degree", "3", "--samples", "2"])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"m": 1, "W": [["1"]], "nodes": [{"kind": "poly", "terms": [{"word": [1.9], "coeff": "1"}]}]},
        {"m": 1, "W": [["1"]], "nodes": [{"kind": "poly", "terms": [{"word": "01", "coeff": "1"}]}]},
        {"m": True, "W": [["1"]], "nodes": [{"kind": "maximal", "K": "1", "M": "1"}]},
        {"m": 1, "W": [None], "nodes": [{"kind": "maximal", "K": "1", "M": "1"}]},
    ], ids=["float letter", "string word", "bool m", "null W row"])
    def test_malformed_network_is_a_structured_parse_error(self, doc, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = run(["iomap", "--net", str(path), "--from", "1", "--to", "1", "--degree", "2"])
        assert code == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "ParseError"

    @pytest.mark.parametrize("raw", [b'{"m": 1, "W": [["1"]],', b"\xff\xfe{}"],
                             ids=["truncated JSON", "not UTF-8"])
    def test_unreadable_network_file_is_a_structured_parse_error(self, raw, tmp_path):
        """Both files once ended the process in a decode traceback."""
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        proc = run_cli("iomap", "--net", str(path), "--from", "1", "--to", "1", "--degree", "2")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"]["type"] == "ParseError"
        assert "Traceback" not in proc.stderr

    def test_reldeg_network_file_not_utf8_is_a_structured_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        code = run(["reldeg", "--net", str(path), "--from", "1", "--to", "1", "--degree", "2"])
        out, err = capsys.readouterr()
        assert code == 1
        assert json.loads(out)["error"]["type"] == "ParseError"
        assert err == ""

    def test_negative_seed_is_a_structured_domain_error(self, four_node_file):
        """numpy's seed sequence once ended the process in a ValueError traceback."""
        proc = run_cli("montecarlo", "--net", four_node_file,
                       "--degree", "3", "--samples", "2", "--seed", "-1")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"]["type"] == "DomainError"
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("K,M", [("1e400", "1"), ("1e-400", "1"), ("1", "1e-400")])
    def test_bounds_outside_the_float_range_are_a_structured_domain_error(self, K, M):
        """These once ended the process in an OverflowError or
        ZeroDivisionError traceback."""
        proc = run_cli("bounds", "--m", "1", "--K", K, "--M", M)
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"]["type"] == "DomainError"
        assert "Traceback" not in proc.stderr


    BIG_POLY = Series(1, 1, {(1,): 10**400})
    SIMULATE = ["simulate", "--T", "0.1", "--n", "10", "--out", "o.csv"]

    @pytest.mark.parametrize("node, argv, what", [
        (BIG_POLY, SIMULATE, "a series coefficient"),
        (BIG_POLY, ["validate", "--from", "1", "--to", "1", "--degree", "2", "--T", "0.1",
                    "--n", "10"], "a series coefficient"),
        (BIG_POLY, ["montecarlo", "--degree", "2", "--seed", "1", "--samples", "2", "--from", "1",
                    "--to", "1", "--word", "x1"], "the designated coefficient"),
        (MaximalSeriesSpec(10**400, 1), SIMULATE, "a node constant K"),
    ], ids=["simulate-coefficient", "validate", "montecarlo", "simulate-K"])
    def test_exact_value_past_the_floats_is_a_structured_domain_error(
            self, node, argv, what, tmp_path, monkeypatch, capsys):
        """A node value of 10**400 once ended each command in an OverflowError traceback."""
        monkeypatch.chdir(tmp_path)
        Path("big.json").write_text(json.dumps(network_to_json(NetworkSpec(1, [[0]], [node]))))
        assert run([argv[0], "--net", "big.json", *argv[1:]]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "DomainError", "message": f"{what} lies outside the float range"}
        assert not Path("o.csv").exists()

    def test_weight_past_the_floats_is_a_structured_domain_error(self, tmp_path, capsys):
        """W21 = 10**400 once ended simulate in an OverflowError traceback."""
        x1 = Series(1, 1, {(1,): 1})
        path, out = tmp_path / "big.json", tmp_path / "o.csv"
        with pytest.warns(UserWarning, match="weight above 1"):
            net = NetworkSpec(2, [[0, 0], [10**400, 0]], [x1, x1])
            path.write_text(json.dumps(network_to_json(net)))
            assert run(["simulate", "--net", str(path), "--T", "0.1", "--n", "10",
                        "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "DomainError",
            "message": "an interconnection weight lies outside the float range"}
        assert not out.exists()


class TestIomap:
    def test_json_terms(self, four_node_file, capsys):
        doc = run_json(
            ["iomap", "--net", four_node_file, "--from", "1", "--to", "4", "--degree", "5"],
            capsys,
        )
        assert doc["meta"]["tool"] == "fliessnet"
        assert len(doc["meta"]["input_sha256"]) == 64
        terms = {tuple(t["word"]): t["coeff"] for t in doc["result"]["terms"]}
        assert terms == {(0, 0, 1): "62/315"}

    def test_csv_preamble(self, four_node_file, capsys):
        code = run(["iomap", "--net", four_node_file, "--from", "1", "--to", "4",
                    "--degree", "5", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# tool: fliessnet")
        assert lines[4] == "word,coeff"
        assert any("62/315" in line for line in lines)


JSON_TYPES = {
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "null": lambda v: v is None,
}


def matches_json_type(value, schema) -> bool:
    kinds = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
    if not any(JSON_TYPES[kind](value) for kind in kinds):
        return False
    if isinstance(value, list):
        return all(matches_json_type(item, schema["items"]) for item in value)
    if isinstance(value, dict) and "properties" in schema:
        props = schema["properties"]
        return set(value) == set(props) and all(
            matches_json_type(v, props[k]) for k, v in value.items()
        )
    return True


class TestReldeg:
    def test_double_diamond_prediction(self, dd_file, capsys):
        doc = run_json(
            ["reldeg", "--net", dd_file, "--from", "1", "--to", "7", "--degree", "7"],
            capsys,
        )
        res = doc["result"]
        assert res["measured"] == 7
        assert res["predicted"] == 7
        assert res["condition"] == "distinct"
        assert res["consistent"] is True
        assert res["measured_status"] == "defined"

    def test_every_pair_agrees_with_the_library(self, five_file, capsys):
        """The CLI's verdict is complete_reldeg's, including consistent=None
        when the certificate is violated_unknown (the pair (1, 4))."""
        table = complete_reldeg(five_node_net(), 6)
        for (i, j), report in table.items():
            res = run_json(["reldeg", "--net", five_file, "--from", str(i), "--to", str(j),
                            "--degree", "6"], capsys)["result"]
            pred = report.predicted
            assert res["measured"] == report.measured.r, (i, j)
            assert res["measured_status"] == report.measured.status, (i, j)
            assert res["predicted"] == (None if pred is None else pred.r_pred), (i, j)
            assert res["condition"] == (None if pred is None else pred.condition), (i, j)
            assert res["consistent"] == report.consistent, (i, j)
            assert res.get("prediction_error") == report.prediction_error, (i, j)
        assert table[(1, 4)].predicted.condition == "violated_unknown"
        assert table[(1, 4)].consistent is None

    def test_prediction_failure_still_reports_the_measurement(self, drift_file, capsys):
        doc = run_json(["reldeg", "--net", drift_file, "--from", "1", "--to", "2",
                        "--degree", "4"], capsys)
        res = doc["result"]
        assert res["measured_status"] == "undetermined_at_truncation"
        assert res["predicted"] is None
        assert res["condition"] is None
        assert res["consistent"] is None
        assert "undetermined_at_truncation" in res["prediction_error"]
        code = run(["reldeg", "--net", drift_file, "--from", "1", "--to", "2",
                    "--degree", "4", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1].startswith("prediction_error,relative degree is undetermined")


    def test_over_budget_prediction_still_reports_the_measurement(self, tmp_path, capsys):
        """26 forward-path candidates exceed the default budget of 24."""
        net = ladder_net(26)
        path = tmp_path / "ladder.json"
        path.write_text(json.dumps(network_to_json(net)))
        res = run_json(["reldeg", "--net", str(path), "--from", "1", "--to", "26",
                        "--degree", "3"], capsys)["result"]
        assert res["measured_status"] == relative_degree(io_map(net, 1, 26, 3)).status
        assert res["predicted"] is None and res["consistent"] is None
        assert res["prediction_error"] == "26 candidate nodes exceed the budget of 24"


class TestBoundsAndAbel:
    def test_bounds_values(self, capsys):
        doc = run_json(["bounds", "--m", "3", "--K", "3", "--M", "4"], capsys)
        assert doc["result"]["M_inf"] == pytest.approx(77.28668240617978, rel=1e-14)
        assert doc["result"]["t_star"] == pytest.approx(0.01293883976989082, rel=1e-14)

    def test_abel_defaults_to_csv(self, capsys):
        assert run(["abel", "--m", "1", "--K", "1", "--M", "1", "--n", "6"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[4] == "n,a_n,Mhat_n"
        assert lines[5] == "0,1,"
        assert lines[8] == "3,82,41/15"
        assert lines[11] == "6,247210,123605/41334"

    def test_abel_json_arrays(self, capsys):
        doc = run_json(["abel", "--m", "2", "--K", "1", "--M", "1", "--n", "5",
                        "--format", "json"], capsys)
        assert doc["result"]["a"] == ["1", "3", "24", "318", "5892", "140304"]

    def test_rational_arguments(self, capsys):
        doc = run_json(["bounds", "--m", "2", "--K", "7/2", "--M", "3/4"], capsys)
        assert doc["result"]["Kbar"] == "7/2"


class TestSimulate:
    def test_requires_out(self, maximal_file, capsys):
        assert run(["simulate", "--net", maximal_file, "--T", "0.4"]) == 2

    def test_writes_csv_and_sidecar(self, maximal_file, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = run(["simulate", "--net", maximal_file, "--T", "0.4", "--n", "100",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[4] == "t,y_1"
        assert len(lines) == 4 + 1 + 101
        meta = json.loads((tmp_path / "traj.csv.meta.json").read_text())
        assert meta["result"]["method"] == "ode"
        assert meta["result"]["escape_time"] == pytest.approx(0.30685, abs=1e-3)

    def test_picard_method_on_polynomial_net(self, four_node_file, tmp_path, capsys):
        out = tmp_path / "p.csv"
        code = run(["simulate", "--net", four_node_file, "--T", "1.0", "--n", "50",
                    "--out", str(out)])
        assert code == 0
        meta = json.loads((tmp_path / "p.csv.meta.json").read_text())
        assert meta["result"]["method"] == "picard"
        assert meta["result"]["escape_time"] is None

    def test_diverging_picard_is_no_convergence(self, tmp_path, capsys):
        """The sec^2 t net past its escape at pi/2 once printed numpy's overflow
        warning and failed with DomainError('input signal must be finite')."""
        net = NetworkSpec(1, [[1]], [Series(1, 2, {(): 1, (1, 1): 2})])
        path = tmp_path / "sec2.json"
        path.write_text(json.dumps(network_to_json(net)))
        out = tmp_path / "o.csv"
        assert run(["simulate", "--net", str(path), "--T", "2", "--out", str(out)]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "NoConvergence"
        assert re.fullmatch(r"Picard iteration diverged: sweep \d+ left the node inputs non-finite",
                            error["message"])
        assert not out.exists()

    def test_ode_past_the_floats_at_t0_is_a_domain_error(self, tmp_path, capsys):
        """One maximal node with K = M = 10**200 once printed numpy overflow
        warnings and a traceback ending in IndexError."""
        net = NetworkSpec(1, [[0]], [MaximalSeriesSpec(10**200, 10**200)])
        path = tmp_path / "big.json"
        path.write_text(json.dumps(network_to_json(net)))
        out = tmp_path / "big.csv"
        assert run(["simulate", "--net", str(path), "--T", "0.3", "--out", str(out)]) == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "DomainError",
                         "message": "the ODE right-hand side leaves the float range at t0"}
        assert not out.exists()

    def test_response_past_the_floats_is_a_domain_error(self, big_response_file, tmp_path):
        """The net has no loop, yet it once failed with 'Picard iteration
        diverged: sweep 1', as 0 * inf in the feedback left a NaN."""
        out = tmp_path / "o.csv"
        proc = run_cli("simulate", "--net", big_response_file, "--T", "10", "--n", "10",
                       "--out", str(out))
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"] == RESPONSE_PAST_THE_FLOATS
        assert proc.stderr == ""
        assert not out.exists()

    def test_loop_free_response_past_the_floats_after_sweep_1(self, tmp_path):
        """Node 2 overflows only once node 1's response reaches it. No cycle
        feeds it, yet the command once failed with 'Picard iteration
        diverged: sweep 2'."""
        path, out = tmp_path / "cascade.json", tmp_path / "o.csv"
        net = NetworkSpec(2, [[0, 0], [1, 0]], [Series(1, 1, {(0,): 10**200}),
                                                Series(1, 2, {(1, 1): 10**200})])
        path.write_text(json.dumps(network_to_json(net)))
        proc = run_cli("simulate", "--net", str(path), "--T", "1", "--n", "10", "--out", str(out))
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"] == RESPONSE_PAST_THE_FLOATS
        assert proc.stderr == ""
        assert not out.exists()

    def test_word_past_the_recursion_limit(self, tmp_path, capsys):
        """A node x0^1100 x1 once ended the Picard route in a RecursionError."""
        net = NetworkSpec(1, [[1]], [Series(1, 1101, {(0,) * 1100 + (1,): 1})])
        path = tmp_path / "long.json"
        path.write_text(json.dumps(network_to_json(net)))
        out = tmp_path / "o.csv"
        assert run(["simulate", "--net", str(path), "--T", "0.1", "--n", "50", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 4 + 1 + 51

    def test_mixed_net_needs_one_node_kind(self, tmp_path, capsys):
        net = NetworkSpec(2, [[0, 0], [1, 0]], [MaximalSeriesSpec(1, 1), Series(1, 1, {(1,): 1})])
        path = tmp_path / "mixed.json"
        path.write_text(json.dumps(network_to_json(net)))
        code = run(["simulate", "--net", str(path), "--T", "0.2", "--n", "10",
                    "--out", str(tmp_path / "m.csv")])
        assert code == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {
            "type": "ModelError",
            "message": "simulation needs every node maximal or every node polynomial",
        }

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0"])
    def test_threshold_must_be_finite_and_positive(self, threshold, maximal_file, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        code = run(["simulate", "--net", maximal_file, "--T", "1", "--n", "10",
                    "--threshold", threshold, "--out", str(out)])
        assert code == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "DomainError",
                         "message": "escape threshold must be finite and positive"}
        assert not out.exists() and not (tmp_path / "traj.csv.meta.json").exists()

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0"])
    def test_polynomial_net_threshold_must_be_finite_and_positive(
        self, threshold, four_node_file, tmp_path, capsys
    ):
        """The Picard route takes no threshold, but the value would still be
        written to the CSV preamble and the sidecar, where NaN is not JSON."""
        out = tmp_path / "p.csv"
        code = run(["simulate", "--net", four_node_file, "--T", "0.5", "--n", "10",
                    "--threshold", threshold, "--out", str(out)])
        assert code == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "DomainError",
                         "message": "escape threshold must be finite and positive"}
        assert not out.exists() and not (tmp_path / "p.csv.meta.json").exists()

    def test_grid_size_numpy_cannot_build(self, maximal_file, tmp_path):
        """numpy's 'Maximum allowed size exceeded' once ended the process in a traceback."""
        out = tmp_path / "o.csv"
        proc = run_cli("simulate", "--net", maximal_file,
                       "--T", "0.1", "--n", str(10**30), "--out", str(out))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["error"]["type"] == "DomainError"
        assert not out.exists() and not (tmp_path / "o.csv.meta.json").exists()

    @pytest.mark.parametrize("command", ["simulate", "validate"])
    def test_grid_too_large_to_allocate(self, command, four_node_file, tmp_path, capsys,
                                        monkeypatch):
        """numpy's MemoryError once ended the process in a traceback with no
        error JSON. linspace raises in its stead, so no memory is requested."""
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 7.28 TiB")

        monkeypatch.setattr(np, "linspace", refuse)
        out = tmp_path / "o.csv"
        argv = {"simulate": ["--out", str(out)],
                "validate": ["--from", "1", "--to", "4", "--degree", "3"]}[command]
        code = run([command, "--net", four_node_file, "--T", "0.1", "--n", str(10**12), *argv])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["error"] == {
            "type": "DomainError", "message": f"grid size n = {10**12} is too large to allocate"}
        assert not out.exists()

    def test_horizon_the_start_cannot_resolve(self, maximal_file, tmp_path, capsys):
        """At t0 = 1e16 the steps of T = 0.1 round away: five rows at one time
        were once written with exit 0."""
        out = tmp_path / "o.csv"
        code = run(["simulate", "--net", maximal_file, "--T", "0.1", "--n", "4",
                    "--t0", "1e16", "--out", str(out)])
        assert code == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error["type"] == "DomainError"
        assert not out.exists()


class TestMontecarlo:
    def test_designated_histogram(self, four_node_file, capsys):
        doc = run_json(
            ["montecarlo", "--net", four_node_file, "--degree", "3", "--samples", "6",
             "--seed", "11", "--from", "1", "--to", "4", "--word", "x0 x0 x1"],
            capsys,
        )
        res = doc["result"]
        assert res["pair_status"]["1,4"] == {"defined": 6}
        assert res["pair_r"]["1,4"] == {"3": 6}
        assert sum(b["count"] for b in res["histogram"]) == 6
        assert res["designated"] == {"from": 1, "to": 4, "word": "x0 x0 x1"}

    @pytest.mark.parametrize("flag", ["--samples", "--bins"])
    def test_nonpositive_samples_or_bins_is_a_domain_error(self, flag, four_node_file, capsys):
        samples, bins = ("0", "4") if flag == "--samples" else ("2", "0")
        code = run(["montecarlo", "--net", four_node_file, "--degree", "3", "--seed", "1",
                    "--samples", samples, "--bins", bins])
        assert code == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "DomainError", "message": f"{flag[2:]} must be an integer >= 1"}

    @pytest.mark.parametrize("i,j,bad", [("1", "9", 9), ("9", "4", 9), ("0", "4", 0)])
    def test_designated_node_outside_the_net(self, i, j, bad, four_node_file, capsys):
        code = run(["montecarlo", "--net", four_node_file, "--degree", "3", "--samples", "2",
                    "--seed", "1", "--from", i, "--to", j, "--word", "x0 x0 x1"])
        assert code == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "NodeIndexError", "message": f"node index {bad} outside 1..4"}

    def test_designated_word_past_the_degree_is_a_domain_error(self, four_node_file, capsys):
        """The loops stop at --degree, so a longer word's coefficient is never
        computed; it once printed a histogram of zeros."""
        code = run(["montecarlo", "--net", four_node_file, "--degree", "2", "--samples", "5",
                    "--seed", "1", "--from", "1", "--to", "4", "--word", "x0 x0 x1"])
        assert code == 1
        error = json.loads(capsys.readouterr().out)["error"]
        assert error == {"type": "DomainError", "message":
                         "designated word of length 3 exceeds the truncation degree 2"}

    @pytest.mark.parametrize("flags,missing", [
        (["--word", "x0 x1"], "--from, --to"),
        (["--from", "1", "--word", "x0 x1"], "--to"),
        (["--from", "1", "--to", "4"], "--word"),
        (["--from", "1"], "--word"),
        (["--to", "4"], "--word"),
    ], ids=["word", "word from", "from to", "from", "to"])
    def test_word_needs_endpoints(self, flags, missing, four_node_file, capsys):
        """The word and its endpoints go together: endpoints without --word
        once ran with "designated": null and exit 0, tracking nothing."""
        code = run(["montecarlo", "--net", four_node_file, "--degree", "3",
                    "--samples", "2", "--seed", "1", *flags])
        assert code == 2
        assert capsys.readouterr().err == f"error: missing required flags: {missing}\n"


class TestValidate:
    def test_degree_past_the_float_range_is_a_structured_domain_error(self, tmp_path):
        """2.0 ** (degree + 1) once ended the process in an OverflowError traceback."""
        path = tmp_path / "one_x1.json"
        path.write_text(json.dumps(network_to_json(NetworkSpec(1, [[1]], [Series(1, 1, {(1,): 1})]))))
        proc = run_cli("validate", "--net", str(path), "--from", "1", "--to", "1",
                       "--degree", "1023", "--T", "0.1", "--n", "50")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"]["type"] == "DomainError"
        assert "Traceback" not in proc.stderr

    def test_response_past_the_floats_is_a_domain_error(self, big_response_file):
        """The series route once printed numpy's overflow warning, and the
        command then failed with 'Picard iteration diverged: sweep 1'."""
        proc = run_cli("validate", "--net", big_response_file, "--from", "1", "--to", "1",
                       "--degree", "2", "--T", "10", "--n", "10")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["error"] == RESPONSE_PAST_THE_FLOATS
        assert proc.stderr == ""

    def test_reports_tiny_error(self, four_node_file, capsys):
        doc = run_json(
            ["validate", "--net", four_node_file, "--from", "1", "--to", "4",
             "--degree", "4", "--T", "0.5", "--n", "200"],
            capsys,
        )
        res = doc["result"]
        assert res["expected_halving_factor"] == 32.0
        assert res["max_abs_error"] < 1e-6


def strip_created(text: str) -> str:
    return re.sub(r'("created": )"[^"]*"', r"\1null", re.sub(r"^# created:.*$", "", text, flags=re.M))


class TestDeterminism:
    def test_json_outputs_identical(self, dd_file, capsys):
        argv = ["reldeg", "--net", dd_file, "--from", "1", "--to", "7", "--degree", "7"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert strip_created(first) == strip_created(second)

    def test_csv_outputs_identical(self, capsys):
        argv = ["abel", "--m", "3", "--K", "2", "--M", "1", "--n", "8"]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert strip_created(first) == strip_created(second)


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = run_cli("--version")
        assert proc.returncode == 0
        assert "fliessnet" in proc.stdout
