"""Golden outputs of every subcommand, byte for byte once `created` is stripped.

Each case runs the command line in a scratch directory holding the network
files below under fixed names, so the recorded parameters and input hashes
do not depend on where the suite runs. To rewrite the captures after an
intended output change, run `PYTHONPATH=src python tests/test_golden.py`
from the repository root and review the diff under tests/golden/.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shlex
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from fliessnet import network_to_json
from fliessnet.cli import run
from conftest import double_diamond_net, five_node_net, four_node_net

GOLDEN = Path(__file__).parent / "golden"

NETS = {
    "four.json": lambda: network_to_json(
        four_node_net(Fraction(2, 3), Fraction(1, 5), Fraction(3, 7), Fraction(4, 9))
    ),
    "dd.json": lambda: network_to_json(double_diamond_net()),
    "five.json": lambda: network_to_json(five_node_net()),
    "one.json": lambda: {"m": 1, "W": [["1"]], "nodes": [{"kind": "maximal", "K": "1", "M": "1"}]},
    "three.json": lambda: {
        "m": 3,
        "W": [["0", "1/2", "0"], ["1", "0", "1/3"], ["0", "1", "0"]],
        "nodes": [
            {"kind": "maximal", "K": k, "M": m} for k, m in (("1", "2"), ("3/2", "1"), ("1", "1"))
        ],
    },
}

CASES = {
    "iomap-four-json": "iomap --net four.json --from 1 --to 4 --degree 5",
    "iomap-four-csv": "iomap --net four.json --from 1 --to 4 --degree 5 --format csv",
    "iomap-dd-json": "iomap --net dd.json --from 1 --to 7 --degree 7",
    "iomap-five-csv": "iomap --net five.json --from 1 --to 4 --degree 6 --format csv",
    "reldeg-four-json": "reldeg --net four.json --from 1 --to 4 --degree 5",
    "reldeg-dd-json": "reldeg --net dd.json --from 1 --to 7 --degree 7",
    "reldeg-dd-csv": "reldeg --net dd.json --from 1 --to 7 --degree 7 --format csv",
    "reldeg-five-14-json": "reldeg --net five.json --from 1 --to 4 --degree 6",
    "reldeg-five-14-csv": "reldeg --net five.json --from 1 --to 4 --degree 6 --format csv",
    "reldeg-five-24-json": "reldeg --net five.json --from 2 --to 4 --degree 6",
    "reldeg-five-51-json": "reldeg --net five.json --from 5 --to 1 --degree 6",
    "bounds-json": "bounds --m 3 --K 3 --M 4",
    "bounds-csv": "bounds --m 2 --K 7/2 --M 3/4 --format csv",
    "abel-csv": "abel --m 2 --K 3/2 --M 1 --n 12",
    "abel-json": "abel --m 3 --K 1 --M 2 --n 8 --format json",
    "simulate-one-ode": "simulate --net one.json --T 0.4 --n 40 --out traj.csv",
    "simulate-three-ode": "simulate --net three.json --T 0.5 --n 30 --threshold 1e6 --out traj.csv",
    "simulate-four-picard": "simulate --net four.json --T 1.0 --n 20 --out traj.csv",
    "montecarlo-four-json": "montecarlo --net four.json --degree 3 --samples 6 --seed 11 "
    "--from 1 --to 4 --word 'x0 x0 x1' --bins 4",
    "montecarlo-four-csv": "montecarlo --net four.json --degree 3 --samples 6 --seed 11 "
    "--from 1 --to 4 --word 'x0 x0 x1' --bins 4 --format csv",
    "montecarlo-five-json": "montecarlo --net five.json --degree 4 --samples 3 --seed 5",
    "validate-four-json": "validate --net four.json --from 1 --to 4 --degree 4 --T 0.5 --n 50",
    "validate-dd-csv": "validate --net dd.json --from 1 --to 7 --degree 7 --T 0.2 --n 40 --format csv",
    "error-missing-flags": "iomap --net four.json",
    "error-missing-file": "reldeg --net nowhere.json --from 1 --to 2 --degree 3",
    "error-montecarlo-seed": "montecarlo --net four.json --degree 3 --samples 2",
    "error-word-endpoints": "montecarlo --net four.json --degree 3 --samples 2 --seed 1 --word 'x0 x1'",
    "error-domain": "iomap --net four.json --from 9 --to 1 --degree 2",
    **{
        f"schema-{sub}": f"{sub} --schema"
        for sub in ("iomap", "reldeg", "bounds", "abel", "simulate", "montecarlo", "validate")
    },
}


def strip_created(text: str) -> str:
    text = re.sub(r"^# created:.*$", "# created: -", text, flags=re.M)
    return re.sub(r'("created": )"[^"]*"', r'\1"-"', text)


def capture(command: str) -> str:
    """Exit code, stdout, stderr and any written files of one run, as text."""
    with tempfile.TemporaryDirectory() as scratch:
        cwd = os.getcwd()
        os.chdir(scratch)
        try:
            for name, doc in NETS.items():
                Path(name).write_text(json.dumps(doc()))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(shlex.split(command))
            parts = [f"$ fliessnet {command}", f"exit {code}", "--- stdout", out.getvalue(),
                     "--- stderr", err.getvalue()]
            for written in ("traj.csv", "traj.csv.meta.json"):
                if Path(written).exists():
                    parts += [f"--- {written}", Path(written).read_text()]
        finally:
            os.chdir(cwd)
    return strip_created("\n".join(parts))


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert capture(CASES[name]) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, command in sorted(CASES.items()):
        (GOLDEN / f"{name}.txt").write_text(capture(command))
    sys.stdout.write(f"wrote {len(CASES)} captures to {GOLDEN}\n")
