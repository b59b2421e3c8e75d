"""Command-line front end: load network files, run analyses, emit JSON or CSV.

Every result embeds the tool version, an input hash, and the parameters; the
only timestamp lives in the metadata field, so outputs are byte-identical
across runs once that field is stripped. Exit codes: 0 success, 1 domain
error (with a structured error JSON on stdout), 2 usage error.

Each subcommand is one COMMANDS entry declaring its flags, its result fields
and their JSON types, and the function that computes the result; one
dispatcher does the rest, and --schema is built from the field declaration.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from types import UnionType
from typing import Callable

from . import __version__
from .errors import FliessnetError, ModelError, ParseError
from .growth import abel_taylor, m_inf_bound
from .network import NetworkSpec, io_map, network_from_json
from .reldeg import genericity_sample, pair_report, relative_degree
from .series import _check_real, coeff_str, series_to_json
from .words import format_word, parse_word

TOOL = "fliessnet"


class UsageError(Exception):
    pass


def _timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _load_net(path: str) -> tuple[NetworkSpec, str]:
    p = Path(path)
    if not p.is_file():
        raise UsageError(f"network file not found: {path}")
    raw = p.read_bytes()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"network file {path} is not UTF-8 JSON: {exc}") from None
    return network_from_json(doc), hashlib.sha256(raw).hexdigest()


def _json_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _envelope_text(result, params: dict, input_hash: str) -> str:
    meta = dict(tool=TOOL, version=__version__, input_sha256=input_hash, params=params)
    meta["created"] = _timestamp()
    return _json_text({"meta": meta, "result": result})


def _csv_text(params: dict, input_hash: str, header: list[str], rows) -> str:
    buf = io.StringIO()
    buf.write(f"# tool: {TOOL} {__version__}\n")
    buf.write(f"# input_sha256: {input_hash}\n")
    buf.write(f"# params: {json.dumps(params, sort_keys=True)}\n")
    buf.write(f"# created: {_timestamp()}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _require(args: argparse.Namespace, names) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        raise UsageError("missing required flags: " + ", ".join("--" + n for n in missing))


def _field_rows(result: dict) -> tuple[dict, list[str], list[list]]:
    """A flat result and its CSV form: one (field, value) row per field."""
    return result, ["field", "value"], [[k, "" if v is None else v] for k, v in result.items()]


# Every flag a subcommand may read; a subcommand gets only the flags it reads,
# and a flag it requires loses its default, so leaving it out is reported.
FLAGS = {
    "net": dict(help="path to a network JSON file"),
    "out": dict(help="write the result to this path instead of stdout"),
    "seed": dict(type=int, help="random seed"),
    "degree": dict(type=int, help="truncation degree"),
    "from": dict(type=int, help="input node (1-based)"),
    "to": dict(type=int, help="output node (1-based)"),
    "m": dict(type=int, help="node count"),
    "K": dict(help="coefficient bound Kbar (rational, e.g. 3 or 7/2)"),
    "M": dict(help="geometric bound Mbar (rational)"),
    "n": dict(type=int, default=400, help="grid steps; for abel, the highest derivative order"),
    "t0": dict(type=float, default=0.0),
    "T": dict(type=float, help="horizon length"),
    "threshold": dict(type=float, default=1e9, help="escape detection level"),
    "samples": dict(type=int, default=1000),
    "bins": dict(type=int, default=40),
    "word": dict(help='tracked word, e.g. "x0 x0 x1"'),
}


@dataclass(frozen=True)
class Command:
    """One subcommand. `flags` lists the flags it reads, "[out]" marking an
    optional one; `fields` gives each result key its type (see _json_type).
    `compute(args, net, params)` returns the result, CSV header and CSV rows.
    `formats[0]` is the default; with none, CSV goes to --out, the result to a
    .meta.json sidecar."""

    help: str
    flags: str
    fields: dict
    compute: Callable
    formats: tuple[str, ...] = ("json", "csv")
    csv_columns: list[str] | None = None

    def flag_list(self) -> list[tuple[str, bool]]:
        return [(f.strip("[]"), not f.startswith("[")) for f in self.flags.split()]


def _iomap(args, net, params):
    d = io_map(net, getattr(args, "from"), args.to, args.degree)
    rows = ([format_word(w), coeff_str(val)] for w, val in d.items())
    return series_to_json(d), ["word", "coeff"], rows


def _reldeg(args, net, params):
    i, j = getattr(args, "from"), args.to
    measured = relative_degree(io_map(net, i, j, args.degree))
    report = pair_report(net, i, j, measured)
    predicted = report.predicted
    result = {
        "from": i,
        "to": j,
        "degree": args.degree,
        "measured": measured.r,
        "measured_status": measured.status,
        "leading": None if measured.leading is None else coeff_str(measured.leading),
        "predicted": None if predicted is None else predicted.r_pred,
        "condition": None if predicted is None else predicted.condition,
        "consistent": report.consistent,
        "prediction_error": report.prediction_error,
    }
    return _field_rows(result)


def _bounds(args, net, params):
    bound = m_inf_bound(args.K, args.M, args.m)
    result = {
        "m": bound.m,
        "Kbar": coeff_str(bound.Kbar),
        "Mbar": coeff_str(bound.Mbar),
        "M_inf": bound.M_inf,
        "t_star": bound.t_star,
    }
    return _field_rows(result)


def _abel(args, net, params):
    seq = abel_taylor(args.m, args.K, args.M, args.n)
    a, mhat = [coeff_str(v) for v in seq.a], [coeff_str(v) for v in seq.mhat]
    K, M = coeff_str(seq.K), coeff_str(seq.M)
    result = {"m": seq.m, "K": K, "M": M, "n": args.n, "a": a, "mhat": mhat}
    rows = ([k, a[k], mhat[k - 1] if k >= 1 else ""] for k in range(args.n + 1))
    return result, ["n", "a_n", "Mhat_n"], rows


def _simulate(args, net, params):
    from .sim import Grid, simulate_maximal_ode, simulate_picard

    grid = Grid(args.t0, args.T, args.n)
    # Checked on every route: the threshold is written to the output either way.
    _check_real(args.threshold, "escape threshold", 0, strict=True)
    if net.all_maximal():
        method, traj = "ode", simulate_maximal_ode(net, grid, threshold=args.threshold)
    elif net.all_polynomial():
        method, traj = "picard", simulate_picard(net, grid)
    else:
        raise ModelError("simulation needs every node maximal or every node polynomial")
    nodes = range(1, net.m + 1)
    rows = (
        [repr(float(t))] + [repr(float(traj.outputs[k][idx])) for k in nodes]
        for idx, t in enumerate(traj.times)
    )
    result = {
        "method": method,
        "escape_time": traj.escape_time,
        "per_node_escape": {str(k): v for k, v in traj.per_node_escape.items()},
        **{k: traj.metadata.get(k) for k in ("threshold", "integrator", "status", "iterations")},
    }
    return result, ["t"] + [f"y_{k}" for k in nodes], rows


def _montecarlo(args, net, params):
    # The tracked coefficient is recorded as one `designated` parameter.
    i, j, word = (params.pop(name) for name in ("from", "to", "word"))
    designated = None
    params["designated"] = None
    if word is not None:
        _require(args, ["from", "to"])
        designated = (i, j, parse_word(word, 1))
        params["designated"] = {"from": i, "to": j, "word": format_word(designated[2])}
    elif i is not None or j is not None:
        _require(args, ["word"])  # endpoints without a word track nothing
    nodes = range(1, net.m + 1)
    pattern = [[0 if net.weight(r, c) == 0 else 1 for c in nodes] for r in nodes]
    stats = genericity_sample(
        pattern, net.nodes, args.samples, args.seed, args.degree, designated, args.bins
    )
    result = {
        "samples": stats.samples,
        "seed": stats.seed,
        "degree": stats.degree,
        "pair_status": {f"{a},{b}": counts for (a, b), counts in stats.pair_status.items()},
        "pair_r": {
            f"{a},{b}": {str(r): n for r, n in counts.items()}
            for (a, b), counts in stats.pair_r.items()
        },
        "designated": params["designated"],
        "histogram": [{"left": a, "right": b, "count": c} for a, b, c in stats.histogram],
    }
    rows = ([repr(left), repr(right), count] for left, right, count in stats.histogram)
    return result, ["left", "right", "count"], rows


def _validate(args, net, params):
    from .sim import Grid, validate_io_map

    i, j = getattr(args, "from"), args.to
    report = validate_io_map(net, i, j, args.degree, Grid(args.t0, args.T, args.n))
    result = {
        "from": i,
        "to": j,
        "degree": report.degree,
        "horizon": report.horizon,
        "grid_points": report.grid_points,
        "max_abs_error": report.max_abs_error,
        "expected_halving_factor": report.expected_halving_factor,
    }
    return _field_rows(result)


COMMANDS = {
    "iomap": Command(
        "closed-loop series from one input to one output",
        "net from to degree [out]",
        {"m": int, "degree": int, "terms": [{"word": [int], "coeff": str}]},
        _iomap,
    ),
    "reldeg": Command(
        "measured and predicted relative degree of a pair",
        "net from to degree [out]",
        {
            "from": int,
            "to": int,
            "degree": int,
            "measured": int | None,
            "measured_status": str,
            "leading": str | None,
            "predicted": int | None,
            "condition": str | None,
            "consistent": bool | None,
            "prediction_error": str | None,
        },
        _reldeg,
    ),
    "bounds": Command(
        "geometric growth rate M_inf and escape bound t_star",
        "m K M [out]",
        {"m": int, "Kbar": str, "Mbar": str, "M_inf": float, "t_star": float},
        _bounds,
    ),
    "abel": Command(
        "exact envelope derivatives a_n and ratio estimates",
        "m K M n [out]",
        {"m": int, "K": str, "M": str, "n": int, "a": [str], "mhat": [str]},
        _abel,
        formats=("csv", "json"),
        csv_columns=["n", "a_n", "Mhat_n"],
    ),
    "simulate": Command(
        "integrate the network and write a trajectory CSV",
        "net T out [t0] [n] [threshold]",
        {
            "method": str,
            "escape_time": float | None,
            "per_node_escape": dict,
            "threshold": float | None,
            "integrator": str | None,
            "status": int | None,
            "iterations": int | None,
        },
        _simulate,
        formats=(),
        csv_columns=["t", "y_1", "...", "y_m"],
    ),
    "montecarlo": Command(
        "relative degrees across seeded random weights",
        "net degree seed [samples] [bins] [from] [to] [word] [out]",
        {
            "samples": int,
            "seed": int,
            "degree": int,
            "pair_status": dict,
            "pair_r": dict,
            "designated": dict | None,
            "histogram": [{"left": float, "right": float, "count": int}],
        },
        _montecarlo,
    ),
    "validate": Command(
        "series response vs full simulation discrepancy",
        "net from to degree T [t0] [n] [out]",
        {
            "from": int,
            "to": int,
            "degree": int,
            "horizon": float,
            "grid_points": int,
            "max_abs_error": float,
            "expected_halving_factor": float,
        },
        _validate,
    ),
}


_JSON_NAMES = {int: "integer", float: "number", str: "string", bool: "boolean", dict: "object"}


def _json_type(declared) -> dict:
    """Schema of a declared type: int, float, str, bool, dict, `X | None`,
    [X] (array of X), or {"key": X, ...} (object with these properties)."""
    if isinstance(declared, list):
        return {"type": "array", "items": _json_type(declared[0])}
    if isinstance(declared, dict):
        return {"type": "object", "properties": {k: _json_type(t) for k, t in declared.items()}}
    if isinstance(declared, UnionType):
        return {"type": [_JSON_NAMES[declared.__args__[0]], "null"]}
    return {"type": _JSON_NAMES[declared]}


_META_SCHEMA = {
    "type": "object",
    "properties": {
        "tool": {"type": "string"},
        "version": {"type": "string"},
        "input_sha256": {"type": "string"},
        "params": {"type": "object"},
        "created": {"type": "string", "description": "UTC timestamp; the only non-deterministic field"},
    },
}


def schema(name: str) -> dict:
    """JSON schema of a subcommand's output envelope, from its field declaration."""
    cmd = COMMANDS[name]
    result = _json_type(cmd.fields)
    if cmd.csv_columns is not None:
        result["csv_columns"] = cmd.csv_columns
    properties = {"meta": _META_SCHEMA, "result": result}
    return {"type": "object", "properties": properties, "required": ["meta", "result"]}


def _dispatch(args: argparse.Namespace) -> int:
    if args.schema:
        sys.stdout.write(_json_text(schema(args.subcommand)))
        return 0
    cmd = COMMANDS[args.subcommand]
    flags = cmd.flag_list()
    _require(args, [name for name, required in flags if required])
    # --out steers where a run goes, not what it computes.
    params = {name: getattr(args, name) for name, _ in flags if name != "out"}
    net, input_hash = _load_net(args.net) if "net" in params else (None, None)
    result, header, rows = cmd.compute(args, net, params)
    if input_hash is None:
        input_hash = hashlib.sha256(json.dumps(params, sort_keys=True).encode("utf-8")).hexdigest()
    if cmd.formats and args.format == "json":
        _emit(_envelope_text(result, params, input_hash), args.out)
        return 0
    _emit(_csv_text(params, input_hash, header, rows), args.out)
    if not cmd.formats:
        _emit(_envelope_text(result, params, input_hash), args.out + ".meta.json")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=TOOL,
        description="Analyze additively interconnected single-input single-output "
        "series networks: input-output maps, relative degrees, growth bounds, "
        "escape times, and simulations.",
    )
    parser.add_argument("--version", action="version", version=f"{TOOL} {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, cmd in COMMANDS.items():
        sub = subs.add_parser(name, help=cmd.help)
        for flag, required in cmd.flag_list():
            spec = dict(FLAGS[flag])
            if required:
                spec.pop("default", None)
            sub.add_argument("--" + flag, **spec)
        if cmd.formats:
            sub.add_argument("--format", choices=cmd.formats, default=cmd.formats[0])
        sub.add_argument("--schema", action="store_true", help="print the output schema and exit")
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _dispatch(args)
    except (UsageError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except FliessnetError as exc:
        sys.stdout.write(_json_text({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
