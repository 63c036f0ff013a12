"""Command-line entry point: `asym SUBCOMMAND ...`.

One static table, `SUBCOMMANDS`, declares each subcommand: its handler, its
input file flags in load order and its other options; the parser is built from
it once per process. No flag sets a tolerance: the decision cuts are the fixed
constants `TOL_ONE`, `TOL_ZERO` and `TOL_PSD` of `asym.tolerances`. `main`
loads the inputs (`rep` reads the loaded `group`), calls the handler on them and
wraps its bare result in the report envelope: the subcommand name and the sha256
of the bytes parsed from each input file (each read once, see `io.HashingPath`),
so a JSON report doubles as a test fixture. Handlers return the library's
values as they are; `_jsonable` alone writes them, once per report: `--json`
dumps what it returns, and `--table` prints the same JSON values, one key path
per row (`certificate.T`, `curve.0.bound`), with the `chi` elements as columns.
Exit codes: 0 success, 1 domain error, 2 parse/validation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import re
import sys

import numpy as np

from . import abelian, approx, charfn, convertibility, io, lie
from .errors import AsymError, ValidationError
from .exact_rate import FINITE, exact_rate as compute_exact_rate


def _jsonable(obj):
    """The one writer of a result value, for JSON and table alike: floats to 12
    significant digits and non-finite ones to strings, numpy values to Python
    ones, complex numbers to [re, im], sets to sorted lists and dataclasses to
    dicts of their fields."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (frozenset, set)):
        return sorted(int(x) for x in obj)
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return float(format(x, ".12g"))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, complex):
        return [_jsonable(obj.real), _jsonable(obj.imag)]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if dataclasses.is_dataclass(obj):
        return _jsonable(vars(obj))
    return obj


def _print_report(report: dict, output: str) -> None:
    report = _jsonable(report)
    if output == "json":
        print(json.dumps(report, sort_keys=True))
        return
    result = report["result"]
    elements = result.pop("elements", None)
    rows = _flatten("", result)
    width = max((len(k) for k, _ in rows), default=0)
    for key, val in rows:
        print(f"{key.ljust(width)}  {val}")
    if elements:
        print(f"{'g':>4} {'|chi|':>16} {'phase':>16} {'L':>16}")
        for el in elements:
            print(f"{el['element']:>4} {el['abs_chi']:>16} {el['phase']:>16} {el['L']:>16}")


def _flatten(prefix: str, obj) -> list[tuple[str, str]]:
    """(key path, cell) rows of a JSON-ready value; dicts, and lists of them
    (keyed by position), open into one row per leaf."""
    if isinstance(obj, list) and obj and all(isinstance(x, dict) for x in obj):
        obj = dict(enumerate(obj))
    if isinstance(obj, dict):
        return [row for k, v in obj.items() for row in _flatten(f"{prefix}{k}.", v)]
    return [(prefix.rstrip("."), _render(obj))]


def _render(v) -> str:
    if isinstance(v, list):
        return "[" + ", ".join(_render(x) for x in v) + "]"
    return str(v)


def cmd_chi(args, group, rep, state) -> dict:
    char = charfn.char_function(rep, state)
    if args.power != 1:
        char = charfn.char_power(char, args.power)
    # the raw cuts of chi^N: a table is still a table when the |chi| = 1 cut
    # is no subgroup (`approx`, whose claim needs one, refuses that case)
    sym, zero = (np.flatnonzero(cut(char.logmod)) for cut in (charfn.unit_mask, charfn.zero_mask))
    elements = [
        {"element": g, "abs_chi": np.exp(logmod), "phase": phase,
         "L": charfn.resource_measure_L(char, g)}
        for g, (logmod, phase) in enumerate(zip(char.logmod, char.phase))
    ]
    return {"power": args.power, "elements": elements, "sym": sym, "zero": zero}


def _chars(rep, psi, phi):
    return charfn.char_function(rep, psi), charfn.char_function(rep, phi)


def cmd_rate_exact(args, group, rep, psi, phi) -> dict:
    report = compute_exact_rate(*_chars(rep, psi, phi))
    out = {
        "rate": report.kind,
        "witness": report.witness,
        "assumption_ok": report.assumption_ok,
        "excluded_set": report.excluded,
    }
    if report.kind == FINITE:
        out["value"] = report.value
    return out


def cmd_convert(args, group, rep, psi, phi) -> dict:
    N, M = args.copies
    res = convertibility.feasible_exact(*_chars(rep, psi, phi), N, M)
    return {
        "N": N, "M": M, "feasible": res.feasible, "min_gram_eigenvalue": res.min_gram_eigenvalue,
        "modulus_witness": res.modulus_witness, "zero_set_witness": res.zero_set_witness,
    }


def cmd_min_copies(args, group, rep, psi, phi) -> dict:
    c_psi, c_phi = _chars(rep, psi, phi)
    found = convertibility.minimal_copies_search(c_psi, c_phi, args.rate, args.nmax)
    return {"rate": args.rate, "n_max": args.nmax, "min_copies": found}


def cmd_charges(args, group, rep, state) -> dict:
    dist = abelian.charge_distribution(rep, state)
    lam = abelian.dual_fourier(dist)
    return {"shape": dist.shape, "probs": dist.probs, "dual_coefficients": lam.values}


def cmd_convert_abelian(args, p, q) -> dict:
    N, M = args.copies
    res = abelian.feasibility(p, q, N, M)
    w = abelian.label_weights(res, p.char.group)
    return {
        "N": N, "M": M, "feasible": res.feasible, "weights": w, "min_weight": w.min(),
        "modulus_witness": res.modulus_witness, "zero_set_witness": res.zero_set_witness,
    }


def cmd_approx(args, group, rep, psi, phi) -> dict:
    c_psi, c_phi = _chars(rep, psi, phi)
    report = approx.approx_rate_class(c_psi, c_phi)
    result = dict(vars(report))
    if args.curve and report.classification == "unbounded":
        result["curve"] = approx.convergence_to_uniform(c_psi, args.curve).points
    return result


def cmd_qfim(args, state, generators) -> dict:
    return {"qfim": lie.qfim(lie.pure_density(state), generators)}


def cmd_rf(args, generators, psi, phi) -> dict:
    rates = () if args.rate is None else (args.rate,)
    lie._certificate_domain(args.delta, *rates)  # before any QFIM
    F_psi = lie.qfim(lie.pure_density(psi), generators)
    F_phi = lie.qfim(lie.pure_density(phi), generators)
    res = lie.rf_ratio(F_psi, F_phi)
    result = dict(vars(res))
    if args.rate is not None:
        # the report's pencil ratio, not a second bisection
        impossible, v, T = lie._certificate(res, F_psi, F_phi, args.rate, args.delta)
        result["certificate"] = {
            "rate": args.rate, "delta": args.delta, "impossible": impossible, "T": T,
            "witness_direction": v,
        }
    return result


# One loader per input flag kind, each called as loader(path, inputs loaded so far).
# They look `io` up at call time, so a patched or traced loader is the one called.
_LOADERS = {
    "group": lambda path, loaded: io.load_group(path),
    "rep": lambda path, loaded: io.load_rep(path, loaded["group"]),
    "generators": lambda path, loaded: io.load_generators(path),
    **dict.fromkeys(("state", "psi", "phi"), lambda path, loaded: io.load_state(path)),
    **dict.fromkeys(("p", "q"), lambda path, loaded: io.load_distribution(path)),
}

_PAIR = ("group", "rep", "psi", "phi")
_COPIES = {"--copies": dict(type=int, nargs=2, required=True, metavar=("N", "M"))}

# name -> (handler, input file flags in load order, {option: kwargs})
SUBCOMMANDS = {
    "chi": (cmd_chi, ("group", "rep", "state"), {"--power": dict(type=int, default=1)}),
    "rate-exact": (cmd_rate_exact, _PAIR, {}),
    "convert": (cmd_convert, _PAIR, _COPIES),
    "min-copies": (
        cmd_min_copies, _PAIR,
        {"--rate": dict(type=float, required=True), "--nmax": dict(type=int, required=True)},
    ),
    "charges": (cmd_charges, ("group", "rep", "state"), {}),
    "convert-abelian": (cmd_convert_abelian, ("p", "q"), _COPIES),
    "approx": (
        cmd_approx, _PAIR,
        {"--curve": dict(type=lambda s: [int(x) for x in s.split(",")], default=None)},
    ),
    "qfim": (cmd_qfim, ("state", "generators"), {}),
    "rf": (
        cmd_rf, ("generators", "psi", "phi"),
        {"--rate": dict(type=float, default=None), "--delta": dict(type=float, default=0.0)},
    ),
}


class _Parser(argparse.ArgumentParser):
    """argparse, reading every argument that starts with a minus and a digit
    (or a minus, a point and a digit) as a value, never as a flag: -1e-3 and
    -1,2 too, which argparse's own pattern (-1, -0.5) leaves to be read as an
    unknown flag, a usage error. No option of asym starts so, and
    `add_subparsers` builds the subcommands' parsers of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="asym")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, inputs, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(output="table")
        for flag in inputs:
            p.add_argument(f"--{flag}", required=True)
        p.add_argument("--json", dest="output", action="store_const", const="json")
        p.add_argument("--table", dest="output", action="store_const", const="table")
        for option, kwargs in options.items():
            p.add_argument(option, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handler, inputs, _ = SUBCOMMANDS[args.subcommand]
    # each file is read once, by its loader, which records the digest of what it parsed
    paths = {flag: io.HashingPath(getattr(args, flag)) for flag in inputs}
    try:
        loaded = {}
        for flag, path in paths.items():
            loaded[flag] = _LOADERS[flag](path, loaded)
        result = handler(args, **loaded)
        report = {
            "subcommand": args.subcommand,
            "inputs": {f: {"path": p.path, "sha256": p.sha256} for f, p in paths.items()},
            "result": result,
        }
    # LinAlgError and JSONDecodeError subclass ValueError; clause order matters
    except np.linalg.LinAlgError as exc:
        return _fail(exc, 1)
    except (ValidationError, OSError, ValueError) as exc:
        return _fail(exc, 2)
    except AsymError as exc:
        return _fail(exc, 1)
    _print_report(report, args.output)
    return 0


def _fail(exc: Exception, code: int) -> int:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
