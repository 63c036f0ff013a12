"""Command-line entry point: `asym SUBCOMMAND ...`.

One static table, `SUBCOMMANDS`, declares each subcommand: its handler, its
input file flags in load order, the `Tolerances` fields the handler reads (its
only `--tol-*` flags; the rest keep their defaults) and its other options; the
parser is built from it once per process. `main` loads the inputs (`rep` reads
the loaded `group`), calls the handler on them and wraps its bare result in the
report envelope: the subcommand name, the sha256 of the bytes parsed from each
input file (each read once, see `io.HashingPath`) and the tolerances the handler
read, so a JSON report doubles as a test fixture. Exit codes: 0 success, 1
domain error, 2 parse/validation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import abelian, approx, charfn, convertibility, io, lie
from .errors import AsymError, ValidationError
from .exact_rate import FINITE, exact_rate as compute_exact_rate
from .tolerances import DEFAULT, Tolerances


def _jsonable(obj):
    """Round floats to 12 significant digits; map non-finite values to strings."""
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
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, complex):
        return [_jsonable(obj.real), _jsonable(obj.imag)]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    return obj


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return format(x, ".10g")
    return str(x)


def _print_report(report: dict, output: str) -> None:
    if output == "json":
        print(json.dumps(_jsonable(report), sort_keys=True))
        return
    result = dict(report["result"])
    elements = result.pop("elements", None)
    rows = _flatten("", result)
    width = max(len(k) for k, _ in rows) if rows else 0
    for key, val in rows:
        print(f"{key.ljust(width)}  {val}")
    if elements:
        print(f"{'g':>4} {'|chi|':>16} {'phase':>16} {'L':>16}")
        for el in elements:
            print(
                f"{el['element']:>4} {_fmt(el['abs_chi']):>16} "
                f"{_fmt(el['phase']):>16} {_fmt(el['L']):>16}"
            )


def _flatten(prefix: str, obj) -> list[tuple[str, str]]:
    if isinstance(obj, dict):
        out = []
        for k, v in obj.items():
            out.extend(_flatten(f"{prefix}{k}." if prefix else f"{k}.", v) if isinstance(v, (dict,)) else [(f"{prefix}{k}", _render(v))])
        return out
    return [(prefix.rstrip("."), _render(obj))]


def _render(v) -> str:
    if isinstance(v, (frozenset, set)):
        return "{" + ", ".join(str(x) for x in sorted(v)) + "}"
    if isinstance(v, float):
        return _fmt(v)
    if isinstance(v, list):
        return "[" + ", ".join(_render(x) for x in v) + "]"
    return str(v)


def cmd_chi(args, group, rep, state) -> dict:
    char = charfn.char_function(rep, state)
    if args.power != 1:
        char = charfn.char_power(char, args.power)
    sets = charfn.classify_sets(char, args.tol)
    elements = [
        {
            "element": g,
            "abs_chi": float(np.exp(char.logmod[g])) if not np.isneginf(char.logmod[g]) else 0.0,
            "phase": float(char.phase[g]),
            "L": charfn.resource_measure_L(char, g),
        }
        for g in range(group.order)
    ]
    return {"power": args.power, "elements": elements, "sym": sets.sym, "zero": sets.zero}


def _chars(rep, psi, phi):
    return charfn.char_function(rep, psi), charfn.char_function(rep, phi)


def cmd_rate_exact(args, group, rep, psi, phi) -> dict:
    report = compute_exact_rate(*_chars(rep, psi, phi), args.tol)
    out = {
        "rate": report.kind,
        "witness": report.witness,
        "assumption_ok": report.assumption_ok,
        "excluded_set": sorted(report.excluded),
    }
    if report.kind == FINITE:
        out["value"] = report.value
    return out


def cmd_convert(args, group, rep, psi, phi) -> dict:
    N, M = args.copies
    res = convertibility.feasible_exact(*_chars(rep, psi, phi), N, M, args.tol)
    return {
        "N": N, "M": M, "feasible": res.feasible, "min_gram_eigenvalue": res.min_gram_eigenvalue,
        "modulus_witness": res.modulus_witness, "zero_set_witness": res.zero_set_witness,
    }


def cmd_min_copies(args, group, rep, psi, phi) -> dict:
    c_psi, c_phi = _chars(rep, psi, phi)
    found = convertibility.minimal_copies_search(c_psi, c_phi, args.rate, args.nmax, args.tol)
    return {"rate": args.rate, "n_max": args.nmax, "min_copies": found}


def cmd_charges(args, group, rep, state) -> dict:
    dist = abelian.charge_distribution(rep, state)
    lam = abelian.dual_fourier(dist)
    return {
        "shape": list(dist.shape),
        "probs": [float(x) for x in dist.probs],
        "dual_coefficients": [[float(z.real), float(z.imag)] for z in lam.values],
    }


def cmd_convert_abelian(args, p, q) -> dict:
    N, M = args.copies
    w, feasible = abelian.fourier_weights(p, q, N, M, args.tol)
    return {
        "N": N, "M": M, "feasible": feasible,
        "weights": [float(x) for x in w], "min_weight": float(np.min(w)),
    }


def cmd_approx(args, group, rep, psi, phi) -> dict:
    c_psi, c_phi = _chars(rep, psi, phi)
    report = approx.approx_rate_class(c_psi, c_phi, args.tol)
    result = {
        "classification": report.classification,
        "sym_psi": report.sym_psi,
        "sym_phi": report.sym_phi,
        "s": report.s,
    }
    if args.curve and report.classification == "unbounded":
        curve = approx._convergence(c_psi, report.sym_psi, args.curve)  # psi classified once
        result["curve"] = [
            {"N": pt.N, "bound": pt.bound, "distance": pt.distance} for pt in curve.points
        ]
    return result


def cmd_qfim(args, state, generators) -> dict:
    F = lie.qfim(lie.pure_density(state), generators)
    return {"qfim": [[float(x) for x in row] for row in F]}


def cmd_rf(args, generators, psi, phi) -> dict:
    F_psi = lie.qfim(lie.pure_density(psi), generators)
    F_phi = lie.qfim(lie.pure_density(phi), generators)
    res = lie.rf_ratio(F_psi, F_phi)
    result = {
        "r_f": res.r_f,
        "direction": [float(x) for x in res.direction] if res.direction is not None else None,
        "method": res.method,
    }
    if args.rate is not None:
        impossible, v, T = lie.converse_certificate(F_psi, F_phi, args.rate, args.delta)
        result["certificate"] = {
            "rate": args.rate,
            "delta": args.delta,
            "impossible": impossible,
            "T": T,
            "witness_direction": [float(x) for x in v] if v is not None else None,
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
_SETS = ("tol_one", "tol_zero")  # classify_sets
_GRAM = ("tol_zero", "tol_psd")  # interpolate's zero sets and the Gram rule

# name -> (handler, input file flags in load order, Tolerances fields read, {option: kwargs})
SUBCOMMANDS = {
    "chi": (cmd_chi, ("group", "rep", "state"), _SETS, {"--power": dict(type=int, default=1)}),
    "rate-exact": (cmd_rate_exact, _PAIR, _SETS, {}),
    "convert": (cmd_convert, _PAIR, _GRAM, _COPIES),
    "min-copies": (
        cmd_min_copies, _PAIR, _GRAM,
        {"--rate": dict(type=float, required=True), "--nmax": dict(type=int, required=True)},
    ),
    "charges": (cmd_charges, ("group", "rep", "state"), (), {}),
    "convert-abelian": (cmd_convert_abelian, ("p", "q"), _GRAM, _COPIES),
    "approx": (
        cmd_approx, _PAIR, ("tol_one",),  # symmetry_subgroup
        {"--curve": dict(type=lambda s: [int(x) for x in s.split(",")], default=None)},
    ),
    "qfim": (cmd_qfim, ("state", "generators"), (), {}),
    "rf": (
        cmd_rf, ("generators", "psi", "phi"), (),
        {"--rate": dict(type=float, default=None), "--delta": dict(type=float, default=0.0)},
    ),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="asym")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, inputs, tols, options) in SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(output="table")
        for flag in inputs:
            p.add_argument(f"--{flag}", required=True)
        p.add_argument("--json", dest="output", action="store_const", const="json")
        p.add_argument("--table", dest="output", action="store_const", const="table")
        for field in tols:  # tol_one -> --tol-one
            p.add_argument("--" + field.replace("_", "-"), type=float, default=getattr(DEFAULT, field))
        for option, kwargs in options.items():
            p.add_argument(option, **kwargs)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handler, inputs, tols, _ = SUBCOMMANDS[args.subcommand]
    # each file is read once, by its loader, which records the digest of what it parsed
    paths = {flag: io.HashingPath(getattr(args, flag)) for flag in inputs}
    try:
        args.tol = Tolerances(**{field: getattr(args, field) for field in tols})
        loaded = {}
        for flag, path in paths.items():
            loaded[flag] = _LOADERS[flag](path, loaded)
        result = handler(args, **loaded)
        report = {
            "subcommand": args.subcommand,
            "inputs": {f: {"path": p.path, "sha256": p.sha256} for f, p in paths.items()},
            "tolerances": {field: getattr(args.tol, field) for field in tols},
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
