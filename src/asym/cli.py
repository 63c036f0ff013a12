"""Command-line entry point: `asym SUBCOMMAND ...`.

Every report carries the subcommand name, sha256 digests of the input
files, and the effective tolerances, so a JSON report doubles as a test
fixture. Exit codes: 0 success, 1 domain error, 2 parse/validation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys

import numpy as np

from . import abelian, approx, charfn, convertibility, io, lie
from .errors import AsymError, ValidationError
from .exact_rate import FINITE, RateReport
from .exact_rate import exact_rate as compute_exact_rate
from .tolerances import Tolerances


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


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


def _base_report(args, inputs: dict[str, str], result: dict) -> dict:
    return {
        "subcommand": args.subcommand,
        "inputs": {k: {"path": v, "sha256": _digest(v)} for k, v in inputs.items()},
        "tolerances": dataclasses.asdict(args.tol),
        "result": result,
    }


def _chars(args):
    """Characteristic functions of the --psi and --phi states under --rep."""
    _, rep = _load_char_pair(args)
    return [charfn.char_function(rep, io.load_state(path)) for path in (args.psi, args.phi)]


def _rate_dict(report: RateReport) -> dict:
    out = {
        "rate": report.kind,
        "witness": report.witness,
        "assumption_ok": report.assumption_ok,
        "excluded_set": sorted(report.excluded),
    }
    if report.kind == FINITE:
        out["value"] = report.value
    return out


def cmd_chi(args) -> dict:
    group, rep = _load_char_pair(args)
    char = charfn.char_function(rep, io.load_state(args.state))
    if args.power > 1:
        char = charfn.char_power(char, args.power)
    sets = charfn.classify_sets(char, args.tol)
    elements = []
    for g in range(group.order):
        elements.append(
            {
                "element": g,
                "abs_chi": float(np.exp(char.logmod[g])) if not np.isneginf(char.logmod[g]) else 0.0,
                "phase": float(char.phase[g]),
                "L": charfn.resource_measure_L(char, g),
            }
        )
    return _base_report(
        args,
        {"group": args.group, "rep": args.rep, "state": args.state},
        {"power": args.power, "elements": elements, "sym": sets.sym, "zero": sets.zero},
    )


def _load_char_pair(args):
    group = io.load_group(args.group)
    rep = io.load_rep(args.rep, group)
    return group, rep


def cmd_rate_exact(args) -> dict:
    c_psi, c_phi = _chars(args)
    report = compute_exact_rate(c_psi, c_phi, args.commutative, args.tol)
    return _base_report(
        args,
        {"group": args.group, "rep": args.rep, "psi": args.psi, "phi": args.phi},
        _rate_dict(report),
    )


def cmd_convert(args) -> dict:
    c_psi, c_phi = _chars(args)
    N, M = args.copies
    res = convertibility.feasible_exact(c_psi, c_phi, N, M, args.tol)
    return _base_report(
        args,
        {"group": args.group, "rep": args.rep, "psi": args.psi, "phi": args.phi},
        {
            "N": N,
            "M": M,
            "feasible": res.feasible,
            "min_gram_eigenvalue": res.min_gram_eigenvalue,
            "method": "gram",
            "modulus_witness": res.modulus_witness,
            "zero_set_witness": res.zero_set_witness,
        },
    )


def cmd_min_copies(args) -> dict:
    c_psi, c_phi = _chars(args)
    found = convertibility.minimal_copies_search(c_psi, c_phi, args.rate, args.nmax, args.tol)
    return _base_report(
        args,
        {"group": args.group, "rep": args.rep, "psi": args.psi, "phi": args.phi},
        {"rate": args.rate, "n_max": args.nmax, "min_copies": found},
    )


def cmd_charges(args) -> dict:
    _, rep = _load_char_pair(args)
    state = io.load_state(args.state)
    dist = abelian.charge_distribution(rep, state)
    lam = abelian.dual_fourier(dist)
    return _base_report(
        args,
        {"group": args.group, "rep": args.rep, "state": args.state},
        {
            "shape": list(dist.shape),
            "probs": [float(x) for x in dist.probs],
            "dual_coefficients": [[float(z.real), float(z.imag)] for z in lam.values],
        },
    )


def cmd_convert_abelian(args) -> dict:
    p = io.load_distribution(args.p)
    q = io.load_distribution(args.q)
    N, M = args.copies
    w, feasible = abelian.fourier_weights(p, q, N, M, args.tol)
    return _base_report(
        args,
        {"p": args.p, "q": args.q},
        {
            "N": N,
            "M": M,
            "feasible": feasible,
            "weights": [float(x) for x in w],
            "min_weight": float(np.min(w)),
            "method": "fourier",
        },
    )


def cmd_approx(args) -> dict:
    c_psi, c_phi = _chars(args)
    report = approx.approx_rate_class(c_psi, c_phi, args.tol)
    result = {
        "classification": report.classification,
        "sym_psi": report.sym_psi,
        "sym_phi": report.sym_phi,
        "s": report.s,
        "generation_ok": report.generation_ok,
    }
    if args.curve and report.classification == "unbounded":
        curve = approx.convergence_to_uniform(c_psi, args.curve, args.tol)
        result["curve"] = [
            {"N": pt.N, "bound": pt.bound, "distance": pt.distance} for pt in curve.points
        ]
    return _base_report(
        args,
        {"group": args.group, "rep": args.rep, "psi": args.psi, "phi": args.phi},
        result,
    )


def cmd_qfim(args) -> dict:
    state = io.load_state(args.state)
    gens = io.load_generators(args.generators)
    F = lie.qfim(lie.pure_density(state), gens)
    return _base_report(
        args,
        {"state": args.state, "generators": args.generators},
        {"qfim": [[float(x) for x in row] for row in F]},
    )


def cmd_rf(args) -> dict:
    gens = io.load_generators(args.generators)
    F_psi = lie.qfim(lie.pure_density(io.load_state(args.psi)), gens)
    F_phi = lie.qfim(lie.pure_density(io.load_state(args.phi)), gens)
    res = lie.rf_ratio(F_psi, F_phi)
    result = {
        "r_f": res.r_f,
        "direction": [float(x) for x in res.direction] if res.direction is not None else None,
        "method": res.method,
    }
    if args.rate is not None:
        impossible, v, T = lie.converse_certificate(
            F_psi, F_phi, args.rate, args.delta
        )
        result["certificate"] = {
            "rate": args.rate,
            "delta": args.delta,
            "impossible": impossible,
            "T": T,
            "witness_direction": [float(x) for x in v] if v is not None else None,
        }
    return _base_report(
        args, {"psi": args.psi, "phi": args.phi, "generators": args.generators}, result
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", choices=["json", "table"], default="table")
    p.add_argument("--json", dest="output", action="store_const", const="json")
    p.add_argument("--table", dest="output", action="store_const", const="table")
    for field in dataclasses.fields(Tolerances):  # --tol-one, --tol-zero, --tol-psd
        p.add_argument("--" + field.name.replace("_", "-"), type=float, default=field.default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="asym")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, func, **files):
        p = sub.add_parser(name)
        for flag, required in files.items():
            p.add_argument(f"--{flag}", required=required)
        _add_common(p)
        p.set_defaults(func=func)
        return p

    p = add("chi", cmd_chi, group=True, rep=True, state=True)
    p.add_argument("--power", type=int, default=1)

    add("rate-exact", cmd_rate_exact, group=True, rep=True, psi=True, phi=True).add_argument(
        "--commutative", action="store_true"
    )

    p = add("convert", cmd_convert, group=True, rep=True, psi=True, phi=True)
    p.add_argument("--copies", type=int, nargs=2, required=True, metavar=("N", "M"))

    p = add("min-copies", cmd_min_copies, group=True, rep=True, psi=True, phi=True)
    p.add_argument("--rate", type=float, required=True)
    p.add_argument("--nmax", type=int, required=True)

    add("charges", cmd_charges, group=True, rep=True, state=True)

    p = add("convert-abelian", cmd_convert_abelian, p=True, q=True)
    p.add_argument("--copies", type=int, nargs=2, required=True, metavar=("N", "M"))

    p = add("approx", cmd_approx, group=True, rep=True, psi=True, phi=True)
    p.add_argument("--curve", type=lambda s: [int(x) for x in s.split(",")], default=None)

    add("qfim", cmd_qfim, state=True, generators=True)

    p = add("rf", cmd_rf, psi=True, phi=True, generators=True)
    p.add_argument("--rate", type=float, default=None)
    p.add_argument("--delta", type=float, default=0.0)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args.tol = Tolerances(args.tol_one, args.tol_zero, args.tol_psd)
        report = args.func(args)
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
