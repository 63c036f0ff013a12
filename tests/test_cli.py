import builtins
import collections
import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asym import charfn, cli, convertibility, io, lie, named_group, validate_projective_rep
from asym.abelian import ChargeDistribution
from asym.cli import main
from asym.errors import ValidationError
from corpus import (SPIN_HALF, corpus_rep, gauged_rep, random_state, write_corpus,
                    z2_population_state)
from asym.groups import PureState
from asym.lie import GeneratorSet
from reference import four_cov_sym


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    write_corpus(directory)
    return directory


def run(capsys, argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, argv):
    code, out, err = run(capsys, list(argv) + ["--json"])
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------- io round trips


def test_io_group_roundtrip(tmp_path):
    g = named_group("S_3")
    path = tmp_path / "g.json"
    io.save_group(path, g)
    loaded = io.load_group(path)
    assert loaded.same_as(g)
    assert loaded.name == "S_3"


def test_io_rep_roundtrip(tmp_path):
    rep = corpus_rep("Q_8")
    gpath, rpath = tmp_path / "g.json", tmp_path / "r.json"
    io.save_group(gpath, rep.group)
    io.save_rep(rpath, rep)
    loaded = io.load_rep(rpath, io.load_group(gpath))
    assert np.allclose(loaded.matrices, rep.matrices, atol=1e-15)


def test_io_state_roundtrip(tmp_path, rng):
    state = random_state(5, rng)
    path = tmp_path / "psi.json"
    io.save_state(path, state)
    loaded = io.load_state(path)
    assert np.allclose(loaded.amplitudes, state.amplitudes, atol=1e-15)


def test_io_distribution_roundtrip(tmp_path):
    d = ChargeDistribution(shape=(2, 2), probs=np.array([0.4, 0.3, 0.2, 0.1]))
    path = tmp_path / "p.json"
    io.save_distribution(path, d)
    loaded = io.load_distribution(path)
    assert loaded.shape == (2, 2)
    assert np.allclose(loaded.probs, d.probs, atol=1e-15)


def test_io_generators_roundtrip(tmp_path):
    gens = GeneratorSet(dim=2, generators=np.array([[[0.0, -0.5j], [0.5j, 0.0]]]))
    path = tmp_path / "x.json"
    io.save_generators(path, gens)
    loaded = io.load_generators(path)
    assert np.allclose(loaded.generators, gens.generators, atol=1e-15)


def test_io_rejects_malformed(tmp_path):
    from asym.errors import ValidationError

    bad = tmp_path / "bad.json"
    bad.write_text('{"order": 2}')
    with pytest.raises(ValidationError):
        io.load_group(bad)
    bad.write_text('{"dim": 2, "amplitudes": [[1.0, 0.0]]}')
    with pytest.raises(ValidationError):
        io.load_state(bad)


# One numeric slot per {} in each document; any one may hold a non-finite literal.
NON_FINITE_DOCS = {
    "group": (io.load_group, '{{"order": 1, "mult_table": [[{}]]}}'),
    "rep": (
        lambda path: io.load_rep(path, named_group("Z_1")),
        '{{"dim": 1, "matrices": [[[[{}, {}]]]]}}',
    ),
    "state": (io.load_state, '{{"dim": 2, "amplitudes": [[{}, {}], [{}, {}]]}}'),
    "distribution": (io.load_distribution, '{{"shape": [2], "probs": [{}, {}]}}'),
    "generators": (io.load_generators, '{{"dim": 1, "generators": [[[[{}, {}]]]]}}'),
}


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(NON_FINITE_DOCS)),
    literal=st.sampled_from(["NaN", "Infinity", "-Infinity", "1e999", "-1e999"]),
    data=st.data(),
)
def test_io_rejects_non_finite_literals(tmp_path_factory, kind, literal, data):
    load, template = NON_FINITE_DOCS[kind]
    slots = ["0"] * template.count("{}")
    slots[data.draw(st.integers(0, len(slots) - 1))] = literal
    path = tmp_path_factory.mktemp("nonfinite") / f"{kind}.json"
    path.write_text(template.format(*slots))
    with pytest.raises(ValidationError) as exc:
        load(path)
    assert str(path) in str(exc.value)


# Each document holds one field that is not a JSON integer (or, last group
# case, an integer no index array can hold).
NON_INTEGER_DOCS = {
    "table-overflow": ("group", '{"order": 1, "mult_table": [[1e999]]}'),
    "table-fraction": ("group", '{"order": 1, "mult_table": [[0.5]]}'),
    "table-float": ("group", '{"order": 1, "mult_table": [[0.0]]}'),
    "table-false": ("group", '{"order": 1, "mult_table": [[false]]}'),
    "table-true": ("group", '{"order": 2, "mult_table": [[0, true], [true, 0]]}'),
    "table-flat": ("group", '{"order": 1, "mult_table": [0]}'),
    "table-string": ("group", '{"order": 1, "mult_table": [["0"]]}'),
    "table-huge": ("group", '{"order": 1, "mult_table": [[100000000000000000000000000000]]}'),
    "order-float": ("group", '{"order": 1.7, "mult_table": [[0]]}'),
    "order-bool": ("group", '{"order": true, "mult_table": [[0]]}'),
    "rep-dim": ("rep", '{"dim": 1.0, "matrices": [[[[1, 0]]]]}'),
    "state-dim": ("state", '{"dim": 1.5, "amplitudes": [[1, 0]]}'),
    "state-dim-bool": ("state", '{"dim": true, "amplitudes": [[1, 0]]}'),
    "shape-float": ("distribution", '{"shape": [2.0], "probs": [0.5, 0.5]}'),
    "shape-bool": ("distribution", '{"shape": [true, 2], "probs": [0.5, 0.5]}'),
    "shape-scalar": ("distribution", '{"shape": 2, "probs": [0.5, 0.5]}'),
    "generators-dim": ("generators", '{"dim": 1.0, "generators": [[[[1, 0]]]]}'),
}


@pytest.mark.parametrize("case", sorted(NON_INTEGER_DOCS))
def test_io_requires_json_integers(tmp_path, case):
    kind, text = NON_INTEGER_DOCS[case]
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    with pytest.raises(ValidationError) as exc:
        NON_FINITE_DOCS[kind][0](path)
    assert str(path) in str(exc.value)


# Each document is JSON of the wrong shape: a top-level string (whose first
# key lookup once indexed the string), a scalar where [re, im] pairs belong,
# a float payload that is ragged or not made of JSON numbers (numpy would
# read "0.6" and true as numbers), or nesting too deep for the parser.
MALFORMED_DOCS = {
    "group-string": ("group", '"mult_table"'),
    "rep-string": ("rep", '"dim"'),
    "state-string": ("state", '"dimension"'),
    "distribution-string": ("distribution", '"shape"'),
    "generators-string": ("generators", '"dimension"'),
    "rep-scalar": ("rep", '{"dim": 1, "matrices": 5}'),
    "state-scalar": ("state", '{"dim": 2, "amplitudes": 5}'),
    "generators-scalar": ("generators", '{"dim": 2, "generators": 5}'),
    "rep-ragged": ("rep", '{"dim": 1, "matrices": [[[[1, 0], [0]]]]}'),
    "state-ragged": ("state", '{"dim": 2, "amplitudes": [[1, 0], [0]]}'),
    "generators-ragged": ("generators", '{"dim": 1, "generators": [[[[1, 0]]], [[1]]]}'),
    "state-text": ("state", '{"dim": 2, "amplitudes": "ab"}'),
    "state-numeric-strings": ("state", '{"dim": 2, "amplitudes": [["0.6", "0"], ["0.8", "0"]]}'),
    "distribution-numeric-strings": ("distribution", '{"shape": [2], "probs": ["0.5", "0.5"]}'),
    "state-booleans": ("state", '{"dim": 1, "amplitudes": [[true, true]]}'),
    "state-deep": ("state", '{"dim": 2, "amplitudes": ' + "[" * 100_000 + "]" * 100_000 + "}"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DOCS))
def test_io_rejects_malformed_documents(tmp_path, case):
    kind, text = MALFORMED_DOCS[case]
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    with pytest.raises(ValidationError) as exc:
        NON_FINITE_DOCS[kind][0](path)
    assert str(path) in str(exc.value)


@pytest.mark.parametrize("case", [c for c in sorted(MALFORMED_DOCS) if c.startswith("state-")])
def test_cli_exit_2_on_malformed_state(capsys, tmp_path, corpus_dir, case):
    bad = tmp_path / "state.json"
    bad.write_text(MALFORMED_DOCS[case][1])
    code, out, err = run(
        capsys,
        ["chi", "--group", corpus_dir / "z2.json", "--rep", corpus_dir / "z2_rep.json",
         "--state", bad],
    )
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "ValidationError"
    assert str(bad) in error["message"]


def test_write_corpus_matches_committed_corpus(tmp_path):
    """scripts/make_corpus.py (`write_corpus`) writes the 18 files of corpus/
    and no other: integer fields match exactly, float entries to 1e-15 (not
    bytewise, so that a numpy version may round the last bit differently)."""
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, root / "scripts" / "make_corpus.py", tmp_path],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert done.returncode == 0, done.stderr
    committed = root / "corpus"
    names = sorted(p.name for p in committed.glob("*.json"))
    assert len(names) == 18
    assert names == sorted(p.name for p in tmp_path.iterdir())
    for name in names:
        want = json.loads((committed / name).read_text())
        got = json.loads((tmp_path / name).read_text())
        assert sorted(got) == sorted(want), name
        for key in want:
            a, b = np.asarray(want[key]), np.asarray(got[key])
            assert (a.dtype.kind, a.shape) == (b.dtype.kind, b.shape), (name, key)
            if a.dtype.kind == "f":
                assert np.allclose(a, b, rtol=0, atol=1e-15), (name, key)
            else:
                assert np.array_equal(a, b), (name, key)


# ------------------------------------------------------------------ subcommands


def test_cli_chi_table_output(capsys, corpus_dir):
    code, out, _ = run(
        capsys,
        ["chi", "--group", corpus_dir / "z2.json", "--rep", corpus_dir / "z2_rep.json",
         "--state", corpus_dir / "z2_psi08.json", "--table"],
    )
    assert code == 0
    assert "|chi|" in out
    assert "0.6" in out


def test_cli_output_is_deterministic(capsys, corpus_dir):
    argv = ["chi", "--group", corpus_dir / "z2.json", "--rep", corpus_dir / "z2_rep.json",
            "--state", corpus_dir / "z2_psi08.json", "--json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_cli_convert_abelian_reads_tol_psd(capsys, tmp_path):
    # lambda_1(p) / lambda_1(q) = 1 + 2e-7, so w = (1 + 1e-7, -1e-7): the
    # verdict turns on the Gram cut, which on w is -TOL_PSD = -1e-9
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    io.save_distribution(p, ChargeDistribution(shape=(2,), probs=np.array([0.90000008, 0.09999992])))
    io.save_distribution(q, ChargeDistribution(shape=(2,), probs=np.array([0.9, 0.1])))
    argv = ["convert-abelian", "--p", p, "--q", q, "--copies", "1", "1"]
    report = run_json(capsys, argv)
    assert report["result"]["min_weight"] == pytest.approx(-1e-7, rel=1e-6)
    assert report["result"]["feasible"] is False
    assert sorted(report) == ["inputs", "result", "subcommand"]
    for gone in (["--tol-psd", "1e-6"], ["--tol-w", "1e-6"], ["--seed", "3"]):
        code, out, _ = run(capsys, argv + gone)
        assert (code, out) == (2, "")


def test_cli_approx_classifies_each_state_once(capsys, corpus_dir, monkeypatch):
    # the curve reuses the report's decay base and psi's cached sym(psi): psi
    # and phi go to symmetry_subgroup once each
    seen, classify = [], charfn.symmetry_subgroup
    monkeypatch.setattr(charfn, "symmetry_subgroup",
                        lambda c: seen.append(c) or classify(c))
    report = run_json(
        capsys,
        ["approx", "--group", corpus_dir / "z2.json", "--rep", corpus_dir / "z2_rep.json",
         "--psi", corpus_dir / "z2_psi08.json", "--phi", corpus_dir / "z2_psi068.json",
         "--curve", "1,2,4"],
    )
    assert len(report["result"]["curve"]) == 3
    assert len(seen) == 2 and seen[0] is not seen[1]


# -------------------------------------------------------------------- exit codes


def test_cli_exit_1_on_linalg_error(capsys, corpus_dir, monkeypatch):
    # LinAlgError subclasses ValueError, but a failed decomposition is a
    # domain error, not a parse failure
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(convertibility, "feasible_exact", no_convergence)
    code, _, err = run(
        capsys,
        ["convert", "--group", corpus_dir / "z2.json", "--rep", corpus_dir / "z2_rep.json",
         "--psi", corpus_dir / "z2_psi068.json", "--phi", corpus_dir / "z2_psi08.json",
         "--copies", "1", "2"],
    )
    assert code == 1
    assert json.loads(err)["error"] == "LinAlgError"


def test_cli_exit_2_on_unknown_subcommand(capsys):
    assert main(["no-such-command"]) == 2


# ------------------------------------------------- tolerance, rate and error gates


def valid_argv(sub, corpus_dir, tmp_path):
    """A call of each subcommand that succeeds."""
    c = corpus_dir
    pair = ["--psi", c / "z2_psi068.json", "--phi", c / "z2_psi08.json"]
    on_z2 = ["--group", c / "z2.json", "--rep", c / "z2_rep.json"]
    p, q = tmp_path / "p.json", tmp_path / "q.json"
    io.save_distribution(p, ChargeDistribution(shape=(2,), probs=np.array([0.75, 0.25])))
    io.save_distribution(q, ChargeDistribution(shape=(2,), probs=np.array([0.9, 0.1])))
    return {
        "chi": on_z2 + ["--state", c / "z2_psi08.json"],
        "rate-exact": on_z2 + pair,
        "convert": on_z2 + pair + ["--copies", "1", "2"],
        "min-copies": on_z2 + pair + ["--rate", "1.5", "--nmax", "8"],
        "charges": on_z2 + ["--state", c / "z2_psi08.json"],
        "convert-abelian": ["--p", p, "--q", q, "--copies", "1", "1"],
        "approx": on_z2 + pair + ["--curve", "1,2"],
        "qfim": ["--state", c / "z2_psi08.json", "--generators", c / "spin_half_gens.json"],
        "rf": pair + ["--generators", c / "spin_half_gens.json", "--rate", "2.0"],
    }[sub]


SUBCOMMANDS = ["chi", "rate-exact", "convert", "min-copies", "charges", "convert-abelian",
               "approx", "qfim", "rf"]


def assert_domain_error(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    assert (code, out) == (1, ""), (argv, err)
    assert json.loads(err)["error"] == "DomainError"


def assert_usage_error(capsys, argv):
    code, out, err = run(capsys, argv + ["--json"])
    assert (code, out) == (2, ""), (argv, err)
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_cli_rejects_bad_tolerances(capsys, corpus_dir, tmp_path, sub):
    # the decision cuts are the constants TOL_ONE, TOL_ZERO and TOL_PSD: every
    # --tol-* flag is a usage error whatever its value, and so is --commutative,
    # since whether the group is abelian is read off its table
    argv = [sub] + valid_argv(sub, corpus_dir, tmp_path)
    for flag in ("--tol-one", "--tol-zero", "--tol-psd"):
        for value in ("1e-6", "nan", "0"):
            assert_usage_error(capsys, argv + [f"{flag}={value}"])
            assert_usage_error(capsys, argv + [flag, value])
    assert_usage_error(capsys, argv + ["--commutative"])


def tolerance_keys(node):
    """The keys of a JSON report, at any depth, that name a tolerance."""
    if isinstance(node, dict):
        return [k for k in node if "tol" in k] + [k for v in node.values() for k in tolerance_keys(v)]
    if isinstance(node, list):
        return [k for v in node for k in tolerance_keys(v)]
    return []


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_cli_reports_the_tolerances_it_ran_with(capsys, corpus_dir, tmp_path, sub):
    # every run is at the fixed cuts, so the report carries none and two runs agree
    argv = [sub] + valid_argv(sub, corpus_dir, tmp_path)
    report = run_json(capsys, argv)
    assert tolerance_keys(report) == []
    assert run_json(capsys, argv) == report
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert "tol" not in out.lower()


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_cli_declares_the_tolerances_its_handler_reads(capsys, corpus_dir, tmp_path, monkeypatch, sub):
    # the handler reads from args exactly the options SUBCOMMANDS declares for
    # it, none of them a tolerance, and the parser offers no --tol-* flag
    reads = set()

    class Recording:
        def __init__(self, args):
            self._args = args

        def __getattr__(self, name):
            reads.add(name)
            return getattr(self._args, name)

    handler, inputs, options = cli.SUBCOMMANDS[sub]
    monkeypatch.setitem(
        cli.SUBCOMMANDS, sub,
        (lambda args, **loaded: handler(Recording(args), **loaded), inputs, options),
    )
    run_json(capsys, [sub] + valid_argv(sub, corpus_dir, tmp_path))
    declared = {option.lstrip("-").replace("-", "_") for option in options}
    assert reads == declared
    assert not any("tol" in name for name in declared)
    subparsers = next(a for a in cli.build_parser()._actions if a.dest == "subcommand")
    flags = [f for action in subparsers.choices[sub]._actions for f in action.option_strings]
    assert not any(f.startswith("--tol") for f in flags)


@pytest.mark.parametrize(
    "sub, extra",
    [
        ("min-copies", ["--rate", "inf"]),
        ("min-copies", ["--rate", "nan"]),
        ("rf", ["--rate", "nan"]),
        ("rf", ["--rate", "inf"]),
        ("rf", ["--delta", "nan"]),
        ("rf", ["--delta", "inf"]),
        ("min-copies", ["--rate", "-1"]),
        ("min-copies", ["--nmax", "0"]),
        ("min-copies", ["--nmax", "100000"]),
        ("rf-bare", ["--delta", "nan"]),
        ("rf-bare", ["--delta", "-1"]),
    ],
)
def test_cli_rejects_non_finite_rate_and_error(capsys, corpus_dir, tmp_path, sub, extra):
    # min-copies --rate inf printed a traceback, --rate -1 blamed a copy
    # number and an --nmax out of range exited 2; rf --rate nan reported
    # "impossible: false", and rf-bare (rf without its --rate) reported no
    # error for any --delta; later flags override the valid ones
    argv = valid_argv(sub.removesuffix("-bare"), corpus_dir, tmp_path)
    if sub == "rf-bare":
        sub, argv = "rf", argv[: argv.index("--rate")]
    assert_domain_error(capsys, [sub] + argv + extra)


@pytest.mark.parametrize(
    "sub, extra",
    [
        ("rf", ["--delta", "-1e-3"]),
        ("rf", ["--delta", "-1E-3"]),
        ("rf", ["--rate", "-2.5e0"]),
        ("rf-bare", ["--delta", "-.5e-2"]),
        ("min-copies", ["--rate", "-1e-3"]),
        ("min-copies", ["--rate", "-1e+3"]),
        ("min-copies", ["--nmax", "-5"]),
        ("convert", ["--copies", "-2", "1"]),
        ("approx", ["--curve", "-1,2"]),
        ("chi", ["--power", "-3"]),
    ],
)
def test_cli_reads_a_negative_number_in_exponent_form_as_a_value(
    capsys, corpus_dir, tmp_path, sub, extra
):
    # argparse took -1e-3 (and -1,2) for an unknown flag: exit 2 with "expected
    # one argument", where -1 exits 1 with the documented DomainError
    argv = valid_argv(sub.removesuffix("-bare"), corpus_dir, tmp_path)
    if sub == "rf-bare":
        sub, argv = "rf", argv[: argv.index("--rate")]
    assert_domain_error(capsys, [sub] + argv + extra)


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--rate", "nan"], "rate must be positive and finite, got nan"),
        (["--rate", "-1"], "rate must be positive and finite, got -1.0"),
        (["--rate", "inf", "--delta", "0.5"], "rate must be positive and finite, got inf"),
        (["--delta", "nan"], "error must be nonnegative and finite, got nan"),
    ],
    ids=["rate-nan", "rate-negative", "rate-inf", "delta-nan"],
)
def test_cli_rf_checks_the_certificate_arguments_before_any_eigensolver(
    capsys, corpus_dir, tmp_path, eigensolver_calls, extra, message
):
    # --rate nan on the README pair made 84 eigvalsh calls (both QFIMs and the
    # whole bisection) before it exited 1 with its DomainError
    argv = ["rf"] + valid_argv("rf", corpus_dir, tmp_path) + extra + ["--json"]
    code, out, err = run(capsys, argv)
    assert (code, out, sum(eigensolver_calls.values())) == (1, "", 0), err
    assert json.loads(err) == {"error": "DomainError", "message": message}


@pytest.mark.parametrize(
    "sub, extra",
    [
        ("chi", ["--power", "{}"]),
        ("convert", ["--copies", "{}", "1"]),
        ("convert", ["--copies", "1", "{}"]),
        ("convert-abelian", ["--copies", "{}", "1"]),
        ("convert-abelian", ["--copies", "1", "{}"]),
        ("approx", ["--curve", "1,{}"]),
    ],
    ids=["chi-power", "convert-N", "convert-M", "convert-abelian-N", "convert-abelian-M",
         "approx-curve"],
)
def test_cli_rejects_copy_numbers_beyond_a_float(capsys, corpus_dir, tmp_path, sub, extra):
    # each used to exit 1 with an OverflowError traceback and no JSON error;
    # 10^308 fits a float, but chi --power printed a NaN phase and convert
    # blamed a non-Hermitian Gram matrix
    for huge in (10**400, 10**308):
        argv = [sub] + valid_argv(sub, corpus_dir, tmp_path) + [x.format(huge) for x in extra]
        assert_domain_error(capsys, argv)


# case -> (subcommand, arguments); "{valid}" expands to valid_argv's arguments
TABLE_CASES = {
    "chi": ("chi", ["{valid}"]),
    "chi-power-2": ("chi", ["{valid}", "--power", "2"]),
    "chi-power-3": ("chi", ["{valid}", "--power", "3"]),
    "chi-zero": ("chi", ["{valid}", "--state", "{flat}"]),
    "rate-exact": ("rate-exact", ["{valid}"]),
    "convert": ("convert", ["{valid}"]),
    "convert-witness": ("convert", ["{valid}", "--copies", "1", "3"]),
    "min-copies": ("min-copies", ["{valid}"]),
    "min-copies-none": ("min-copies", ["{valid}", "--rate", "2.5"]),
    "charges": ("charges", ["{valid}"]),
    "convert-abelian": ("convert-abelian", ["{valid}"]),
    "approx": ("approx", ["{valid}"]),
    "approx-readme": ("approx", ["{valid}", "--psi", "{psi08}", "--phi", "{psi068}",
                                 "--curve", "1,2,4,8"]),
    "qfim": ("qfim", ["{valid}"]),
    "rf": ("rf", ["{valid}"]),
    "rf-no-rate": ("rf", ["--psi", "{psi08}", "--phi", "{psi068}", "--generators", "{gens}"]),
    "rf-readme": ("rf", ["--psi", "{psi08}", "--phi", "{psi068}", "--generators", "{gens}",
                         "--rate", "2.0", "--delta", "1e-4"]),
}


def json_cells(node, prefix=""):
    """Key path -> the scalars of a JSON result as strings, opened as the table
    opens it: dicts, and lists of dicts by position, give a key each."""
    if isinstance(node, list) and node and all(isinstance(x, dict) for x in node):
        node = dict(enumerate(node))
    if isinstance(node, dict):
        return {k: v for key, val in node.items()
                for k, v in json_cells(val, f"{prefix}{key}.").items()}

    def scalars(x):
        return [s for y in x for s in scalars(y)] if isinstance(x, list) else [str(x)]

    return {prefix[:-1]: scalars(node)}


@pytest.mark.parametrize("case", TABLE_CASES)
def test_cli_table_prints_the_json_values(capsys, corpus_dir, tmp_path, case):
    # the table used to print its own 10-digit floats (0.1295999999999998 in
    # the approx curve where the JSON has 0.1296) and {}-sets
    io.save_state(tmp_path / "flat.json", z2_population_state(0.5))
    names = {"flat": tmp_path / "flat.json", "psi08": corpus_dir / "z2_psi08.json",
             "psi068": corpus_dir / "z2_psi068.json", "gens": corpus_dir / "spin_half_gens.json"}
    sub, template = TABLE_CASES[case]
    argv = [sub]
    for x in template:
        argv += valid_argv(sub, corpus_dir, tmp_path) if x == "{valid}" else [x.format(**names)]
    result = run_json(capsys, argv)["result"]
    code, out, err = run(capsys, argv + ["--table"])
    assert code == 0, err
    lines = out.splitlines()
    elements = result.pop("elements", [])
    if elements:
        header = lines.index(next(line for line in lines if line.split()[:1] == ["g"]))
        lines, rows = lines[:header], lines[header + 1 :]
        assert [row.split() for row in rows] == [
            [str(el[k]) for k in ("element", "abs_chi", "phase", "L")] for el in elements
        ]
    cells = (line.split(None, 1) for line in lines)
    table = {key: re.findall(r"[^\[\], ]+", cell) for key, cell in cells}
    assert table == json_cells(result)


def test_cli_rf_rate_computes_the_pencil_once(capsys, corpus_dir, tmp_path, monkeypatch):
    # the certificate reads the report's r_f: on this singular pencil a second
    # rf_ratio call repeated the whole bisection
    calls, rf_ratio = [], lie.rf_ratio
    monkeypatch.setattr(lie, "rf_ratio", lambda *a: calls.append(a) or rf_ratio(*a))
    argv = ["rf", "--psi", corpus_dir / "z2_psi08.json", "--phi", corpus_dir / "z2_psi068.json",
            "--generators", corpus_dir / "spin_half_gens.json", "--rate", "2.0", "--delta", "1e-4"]
    result = run_json(capsys, argv)["result"]
    assert len(calls) == 1
    assert result["method"] == "bisection" and result["certificate"]["impossible"] is True
    assert isinstance(result["r_f"], float) and math.isfinite(result["r_f"])
    impossible, v, T = lie.converse_certificate(*calls[0], 2.0, 1e-4)
    assert result["certificate"] == cli._jsonable(
        {"rate": 2.0, "delta": 1e-4, "impossible": impossible, "T": T, "witness_direction": v}
    )


def readme_examples() -> list[list[str]]:
    """The argv of each `asym ...` call in README's "Command line" block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    calls = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]
    return [argv[1:] for argv in calls if argv and argv[0] == "asym"]


def test_cli_runs_every_readme_example(capsys, tmp_path, monkeypatch):
    write_corpus(tmp_path / "corpus")
    io.save_distribution(tmp_path / "p.json", ChargeDistribution((2,), np.array([0.75, 0.25])))
    io.save_distribution(tmp_path / "q.json", ChargeDistribution((2,), np.array([0.9, 0.1])))
    monkeypatch.chdir(tmp_path)
    examples = readme_examples()
    assert sorted({argv[0] for argv in examples}) == sorted(SUBCOMMANDS)
    for argv in examples:
        code, _, err = run(capsys, argv)
        assert code == 0, (argv, err)


# ------------------------------------------------- the documented answer of each call


# Files that a loader refuses (exit 2): `contract_dir` writes each to {name}.json.
REFUSED_FILES = {
    "scalar_amplitudes": '{"dim": 2, "amplitudes": 5}',
    "norm_sqrt2": '{"dim": 2, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}',
    "not_json": "{not json",
    "overflowing_entry": '{"order": 1, "mult_table": [[1e999]]}',
    "order_3_of_2": '{"order": 3, "mult_table": [[0, 1], [1, 0]]}',
    "identity_at_1": '{"order": 2, "mult_table": [[1, 0], [0, 1]]}',
    "one_row_of_2": '{"order": 2, "mult_table": [[0, 1]]}',
    "entry_out_of_range": '{"order": 2, "mult_table": [[0, 1], [1, 2]]}',
    "rep_1x1_of_dim_2": '{"dim": 2, "matrices": [[[[1, 0]]], [[[1, 0]]]]}',
    "negative_probability": '{"shape": [2], "probs": [1.5, -0.5]}',
    "sum_1.1": '{"shape": [2], "probs": [0.6, 0.5]}',
    "one_probability_of_2": '{"shape": [2], "probs": [1.0]}',
}


@pytest.fixture(scope="session")
def contract_dir(tmp_path_factory):
    """The inputs of `CONTRACT` that the corpus lacks."""
    directory = tmp_path_factory.mktemp("contract")
    X, Z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    pauli = [np.eye(2), Z, X, X @ Z]  # X^a Z^b on Z_2 x Z_2: projective, not commuting
    io.save_rep(directory / "pauli_rep.json",
                validate_projective_rep(named_group("Z_2xZ_2"), pauli))
    io.save_rep(directory / "iz_rep.json", gauged_rep("iZ"))
    distributions = {"delta0": [1, 0], "delta1": [0, 1], "p": [0.75, 0.25], "q": [0.9, 0.1]}
    for name, probs in distributions.items():
        io.save_distribution(directory / f"{name}.json", ChargeDistribution((2,), np.array(probs)))
    states = {
        "plus": [1, 1],  # (|0> + |1>)/sqrt 2
        "zero": [1, 0],  # sym = Z_2
        "z4_psi": [0, 1, 1, 0],
        "z4_phi": [1, 1, 0, 0],
        "z4_sym02": [0.8, 0, 0.6, 0],  # sym = {0, 2}
        # |chi| - 1 = -8e-11, -1.6e-10, -8e-11: the unit set {0, 1, 3} is no subgroup
        "z4_cut": np.sqrt([1 - 8e-11, 8e-11, 0, 0]),
        "z4_generic": [0.7, 0.5, 0.4, np.sqrt(0.1)],
        "s3_sym01": [0.5, 0.5, 0.7],  # sym = {e, (01)}
        "s3_e0": [1, 0, 0],
    }
    for name, amps in states.items():
        io.save_state(directory / f"{name}.json", PureState(len(amps), amps / np.linalg.norm(amps)))
    for dim in (2, 3, 4):
        io.save_state(directory / f"random{dim}.json", random_state(dim, np.random.default_rng(0)))
    for name, text in REFUSED_FILES.items():
        (directory / f"{name}.json").write_text(text)
    return directory


def refused(error, message):
    """The expected JSON error: its name and a fragment of its message."""
    return {"error": error, "message": lambda text: message in text}


ABSENT = object()  # the expected value of a key that the document lacks

Z2 = ["--group", "{c}/z2.json", "--rep", "{c}/z2_rep.json"]
Z4 = ["--group", "{c}/z4.json", "--rep", "{c}/z4_rep.json"]
# chi of the README state; a later flag overrides an earlier one (argparse)
CHI = ["chi", *Z2, "--state", "{c}/z2_psi08.json"]
README_PAIR = Z2 + ["--psi", "{c}/z2_psi068.json", "--phi", "{c}/z2_psi08.json"]
README_RATE = {"rate": "finite", "value": 2.0, "witness": 1, "excluded_set": [0],
               "assumption_ok": True}
APPROX_PAIR = Z2 + ["--psi", "{c}/z2_psi08.json", "--phi", "{c}/z2_psi068.json"]
# chi_phi(1) = 0 != chi_psi(1): a zero-set violation
ZERO_PAIR = Z2 + ["--psi", "{c}/z2_psi08.json", "--phi", "{t}/plus.json"]
SYM_PAIR = Z2 + ["--psi", "{t}/zero.json", "--phi", "{c}/z2_psi08.json"]  # the zero class
IZ_PAIR = README_PAIR + ["--rep", "{t}/iz_rep.json"]
LINEAR_ONLY = refused("DomainError", "the Gram test takes a linear rep")
S3_SELF = ["--group", "{c}/s3.json", "--rep", "{c}/s3_rep.json",
           "--psi", "{c}/s3_random.json", "--phi", "{c}/s3_random.json"]
CONVERT_ABELIAN = ["convert-abelian", "--copies", "1", "1"]
RF = ["rf", "--psi", "{c}/z2_psi08.json", "--phi", "{c}/z2_psi068.json",
      "--generators", "{c}/spin_half_gens.json"]


def unbounded_curve(curve):
    """The README curve: N = 1, 2, 4, 8 from the bound 0.6^2, each distance within its bound."""
    return ([pt["N"] for pt in curve] == [1, 2, 4, 8]
            and curve[0]["bound"] == pytest.approx(0.36, rel=1e-9)
            and all(pt["distance"] <= pt["bound"] for pt in curve))


# case -> (argv, exit code, expected). "{c}" is the corpus directory, "{t}" that
# of `contract_dir`. Exit 0 reads the JSON result, any other code the JSON
# error on stderr; each expected key must equal its value, or pass it if
# callable, and a key expected `ABSENT` must be missing.
CONTRACT = {
    # ---- loaders: a file that is no valid input
    "file-missing": ([*CHI, "--group", "{c}/nope.json"], 2,
                     refused("FileNotFoundError", "No such file")),
    "file-not-json": ([*CHI, "--group", "{t}/not_json.json"], 2,
                      refused("JSONDecodeError", "line 1 column 2")),
    "group-entry-overflows": ([*CHI, "--group", "{t}/overflowing_entry.json"], 2,
                              refused("ValidationError", "mult_table must be JSON integers")),
    "group-declared-order": ([*CHI, "--group", "{t}/order_3_of_2.json"], 2,
                             refused("ValidationError", "declared order 3 != table size 2")),
    "group-identity-not-first": (
        [*CHI, "--group", "{t}/identity_at_1.json"], 2,
        refused("ValidationError", "serialized groups must have the identity at index 0")),
    "group-table-not-square": ([*CHI, "--group", "{t}/one_row_of_2.json"], 2,
                               refused("AxiomViolation", "closure (witness table shape (1, 2))")),
    "group-entry-out-of-range": ([*CHI, "--group", "{t}/entry_out_of_range.json"], 2,
                                 refused("AxiomViolation", "closure (witness (1, 1))")),
    "rep-matrix-shape": (
        [*CHI, "--rep", "{t}/rep_1x1_of_dim_2.json"], 2,
        refused("ValidationError", "expected 2 matrices of size 2x2, got (2, 1, 1)")),
    "state-scalar-amplitudes": ([*CHI, "--state", "{t}/scalar_amplitudes.json"], 2,
                                refused("ValidationError", "entries must be [re, im] pairs")),
    "state-norm": ([*CHI, "--state", "{t}/norm_sqrt2.json"], 2,
                   {"error": "NotAState",
                    "message": "state norm 1.4142135623730951 deviates from 1 beyond tolerance"}),
    "distribution-negative": (
        [*CONVERT_ABELIAN, "--p", "{t}/negative_probability.json", "--q", "{t}/q.json"], 2,
        refused("ShapeMismatch", "negative probability -5.000e-01")),
    "distribution-sum-off-one": (
        [*CONVERT_ABELIAN, "--p", "{t}/sum_1.1.json", "--q", "{t}/q.json"], 2,
        {"error": "ShapeMismatch", "message": "probabilities sum to 1.1"}),
    "distribution-count": (
        [*CONVERT_ABELIAN, "--p", "{t}/one_probability_of_2.json", "--q", "{t}/q.json"], 2,
        refused("ShapeMismatch", "expected 2 probabilities, got shape (1,)")),
    "qfim-qutrit-spin-half": (
        ["qfim", "--state", "{c}/s3_random.json", "--generators", "{c}/spin_half_gens.json"], 2,
        refused("DimensionMismatch", "rho dim 3 != generator dim 2")),
    # ---- chi
    "chi-readme": (CHI, 0, {"sym": [0], "zero": [], "elements": lambda els:
                            els[1]["abs_chi"] == pytest.approx(0.6, abs=1e-9)}),
    "chi-power-2": ([*CHI, "--power", "2"], 0,
                    {"elements": lambda els: els[1]["abs_chi"] == pytest.approx(0.36, abs=1e-9)}),
    # each used to exit 0 with the single-copy table labelled "power": 0
    **{f"chi-power-{power}": ([*CHI, "--power", power], 1,
                              refused("DomainError", f"an integer in [1, 2.86e+307], got {power}"))
       for power in ("0", "-2")},
    # chi reports the raw TOL_ONE cut; approx refuses it
    "chi-unit-cut-no-subgroup": (["chi", *Z4, "--state", "{t}/z4_cut.json"], 0,
                                 {"sym": [0, 1, 3], "zero": []}),
    "approx-unit-cut-no-subgroup": (
        ["approx", *Z4, "--psi", "{t}/z4_cut.json", "--phi", "{t}/z4_cut.json"], 1,
        refused("SymNotSubgroup", "[0, 1, 3] is not closed under the group law")),
    # ---- rate-exact
    "rate-exact-readme": (["rate-exact", *README_PAIR], 0, README_RATE),
    # the rate reads |chi| alone: the projective iZ rep gives the corpus rep's report
    "rate-exact-readme-iz": (["rate-exact", *IZ_PAIR], 0, README_RATE),
    # sym(phi) = {0, 2} on Z_4 and {e, (01)} on S_3: the formula is proved on
    # the abelian group only
    "rate-exact-z4-assumption": (
        ["rate-exact", *Z4, "--psi", "{t}/random4.json", "--phi", "{t}/z4_sym02.json"], 0,
        {"rate": "finite", "assumption_ok": True, "excluded_set": lambda s: len(s) == 2}),
    "rate-exact-s3-assumption": (
        ["rate-exact", "--group", "{c}/s3.json", "--rep", "{c}/s3_rep.json",
         "--psi", "{t}/random3.json", "--phi", "{t}/s3_sym01.json"], 0,
        {"rate": "finite", "assumption_ok": False, "excluded_set": lambda s: len(s) == 2}),
    # the Pauli matrices do not commute: with sym(phi) = {e, X} the formula is not proved
    "rate-exact-pauli": (
        ["rate-exact", "--group", "{c}/z2xz2.json", "--rep", "{t}/pauli_rep.json",
         "--psi", "{t}/random2.json", "--phi", "{t}/plus.json"], 0,
        {"rate": "zero", "assumption_ok": False, "excluded_set": [0, 1, 2, 3]}),
    # psi's unit set {0, 1, 3} is not a subgroup, which the rate never reads
    "rate-exact-near-the-symmetry-cut": (
        ["rate-exact", *Z4, "--psi", "{t}/z4_cut.json", "--phi", "{t}/z4_generic.json"], 0,
        {"rate": "finite", "witness": 1, "excluded_set": [0], "value": lambda v: 0 < v < 1e-9}),
    "zero-set-rate": (["rate-exact", *ZERO_PAIR], 0, {"rate": "zero"}),
    "z4-charge-shift-rate": (
        ["rate-exact", *Z4, "--psi", "{t}/z4_psi.json", "--phi", "{t}/z4_phi.json"], 0,
        {"value": 1.0, "assumption_ok": True}),
    # ---- convert and min-copies
    "convert-readme": (["convert", *README_PAIR, "--copies", "1", "2"], 0,
                       {"feasible": True, "zero_set_witness": None}),
    "convert-readme-above-the-rate": (["convert", *README_PAIR, "--copies", "1", "3"], 0,
                                      {"feasible": False, "modulus_witness": 1}),
    # S_3's 2-dim irrep takes the closed-form minimum: psi -> psi at one copy
    # each, with a minimum within TOL_PSD |G| of 0
    "s3-self": (["convert", *S3_SELF, "--copies", "1", "1"], 0,
                {"feasible": True, "min_gram_eigenvalue": pytest.approx(0.0, abs=6e-9)}),
    # a verdict with its witness, exit 0
    "zero-set-one-copy": (["convert", *ZERO_PAIR, "--copies", "1", "1"], 0,
                          {"feasible": False, "zero_set_witness": 1, "modulus_witness": None}),
    "zero-set-convert": (["convert", *ZERO_PAIR, "--copies", "3", "1"], 0,
                         {"feasible": False, "zero_set_witness": 1}),
    "zero-set-no-copies": (["convert", *ZERO_PAIR, "--copies", "3", "0"], 0,
                           {"feasible": True, "zero_set_witness": None}),
    # the Gram view's exact gate refuses a copy number beyond an exact float
    "convert-beyond-an-exact-float": (
        ["convert", *README_PAIR, "--copies", "1", "10000000000000001"], 1,
        refused("DomainError", "no exact float")),
    # U(1) = iZ is gauge-equivalent to the corpus rep; (2, 2) read feasible on it once
    "convert-iz": (["convert", *IZ_PAIR, "--copies", "2", "2"], 1, LINEAR_ONLY),
    "convert-iz-no-copies": (["convert", *IZ_PAIR, "--copies", "1", "0"], 1, LINEAR_ONLY),
    "min-copies-iz": (["min-copies", *IZ_PAIR, "--rate", "1.0", "--nmax", "8"], 1, LINEAR_ONLY),
    # below the README pair's rate of 2 every row is settled feasible
    "readme-below-the-rate": (["min-copies", *README_PAIR, "--rate", "1.0", "--nmax", "50"], 0,
                              {"min_copies": 1}),
    "min-copies-readme": (["min-copies", *README_PAIR, "--rate", "1.5", "--nmax", "24"], 0,
                          {"min_copies": 1}),
    "min-copies-readme-above-the-rate": (
        ["min-copies", *README_PAIR, "--rate", "2.5", "--nmax", "24"], 0, {"min_copies": None}),
    "s3-self-at-the-rate": (["min-copies", *S3_SELF, "--rate", "1.0", "--nmax", "20"], 0,
                            {"min_copies": 1}),
    # above the rate the row n_max is settled infeasible from |f| alone
    "s3-self-above-the-rate": (["min-copies", *S3_SELF, "--rate", "1.5", "--nmax", "20"], 0,
                               {"min_copies": None}),
    "zero-set-search": (["min-copies", *ZERO_PAIR, "--rate", "0.5", "--nmax", "20"], 0,
                        {"min_copies": None}),
    # floor(0.01 * 20) = 0: every row has M = 0
    "zero-set-search-below-one": (["min-copies", *ZERO_PAIR, "--rate", "0.01", "--nmax", "20"], 0,
                                  {"min_copies": 1}),
    # ---- charges and convert-abelian
    "charges-readme": (["charges", *Z2, "--state", "{c}/z2_psi08.json"], 0,
                       {"shape": [2], "probs": pytest.approx([0.8, 0.2], abs=1e-9)}),
    # gauged to Z (U^2 = -I), the projective iZ rep gives the corpus rep's sectors
    "charges-projective": (
        ["charges", "--group", "{c}/z2.json", "--rep", "{t}/iz_rep.json",
         "--state", "{c}/z2_psi068.json"], 0,
        {"probs": pytest.approx([0.68, 0.32], abs=1e-12)}),
    # a charge decomposition of a nonabelian group is a domain error, not a parse failure
    "charges-nonabelian": (
        ["charges", "--group", "{c}/s3.json", "--rep", "{c}/s3_rep.json",
         "--state", "{t}/s3_e0.json"], 1,
        refused("NotAbelian", "multiplication table is not symmetric")),
    "convert-abelian-readme": (
        [*CONVERT_ABELIAN, "--p", "{t}/p.json", "--q", "{t}/q.json"], 0,
        {"feasible": True, "weights": pytest.approx([0.8125, 0.1875], abs=1e-9),
         "modulus_witness": None}),
    # lambda_1 ratio 0.8 / 0.5 = 1.6 > 1: the 2 x 2 minor at label 1 proves it infeasible
    "convert-abelian-reversed": (
        [*CONVERT_ABELIAN, "--p", "{t}/q.json", "--q", "{t}/p.json"], 0,
        {"feasible": False, "modulus_witness": 1, "zero_set_witness": None}),
    # for odd M the weights are delta_1: the sign on the involution comes from M's parity
    "convert-abelian-odd-copies": (
        ["convert-abelian", "--p", "{t}/delta0.json", "--q", "{t}/delta1.json",
         "--copies", "1", "1000000000000001"], 0,
        {"weights": pytest.approx([0.0, 1.0], abs=1e-12)}),
    # ---- approx
    "approx-readme": (["approx", *APPROX_PAIR, "--curve", "1,2,4,8"], 0,
                      {"classification": "unbounded", "curve": unbounded_curve}),
    # a curve entry passes `copy_numbers` alone: N = 10^16 + 1 is reported as given
    "approx-beyond-an-exact-float": (
        ["approx", *APPROX_PAIR, "--curve", "1,10000000000000001"], 0,
        {"curve": lambda curve: [pt["N"] for pt in curve] == [1, 10**16 + 1]}),
    # each used to exit 0, skipping such N: "0,2" reported N = 2 only, "-3" "curve": []
    **{f"approx-curve-{curve}": (["approx", *APPROX_PAIR, f"--curve={curve}"], 1,
                                 refused("DomainError", f"got {curve.split(',')[0]}"))
       for curve in ("0", "0,2", "-3")},
    # a zero-class pair computes no curve, so there is no copy number to refuse
    **{f"approx-zero-class-curve-{curve}": (
        ["approx", *SYM_PAIR, f"--curve={curve}"], 0,
        {"classification": "zero", "curve": ABSENT}) for curve in ("0", "0,2", "-3")},
    # ---- qfim and rf
    # a pure state's spectral QFIM, on its one-eigenvector support, is 4 Cov_sym
    "qfim-readme": (
        ["qfim", "--state", "{c}/z2_psi08.json", "--generators", "{c}/spin_half_gens.json"], 0,
        {"qfim": pytest.approx(four_cov_sym(z2_population_state(0.8).amplitudes, SPIN_HALF),
                               abs=1e-12)}),
    "rf-readme-exact": ([*RF, "--rate", "2.0", "--delta", "0.0"], 0,
                        {"r_f": lambda r: isinstance(r, float),
                         "certificate": lambda cert: cert["rate"] == 2.0}),
    # ROADMAP item 1's pair: the rate is right (z4-charge-shift-rate), the
    # single-shot verdict is not
    "z4-charge-shift": pytest.param(
        ["convert", *Z4, "--psi", "{t}/z4_psi.json", "--phi", "{t}/z4_phi.json",
         "--copies", "1", "1"], 0,
        {"feasible": True}, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")),
}


def assert_documented(subcommand, code, expected, got_code, out, err):
    """A run's exit code and JSON document against a `CONTRACT` row."""
    assert got_code == code, err
    if code == 0:
        report = json.loads(out)
        assert (sorted(report), report["subcommand"]) == (["inputs", "result", "subcommand"],
                                                          subcommand)
        doc = report["result"]
    else:
        assert out == ""
        doc = json.loads(err)
    for key, want in expected.items():
        got = doc.get(key, ABSENT)
        assert want(got) if callable(want) else got == want, (key, got)


@pytest.mark.parametrize("argv, code, expected", CONTRACT.values(), ids=CONTRACT)
def test_cli_gives_the_documented_answer(capsys, corpus_dir, contract_dir, argv, code, expected):
    argv = [x.format(c=corpus_dir, t=contract_dir) for x in argv]
    assert_documented(argv[0], code, expected, *run(capsys, argv + ["--json"]))


def test_the_module_entry_point_hands_on_the_exit_code(corpus_dir, contract_dir):
    """`python -m asym.cli` on a refusal row: the exit code and the JSON error
    reach the shell, not only `main`'s return value."""
    argv, code, expected = CONTRACT["group-declared-order"]
    argv = [x.format(c=corpus_dir, t=contract_dir) for x in argv]
    root = Path(__file__).resolve().parent.parent
    done = subprocess.run([sys.executable, "-m", "asym.cli", *argv, "--json"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert_documented(argv[0], code, expected, done.returncode, done.stdout, done.stderr)


RESULT_KEYS = {
    "chi": ["elements", "power", "sym", "zero"],
    "rate-exact": ["assumption_ok", "excluded_set", "rate", "value", "witness"],
    "convert": ["M", "N", "feasible", "min_gram_eigenvalue", "modulus_witness",
                "zero_set_witness"],
    "min-copies": ["min_copies", "n_max", "rate"],
    "charges": ["dual_coefficients", "probs", "shape"],
    "convert-abelian": ["M", "N", "feasible", "min_weight", "modulus_witness", "weights",
                        "zero_set_witness"],
    "approx": ["classification", "curve", "s", "sym_phi", "sym_psi"],
    "qfim": ["qfim"],
    "rf": ["certificate", "direction", "method", "r_f"],
}


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_cli_result_keys(capsys, corpus_dir, tmp_path, sub):
    report = run_json(capsys, [sub] + valid_argv(sub, corpus_dir, tmp_path))
    assert sorted(report) == ["inputs", "result", "subcommand"]
    assert sorted(report["result"]) == RESULT_KEYS[sub]


@pytest.mark.parametrize("sub", SUBCOMMANDS)
def test_cli_reads_each_input_once_and_digests_it(capsys, corpus_dir, tmp_path, monkeypatch, sub):
    argv = [sub] + valid_argv(sub, corpus_dir, tmp_path)
    paths = [str(a) for a in argv if isinstance(a, Path)]
    assert len(set(paths)) == len(paths) == len(cli.SUBCOMMANDS[sub][1])
    opened = collections.Counter()
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened[os.fspath(file) if isinstance(file, (str, os.PathLike)) else file] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    report = run_json(capsys, argv)
    monkeypatch.undo()
    assert {p: opened[p] for p in paths} == dict.fromkeys(paths, 1)
    for entry in report["inputs"].values():
        assert entry["sha256"] == hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest()


def test_cli_digest_names_the_bytes_parsed(capsys, corpus_dir, tmp_path, monkeypatch):
    """A file replaced after its loader read it: the report digests what was parsed."""
    psi = tmp_path / "psi.json"
    original = (corpus_dir / "z2_psi08.json").read_bytes()
    psi.write_bytes(original)
    load_state = io.load_state

    def load_then_replace(path):
        state = load_state(path)
        if os.fspath(path) == str(psi):
            io.save_state(psi, PureState(2, np.array([0.0, 1.0])))
        return state

    monkeypatch.setattr(io, "load_state", load_then_replace)
    report = run_json(capsys, ["chi", "--group", corpus_dir / "z2.json",
                               "--rep", corpus_dir / "z2_rep.json", "--state", psi])
    assert report["inputs"]["state"]["sha256"] == hashlib.sha256(original).hexdigest()
    assert psi.read_bytes() != original
