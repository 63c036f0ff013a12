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


def test_cli_exit_2_on_scalar_amplitudes(capsys, tmp_path, corpus_dir):
    bad = tmp_path / "state.json"
    bad.write_text('{"dim": 2, "amplitudes": 5}')
    code, out, err = run(
        capsys,
        ["chi", "--group", corpus_dir / "z2.json", "--rep", corpus_dir / "z2_rep.json",
         "--state", bad],
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ValidationError"


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


def test_cli_exit_2_on_overflowing_table_entry(capsys, tmp_path, corpus_dir):
    bad = tmp_path / "group.json"
    bad.write_text('{"order": 1, "mult_table": [[1e999]]}')
    code, out, err = run(
        capsys,
        ["chi", "--group", bad, "--rep", corpus_dir / "z2_rep.json",
         "--state", corpus_dir / "z2_psi08.json"],
    )
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == "ValidationError"


# ------------------------------------------------------------------ subcommands


def test_cli_chi_values_and_sets(capsys, corpus_dir):
    report = run_json(
        capsys,
        ["chi", "--group", corpus_dir / "z2.json", "--rep", corpus_dir / "z2_rep.json",
         "--state", corpus_dir / "z2_psi08.json"],
    )
    assert report["subcommand"] == "chi"
    els = report["result"]["elements"]
    assert els[1]["abs_chi"] == pytest.approx(0.6, abs=1e-9)
    assert report["result"]["sym"] == [0]
    assert report["result"]["zero"] == []
    for entry in report["inputs"].values():
        assert len(entry["sha256"]) == 64


def test_cli_chi_power(capsys, corpus_dir):
    report = run_json(
        capsys,
        ["chi", "--group", corpus_dir / "z2.json", "--rep", corpus_dir / "z2_rep.json",
         "--state", corpus_dir / "z2_psi08.json", "--power", "2"],
    )
    assert report["result"]["elements"][1]["abs_chi"] == pytest.approx(0.36, abs=1e-9)


@pytest.mark.parametrize("power", ["0", "-2"])
def test_cli_chi_rejects_power_below_one(capsys, corpus_dir, power):
    # used to exit 0 with the single-copy table labelled "power": 0
    assert_domain_error(
        capsys,
        ["chi", "--group", corpus_dir / "z2.json", "--rep", corpus_dir / "z2_rep.json",
         "--state", corpus_dir / "z2_psi08.json", "--power", power],
    )


def test_cli_chi_table_output(capsys, corpus_dir):
    code, out, _ = run(
        capsys,
        ["chi", "--group", corpus_dir / "z2.json", "--rep", corpus_dir / "z2_rep.json",
         "--state", corpus_dir / "z2_psi08.json", "--table"],
    )
    assert code == 0
    assert "|chi|" in out
    assert "0.6" in out


def test_cli_chi_tabulates_a_unit_cut_that_is_no_subgroup(capsys, corpus_dir, tmp_path):
    """|chi| = 1 - 8e-11 at g = 1, 3 and 1 - 1.6e-10 at g = 2: the TOL_ONE cut
    {0, 1, 3} is not closed. `chi` reports the raw cut; `approx` refuses it."""
    p = 8e-11
    state = tmp_path / "psi.json"
    io.save_state(state, PureState(dim=4, amplitudes=np.sqrt([1 - p, p, 0.0, 0.0])))
    on_z4 = ["--group", corpus_dir / "z4.json", "--rep", corpus_dir / "z4_rep.json"]
    result = run_json(capsys, ["chi"] + on_z4 + ["--state", state])["result"]
    assert (result["sym"], result["zero"]) == ([0, 1, 3], [])
    code, out, err = run(capsys, ["approx"] + on_z4 + ["--psi", state, "--phi", state, "--json"])
    assert (code, out) == (1, "")
    assert json.loads(err)["error"] == "SymNotSubgroup"


def test_cli_output_is_deterministic(capsys, corpus_dir):
    argv = ["chi", "--group", corpus_dir / "z2.json", "--rep", corpus_dir / "z2_rep.json",
            "--state", corpus_dir / "z2_psi08.json", "--json"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    assert out1 == out2


def test_cli_rate_exact(capsys, corpus_dir):
    report = run_json(
        capsys,
        ["rate-exact", "--group", corpus_dir / "z2.json", "--rep", corpus_dir / "z2_rep.json",
         "--psi", corpus_dir / "z2_psi068.json", "--phi", corpus_dir / "z2_psi08.json"],
    )
    assert report["result"]["rate"] == "finite"
    assert report["result"]["value"] == 2.0
    assert report["result"]["witness"] == 1
    assert report["result"]["assumption_ok"] is True


@pytest.mark.parametrize(
    "name, phi, ok",
    [("z4", [0.8, 0.0, 0.6, 0.0], True), ("s3", [0.5, 0.5, 0.7], False)],
    ids=["z4", "s3"],
)
def test_cli_rate_exact_assumption_ok_reads_the_group(capsys, corpus_dir, tmp_path, name, phi, ok):
    # sym(phi) = {0, 2} on Z_4 and {e, (01)} on S_3: the formula is proved on
    # the abelian group only
    amps = np.array(phi) / np.linalg.norm(phi)
    io.save_state(tmp_path / "phi.json", PureState(len(phi), amps))
    io.save_state(tmp_path / "psi.json", random_state(len(phi), np.random.default_rng(0)))
    result = run_json(
        capsys,
        ["rate-exact", "--group", corpus_dir / f"{name}.json", "--rep", corpus_dir / f"{name}_rep.json",
         "--psi", tmp_path / "psi.json", "--phi", tmp_path / "phi.json"],
    )["result"]
    assert len(result["excluded_set"]) == 2
    assert (result["rate"], result["assumption_ok"]) == ("finite", ok)


def test_cli_rate_exact_assumption_ok_reads_the_rep(capsys, tmp_path):
    # the Pauli rep X^a Z^b of Z_2 x Z_2 is projective and its matrices do not
    # commute: with sym(phi) = {e, X} at phi = |+>, the formula is not proved
    group = named_group("Z_2xZ_2")
    X, Z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    io.save_group(tmp_path / "g.json", group)
    io.save_rep(tmp_path / "rep.json", validate_projective_rep(group, [np.eye(2), Z, X, X @ Z]))
    io.save_state(tmp_path / "phi.json", PureState(2, np.array([1.0, 1.0]) / np.sqrt(2)))
    io.save_state(tmp_path / "psi.json", random_state(2, np.random.default_rng(0)))
    result = run_json(
        capsys,
        ["rate-exact", "--group", tmp_path / "g.json", "--rep", tmp_path / "rep.json",
         "--psi", tmp_path / "psi.json", "--phi", tmp_path / "phi.json"],
    )["result"]
    assert result["excluded_set"] == [0, 1, 2, 3]
    assert (result["rate"], result["assumption_ok"]) == ("zero", False)


def test_cli_rate_exact_near_the_symmetry_cut(capsys, corpus_dir, tmp_path):
    # |chi_psi| - 1 = -8e-11, -1.6e-10, -8e-11 on Z_4: psi's unit set {0, 1, 3}
    # is not a subgroup, which the rate never reads
    psi = PureState(4, np.array([np.sqrt(1 - 8e-11), np.sqrt(8e-11), 0.0, 0.0]))
    io.save_state(tmp_path / "psi.json", psi)
    io.save_state(tmp_path / "phi.json", PureState(4, np.array([0.7, 0.5, 0.4, np.sqrt(0.1)])))
    result = run_json(
        capsys,
        ["rate-exact", "--group", corpus_dir / "z4.json", "--rep", corpus_dir / "z4_rep.json",
         "--psi", tmp_path / "psi.json", "--phi", tmp_path / "phi.json"],
    )["result"]
    assert (result["rate"], result["witness"], result["excluded_set"]) == ("finite", 1, [0])
    assert 0 < result["value"] < 1e-9


def test_cli_convert(capsys, corpus_dir, tmp_path):
    on_z2 = ["convert", "--group", corpus_dir / "z2.json", "--rep", corpus_dir / "z2_rep.json"]
    base = on_z2 + ["--psi", corpus_dir / "z2_psi068.json", "--phi", corpus_dir / "z2_psi08.json"]
    ok = run_json(capsys, base + ["--copies", "1", "2"])
    assert ok["result"]["feasible"] is True
    assert ok["result"]["zero_set_witness"] is None
    bad = run_json(capsys, base + ["--copies", "1", "3"])
    assert bad["result"]["feasible"] is False
    assert bad["result"]["modulus_witness"] == 1
    # chi_phi(1) = 0 where chi_psi(1) = 0.6: a verdict with its witness, exit 0
    flat = tmp_path / "flat.json"
    io.save_state(flat, z2_population_state(0.5))
    argv = on_z2 + ["--psi", corpus_dir / "z2_psi08.json", "--phi", flat, "--copies", "1", "1"]
    none = run_json(capsys, argv)["result"]
    assert none["feasible"] is False
    assert none["zero_set_witness"] == 1
    assert none["modulus_witness"] is None


def test_cli_refuses_a_non_linear_rep_in_the_gram_view(capsys, corpus_dir, tmp_path):
    # U(1) = iZ is gauge-equivalent to the corpus Z_2 rep; (2, 2) read feasible
    # on it once. convert and min-copies exit 1 with a DomainError, while
    # rate-exact, which reads |chi| alone, gives the corpus rep's report
    io.save_rep(tmp_path / "iz.json", gauged_rep("iZ"))
    pair = ["--group", corpus_dir / "z2.json", "--psi", corpus_dir / "z2_psi068.json",
            "--phi", corpus_dir / "z2_psi08.json"]
    for argv in (["convert", "--copies", "2", "2"], ["convert", "--copies", "1", "0"],
                 ["min-copies", "--rate", "1.0", "--nmax", "8"]):
        code, out, err = run(capsys, argv + pair + ["--rep", tmp_path / "iz.json", "--json"])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "DomainError"
    linear, gauged = (run_json(capsys, ["rate-exact", "--rep", rep] + pair)["result"]
                      for rep in (corpus_dir / "z2_rep.json", tmp_path / "iz.json"))
    assert gauged == linear and gauged["value"] == 2.0


def test_cli_min_copies(capsys, corpus_dir):
    report = run_json(
        capsys,
        ["min-copies", "--group", corpus_dir / "z2.json", "--rep", corpus_dir / "z2_rep.json",
         "--psi", corpus_dir / "z2_psi068.json", "--phi", corpus_dir / "z2_psi08.json",
         "--rate", "1.5", "--nmax", "24"],
    )
    assert report["result"]["min_copies"] == 1
    report = run_json(
        capsys,
        ["min-copies", "--group", corpus_dir / "z2.json", "--rep", corpus_dir / "z2_rep.json",
         "--psi", corpus_dir / "z2_psi068.json", "--phi", corpus_dir / "z2_psi08.json",
         "--rate", "2.5", "--nmax", "24"],
    )
    assert report["result"]["min_copies"] is None


def test_cli_charges(capsys, corpus_dir):
    report = run_json(
        capsys,
        ["charges", "--group", corpus_dir / "z2.json", "--rep", corpus_dir / "z2_rep.json",
         "--state", corpus_dir / "z2_psi08.json"],
    )
    assert report["result"]["shape"] == [2]
    assert sorted(report["result"]["probs"]) == pytest.approx([0.2, 0.8], abs=1e-9)


def test_cli_convert_abelian(capsys, tmp_path):
    p = tmp_path / "p.json"
    q = tmp_path / "q.json"
    io.save_distribution(p, ChargeDistribution(shape=(2,), probs=np.array([0.75, 0.25])))
    io.save_distribution(q, ChargeDistribution(shape=(2,), probs=np.array([0.9, 0.1])))
    report = run_json(capsys, ["convert-abelian", "--p", p, "--q", q, "--copies", "1", "1"])
    assert report["result"]["feasible"] is True
    assert report["result"]["weights"] == pytest.approx([0.8125, 0.1875], abs=1e-9)
    assert report["result"]["modulus_witness"] is None
    # lambda_1 ratio 0.8 / 0.5 = 1.6 > 1: the 2 x 2 minor at label 1 proves it infeasible
    report = run_json(capsys, ["convert-abelian", "--p", q, "--q", p, "--copies", "1", "1"])
    assert report["result"]["feasible"] is False
    assert report["result"]["modulus_witness"] == 1
    assert report["result"]["zero_set_witness"] is None


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


def test_cli_approx_with_curve(capsys, corpus_dir):
    report = run_json(
        capsys,
        ["approx", "--group", corpus_dir / "z2.json", "--rep", corpus_dir / "z2_rep.json",
         "--psi", corpus_dir / "z2_psi08.json", "--phi", corpus_dir / "z2_psi068.json",
         "--curve", "1,2,4,8"],
    )
    assert sorted(report["result"]) == RESULT_KEYS["approx"]
    assert report["result"]["classification"] == "unbounded"
    curve = report["result"]["curve"]
    assert [pt["N"] for pt in curve] == [1, 2, 4, 8]
    assert curve[0]["bound"] == pytest.approx(0.6**2, rel=1e-9)
    assert all(pt["distance"] <= pt["bound"] for pt in curve)


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


@pytest.mark.parametrize("curve", ["0", "0,2", "-3"])
def test_cli_approx_rejects_curve_below_one(capsys, corpus_dir, tmp_path, curve):
    # used to exit 0, skipping such N: "0,2" reported N = 2 only, "-3" "curve": []
    on_z2 = ["--group", corpus_dir / "z2.json", "--rep", corpus_dir / "z2_rep.json"]
    assert_domain_error(
        capsys,
        ["approx"] + on_z2 + ["--psi", corpus_dir / "z2_psi08.json",
                              "--phi", corpus_dir / "z2_psi068.json", f"--curve={curve}"],
    )
    # a zero-class pair computes no curve, so there is no copy number to reject
    io.save_state(tmp_path / "sym.json", PureState(2, np.array([1.0, 0.0])))
    report = run_json(
        capsys,
        ["approx"] + on_z2 + ["--psi", tmp_path / "sym.json",
                              "--phi", corpus_dir / "z2_psi08.json", f"--curve={curve}"],
    )
    assert report["result"]["classification"] == "zero"
    assert "curve" not in report["result"]


def test_cli_qfim_and_rf(capsys, corpus_dir):
    report = run_json(
        capsys,
        ["qfim", "--state", corpus_dir / "z2_psi08.json",
         "--generators", corpus_dir / "spin_half_gens.json"],
    )
    F = np.array(report["result"]["qfim"])
    assert F.shape == (3, 3)
    assert np.allclose(F, F.T, atol=1e-9)
    assert np.linalg.eigvalsh(F)[0] >= -1e-9

    report = run_json(
        capsys,
        ["rf", "--psi", corpus_dir / "z2_psi08.json", "--phi", corpus_dir / "z2_psi068.json",
         "--generators", corpus_dir / "spin_half_gens.json", "--rate", "2.0", "--delta", "0.0"],
    )
    assert "r_f" in report["result"]
    assert report["result"]["certificate"]["rate"] == 2.0


# -------------------------------------------------------------------- exit codes


def test_cli_exit_2_on_missing_file(capsys, corpus_dir):
    code, _, err = run(
        capsys,
        ["chi", "--group", corpus_dir / "nope.json", "--rep", corpus_dir / "z2_rep.json",
         "--state", corpus_dir / "z2_psi08.json"],
    )
    assert code == 2
    assert "error" in err


def test_cli_exit_2_on_malformed_json(capsys, tmp_path, corpus_dir):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(
        capsys,
        ["chi", "--group", bad, "--rep", corpus_dir / "z2_rep.json",
         "--state", corpus_dir / "z2_psi08.json"],
    )
    assert code == 2


def test_cli_exit_2_on_invalid_state(capsys, tmp_path, corpus_dir):
    bad = tmp_path / "bad_state.json"
    bad.write_text(json.dumps({"dim": 2, "amplitudes": [[1.0, 0.0], [1.0, 0.0]]}))
    code, _, _ = run(
        capsys,
        ["chi", "--group", corpus_dir / "z2.json", "--rep", corpus_dir / "z2_rep.json",
         "--state", bad],
    )
    assert code == 2


def test_cli_exit_1_on_domain_error(capsys, corpus_dir, tmp_path):
    # charge decomposition of a nonabelian group is a domain error, not a
    # parse failure
    psi = tmp_path / "s3_state.json"
    io.save_state(psi, PureState(3, np.array([1.0, 0.0, 0.0])))
    code, _, err = run(
        capsys,
        ["charges", "--group", corpus_dir / "s3.json", "--rep", corpus_dir / "s3_rep.json",
         "--state", psi],
    )
    assert code == 1
    assert "NotAbelian" in err


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


def contract_inputs(directory):
    """The inputs of `CONTRACT` that the corpus lacks, written to directory."""
    io.save_state(directory / "plus.json", z2_population_state(0.5))  # (|0> + |1>)/sqrt 2
    io.save_rep(directory / "iz_rep.json", gauged_rep("iZ"))
    for k in (0, 1):
        io.save_distribution(directory / f"delta{k}.json", ChargeDistribution((2,), np.eye(2)[k]))
    for name, amps in (("z4_psi", [0, 1, 1, 0]), ("z4_phi", [1, 1, 0, 0])):
        io.save_state(directory / f"{name}.json", PureState(4, np.array(amps) / np.sqrt(2)))


Z2 = ["--group", "{c}/z2.json", "--rep", "{c}/z2_rep.json"]
README_PAIR = Z2 + ["--psi", "{c}/z2_psi068.json", "--phi", "{c}/z2_psi08.json"]
# chi_phi(1) = 0 != chi_psi(1): a zero-set violation
ZERO_PAIR = Z2 + ["--psi", "{c}/z2_psi08.json", "--phi", "{t}/plus.json"]
S3_SELF = ["--group", "{c}/s3.json", "--rep", "{c}/s3_rep.json",
           "--psi", "{c}/s3_random.json", "--phi", "{c}/s3_random.json"]


# case -> (argv, exit code, expected). "{c}" is the corpus directory, "{t}" that
# of `contract_inputs`. Exit 0 reads the JSON result, any other code the JSON
# error on stderr; each expected key must equal its value, or pass it if callable.
CONTRACT = {
    # S_3's 2-dim irrep takes the closed-form minimum: psi -> psi at one copy
    # each, with a minimum within TOL_PSD |G| of 0
    "s3-self": (["convert", *S3_SELF, "--copies", "1", "1"], 0,
                {"feasible": True, "min_gram_eigenvalue": pytest.approx(0.0, abs=6e-9)}),
    "s3-self-at-the-rate": (["min-copies", *S3_SELF, "--rate", "1.0", "--nmax", "20"], 0,
                            {"min_copies": 1}),
    # above the rate the row n_max is settled infeasible from |f| alone
    "s3-self-above-the-rate": (["min-copies", *S3_SELF, "--rate", "1.5", "--nmax", "20"], 0,
                               {"min_copies": None}),
    # below the README pair's rate of 2 every row is settled feasible
    "readme-below-the-rate": (["min-copies", *README_PAIR, "--rate", "1.0", "--nmax", "50"], 0,
                              {"min_copies": 1}),
    "zero-set-rate": (["rate-exact", *ZERO_PAIR], 0, {"rate": "zero"}),
    "zero-set-convert": (["convert", *ZERO_PAIR, "--copies", "3", "1"], 0,
                         {"feasible": False, "zero_set_witness": 1}),
    "zero-set-no-copies": (["convert", *ZERO_PAIR, "--copies", "3", "0"], 0,
                           {"feasible": True, "zero_set_witness": None}),
    "zero-set-search": (["min-copies", *ZERO_PAIR, "--rate", "0.5", "--nmax", "20"], 0,
                        {"min_copies": None}),
    # floor(0.01 * 20) = 0: every row has M = 0
    "zero-set-search-below-one": (["min-copies", *ZERO_PAIR, "--rate", "0.01", "--nmax", "20"], 0,
                                  {"min_copies": 1}),
    # a pure state's spectral QFIM, on its one-eigenvector support, is 4 Cov_sym
    "qfim-readme": (
        ["qfim", "--state", "{c}/z2_psi08.json", "--generators", "{c}/spin_half_gens.json"], 0,
        {"qfim": pytest.approx(four_cov_sym(z2_population_state(0.8).amplitudes, SPIN_HALF),
                               abs=1e-12)}),
    # a curve entry passes `copy_numbers` alone: N = 10^16 + 1 is reported as given
    "approx-beyond-an-exact-float": (
        ["approx", *Z2, "--psi", "{c}/z2_psi08.json", "--phi", "{c}/z2_psi068.json",
         "--curve", "1,10000000000000001"], 0,
        {"curve": lambda curve: [pt["N"] for pt in curve] == [1, 10**16 + 1]}),
    # the Gram view's exact gate refuses that copy number
    "convert-beyond-an-exact-float": (
        ["convert", *README_PAIR, "--copies", "1", "10000000000000001"], 1,
        {"error": "DomainError", "message": lambda message: "no exact float" in message}),
    # gauged to Z (U^2 = -I), the projective iZ rep gives the corpus rep's sectors
    "charges-projective": (
        ["charges", "--group", "{c}/z2.json", "--rep", "{t}/iz_rep.json",
         "--state", "{c}/z2_psi068.json"], 0,
        {"probs": pytest.approx([0.68, 0.32], abs=1e-12)}),
    # for odd M the weights are delta_1: the sign on the involution comes from M's parity
    "convert-abelian-odd-copies": (
        ["convert-abelian", "--p", "{t}/delta0.json", "--q", "{t}/delta1.json",
         "--copies", "1", "1000000000000001"], 0,
        {"weights": pytest.approx([0.0, 1.0], abs=1e-12)}),
    # ROADMAP item 1's pair: the rate is right, the single-shot verdict is not
    "z4-charge-shift-rate": (
        ["rate-exact", "--group", "{c}/z4.json", "--rep", "{c}/z4_rep.json",
         "--psi", "{t}/z4_psi.json", "--phi", "{t}/z4_phi.json"], 0,
        {"value": 1.0, "assumption_ok": True}),
    "z4-charge-shift": pytest.param(
        ["convert", "--group", "{c}/z4.json", "--rep", "{c}/z4_rep.json",
         "--psi", "{t}/z4_psi.json", "--phi", "{t}/z4_phi.json", "--copies", "1", "1"], 0,
        {"feasible": True}, marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")),
}


@pytest.mark.parametrize("argv, code, expected", CONTRACT.values(), ids=CONTRACT)
def test_cli_gives_the_documented_answer(capsys, corpus_dir, tmp_path, argv, code, expected):
    contract_inputs(tmp_path)
    argv = [x.format(c=corpus_dir, t=tmp_path) for x in argv]
    got_code, out, err = run(capsys, argv + ["--json"])
    assert got_code == code, err
    assert code == 0 or out == ""
    doc = json.loads(out)["result"] if code == 0 else json.loads(err)
    for key, want in expected.items():
        assert want(doc[key]) if callable(want) else doc[key] == want, (key, doc[key])


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
