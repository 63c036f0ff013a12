"""The three workloads: set-up, the fixed batch of timed operations, and checks.

Each `setup_*` function builds its inputs from the seed, runs the program's
set-up calls through `step` (which times them), and returns the batch of
`Op`s that one round runs. An op's `call` is the timed program call; its
`check` runs afterwards, outside the timed region, and raises `Failed` when
the call gave no usable answer or `Mismatch` when the answer disagrees with
a reference computed from the generated matrices or fixed by a theorem.

Program functions are looked up through the `asym` package at call time, so
the wrappers of a traced run see every call.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import math

import numpy as np

import asym
import asym.cli
import cases as C
import inputs as I


class Failed(Exception):
    """The operation raised, exited non-zero or returned non-finite output."""


class Mismatch(Exception):
    """The operation's output disagrees with its reference."""


class Op:
    __slots__ = ("name", "call", "check")

    def __init__(self, name, call, check):
        self.name, self.call, self.check = name, call, check


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


def near(a, b, rtol=1e-9, atol=1e-12):
    a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= atol + rtol * np.abs(b)))


def finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(np.asarray(a, dtype=complex))):
            raise Failed("non-finite output")


# ---------------------------------------------------------- shared checks


def check_rate(case, value, witness, assumption_ok):
    p = case.pair
    expect(assumption_ok, f"{case.label}: assumption flag off")
    expect(near(value, p.rate), f"{case.label}: rate {value} != {p.rate}")
    expect(near(p.ratios[witness], p.rate), f"{case.label}: witness {witness} misses the minimum")


def check_bound(case, r, got):
    raw = 2 * math.log(case.n) / -case.pair.log_s(r)
    expect(got == math.ceil(raw) + 1 or abs(raw - round(raw)) < 1e-9,
           f"{case.label}: copies_bound {got} != {math.ceil(raw) + 1}")


class SearchCheck:
    """minimal_copies_search against the theorems and log-space Gram eigenvalues."""

    def __init__(self, case, r, n_max):
        self.case, self.r, self.n_max = case, r, n_max
        self.passed = set()  # answers already checked; every round repeats them

    def feasible(self, N):
        return self.case.pair.feasible_ref(self.case.table, self.case.inv, N,
                                           math.floor(self.r * N + 1e-12))

    def __call__(self, found):
        if found in self.passed:
            return
        label, p = self.case.label, self.case.pair
        if self.r > p.rate:
            expect(found is None, f"{label}: search above the rate returned {found}")
        elif p.bound(self.r) <= self.n_max:
            expect(found is not None and found <= p.bound(self.r),
                   f"{label}: search returned {found}, bound {p.bound(self.r)}")
        if found is None:
            expect(self.r > p.rate or not self.feasible(self.n_max), f"{label}: n_max is feasible")
        else:
            expect(self.feasible(found), f"{label}: N* = {found} is not feasible")
            expect(found == 1 or not self.feasible(found - 1), f"{label}: N* - 1 is feasible")
        self.passed.add(found)


def grid_points(case, r):
    """Theorem-fixed (N, M, feasible) points, with large N and M."""
    b = case.pair.bound(r)
    pts = [(N, math.floor(r * N + 1e-12), True) for N in (b, 40 * b, 3000 * b)]
    pts += [case.infeasible_point(N) + (False,) for N in (1, 40, 3000)]
    return pts


# ------------------------------------------------------------- oracle_scan


def setup_oracle_scan(seed, step, workdir):
    rng = np.random.default_rng(seed)
    cases = [
        step(lambda: C.abelian_case("Z_64", (64,), 16, 8, rng, n_max=100)),
        step(lambda: C.abelian_case("Z_256", (256,), 16, 8, rng, n_max=200)),
        step(lambda: C.abelian_case("Z_2^8", (2,) * 8, 16, 12, rng, spanning=True)),
        step(lambda: C.abelian_case("Z_16xZ_16", (16, 16), 16, 10, rng, spanning=True)),
        step(lambda: C.dihedral_case(128, rng, n_max=80)),
        step(lambda: C.symmetric_case(5, rng, n_max=100)),
    ]
    for name in ("S_3", "D_4", "Q_8"):
        table = step(lambda: asym.named_group(name).mult)
        cases.append(step(lambda: C.regular_case(name, table, rng, n_max=200)))

    ops, warm = [], []
    for case in cases:
        group = step(lambda: asym.build_group(case.table, name=case.label))
        rep = step(lambda: asym.validate_projective_rep(group, case.mats))
        cp = step(lambda: asym.char_function(rep, asym.PureState(case.d, case.psi)))
        cf = step(lambda: asym.char_function(rep, asym.PureState(case.d, case.phi)))
        batch = oracle_ops(case, cp, cf)
        ops += batch
        if case.n <= 8:
            warm += batch
    step(lambda: [op.call() for op in warm])
    return ops


def oracle_ops(case, cp, cf):
    L = case.label
    r_half = case.pair.rate / 2
    r_under = case.rate_with_bound(0.75 * case.n_max) if case.n_max else r_half
    n_small = 8 if case.n >= 100 else 30
    r_over = case.rate_over(n_small)
    r_above = case.rate_above(n_small)

    def rate_check(rep):
        expect(rep.kind == "finite", f"{L}: rate kind {rep.kind}")
        check_rate(case, rep.value, rep.witness, rep.assumption_ok)

    ops = [
        Op(f"{L}.exact_rate", lambda: asym.exact_rate(cp, cf), rate_check),
        Op(f"{L}.copies_bound", lambda: asym.copies_bound(cp, cf, r_under),
           lambda got: check_bound(case, r_under, got)),
    ]
    for N, M, want in grid_points(case, r_under):
        def verdict(res, N=N, M=M, want=want):
            finite(res.min_gram_eigenvalue)
            expect(res.feasible == want, f"{L}: feasible_exact({N}, {M}) = {res.feasible}")
        ops.append(Op(f"{L}.feasible_exact", lambda N=N, M=M: asym.feasible_exact(cp, cf, N, M),
                      verdict))
    searches = [(r_above, n_small), (r_over, n_small)]
    if case.n_max:
        searches.append((r_under, case.n_max))
    for r, n_max in searches:
        ops.append(Op(f"{L}.minimal_copies_search",
                      lambda r=r, n_max=n_max: asym.minimal_copies_search(cp, cf, r, n_max),
                      SearchCheck(case, r, n_max)))
    return ops


# -------------------------------------------------------------- cli_ingest


def _pairs(a):
    a = np.asarray(a)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _write(path, data):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data))  # one C-encoded string; json.dump streams in Python
    return str(path)


class CliFiles:
    """JSON inputs of one case, in the file formats of the asym README."""

    def __init__(self, workdir, case, name):
        self.prefix = str(workdir / name.replace("^", "p"))
        self.group = _write(f"{self.prefix}_group.json",
                            {"order": case.n, "mult_table": case.table.tolist(), "name": name})
        self.rep = _write(f"{self.prefix}_rep.json", {"dim": case.d, "matrices": _pairs(case.mats)})
        self.psi = self.state("psi", case.psi)
        self.phi = self.state("phi", case.phi)

    def state(self, tag, amps):
        return _write(f"{self.prefix}_{tag}.json", {"dim": len(amps), "amplitudes": _pairs(amps)})

    def args(self, sub, *extra, psi="psi", phi="phi"):
        files = {"psi": self.psi, "phi": self.phi}
        argv = [sub, "--group", self.group, "--rep", self.rep]
        if sub in ("chi", "charges"):
            argv += ["--state", files.get(psi, psi)]
        else:
            argv += ["--psi", files.get(psi, psi), "--phi", files.get(phi, phi)]
        return argv + [str(x) for x in extra] + ["--json"]


def cli_call(argv):
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = asym.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def cli_result(res):
    code, out, err = res
    if code != 0:
        raise Failed(f"exit {code}: {err.strip()[:200]}")
    return json.loads(out)["result"]


def sym_set(chi):
    return sorted(int(g) for g in np.where(chi.logabs >= math.log1p(-1e-10))[0])


def check_chi(case, chi, res):
    out = cli_result(res)
    el = out["elements"]
    mod = np.abs(chi.values)
    expect(near([e["abs_chi"] for e in el], mod, atol=1e-11), f"{case.label}: |chi|")
    expect(near([e["L"] for e in el], -np.log(mod), atol=1e-11), f"{case.label}: L")
    expect(near(np.exp(1j * np.array([e["phase"] for e in el])) * mod, chi.values, atol=1e-9),
           f"{case.label}: phase")
    expect(out["sym"] == sym_set(chi) and out["zero"] == [], f"{case.label}: sym/zero sets")


def check_charges(case, state, res):
    out = cli_result(res)
    coords, moduli, charges, V = case.abelian
    probs = np.sort(np.array(out["probs"]))
    expect(near(probs, I.sector_weights(charges, V, state, case.n), atol=1e-9),
           f"{case.label}: sector weights")
    lam = np.array([complex(*z) for z in out["dual_coefficients"]])
    expect(near(np.sort(np.abs(lam)), np.sort(np.abs(case.chi(state).values)), atol=1e-9),
           f"{case.label}: dual coefficient moduli")


def check_approx(case, chi_psi, chi_phi, res):
    out = cli_result(res)
    sp, sf = sym_set(chi_psi), sym_set(chi_phi)
    unbounded = set(sp) <= set(sf)
    expect(out["classification"] == ("unbounded" if unbounded else "zero"),
           f"{case.label}: approx class {out['classification']}")
    expect(out["sym_psi"] == sp and out["sym_phi"] == sf, f"{case.label}: approx sym sets")
    if unbounded:
        off = np.abs(chi_psi.values)[[g for g in range(case.n) if g not in sp]]
        expect(near(out["s"], off.max()), f"{case.label}: decay base")
        for pt in out.get("curve", []):
            expect(pt["distance"] <= pt["bound"] * (1 + 1e-9), f"{case.label}: curve point")


def check_convert(case, want, res):
    out = cli_result(res)
    expect(out["feasible"] is want, f"{case.label}: convert {out['N']} {out['M']}")


def setup_cli_ingest(seed, step, workdir):
    rng = np.random.default_rng(seed)
    z8 = step(lambda: C.abelian_case("Z_8", (8,), 8, 8, rng, every_charge=True))
    cases = {
        "Z_8": z8,
        "Z_64": step(lambda: C.abelian_case("Z_64", (64,), 16, 8, rng)),
        "Z_64_d64": step(lambda: C.abelian_case("Z_64_d64", (64,), 64, 16, rng)),
        "Z_256": step(lambda: C.abelian_case("Z_256", (256,), 16, 8, rng)),
        "Z_2^8": step(lambda: C.abelian_case("Z_2^8", (2,) * 8, 16, 12, rng, spanning=True)),
        "D_128": step(lambda: C.dihedral_case(128, rng)),
        "S_5": step(lambda: C.symmetric_case(5, rng)),
    }
    for name in ("S_3", "D_4", "Q_8"):
        cases[name] = step(lambda: C.regular_case(name, asym.named_group(name).mult, rng))
    files = {k: step(lambda: CliFiles(workdir, c, k)) for k, c in cases.items()}

    # a Z_8 state with even charges only: |chi(4)| = 1, so its symmetry group is {0, 4}
    coords, moduli, charges, V = z8.abelian
    amps = V @ np.where(charges[:, 0] % 2 == 0, rng.standard_normal(8), 0.0)
    sym_state = amps / np.linalg.norm(amps)
    sym_path = step(lambda: files["Z_8"].state("sym", sym_state))
    chi_sym = z8.chi(sym_state)

    ops = []

    def add(name, argv, check):
        ops.append(Op(name, lambda: cli_call(argv), check))

    def rate_op(key):
        c, f = cases[key], files[key]

        def check(res):
            out = cli_result(res)
            check_rate(c, out["value"], out["witness"], out["assumption_ok"])

        add(f"{key}.rate-exact", f.args("rate-exact"), check)

    def convert_op(key, feasible):
        c, f = cases[key], files[key]
        if feasible:
            N, M = c.pair.feasible_point(c.pair.rate / 2, 1)
        else:
            N, M = c.infeasible_point(3)
        add(f"{key}.convert", f.args("convert", "--copies", N, M),
            lambda res: check_convert(c, feasible, res))

    def copies_op(key, r, n_max):
        c, f = cases[key], files[key]
        search = SearchCheck(c, r, n_max)
        add(f"{key}.min-copies", f.args("min-copies", "--rate", repr(float(r)), "--nmax", n_max),
            lambda res: search(cli_result(res)["min_copies"]))

    def chi_op(key, tag="psi"):
        c, f = cases[key], files[key]
        add(f"{key}.chi", f.args("chi", psi=tag),
            lambda res: check_chi(c, c.chi_psi if tag == "psi" else c.chi_phi, res))

    def charges_op(key):
        c, f = cases[key], files[key]
        add(f"{key}.charges", f.args("charges"), lambda res: check_charges(c, c.psi, res))

    chi_op("Z_8")
    rate_op("Z_8")
    convert_op("Z_8", True)
    convert_op("Z_8", False)
    copies_op("Z_8", z8.pair.rate / 2, 16)
    charges_op("Z_8")
    add("Z_8.approx", files["Z_8"].args("approx", psi=sym_path),
        lambda res: check_approx(z8, chi_sym, z8.chi_phi, res))
    add("Z_8.approx", files["Z_8"].args("approx", "--curve", "1,2,4", phi=sym_path),
        lambda res: check_approx(z8, z8.chi_psi, chi_sym, res))
    step(lambda: lie_cli_ops(workdir, rng, add))
    warm = list(ops)

    chi_op("Z_64", "phi")
    rate_op("Z_64")
    charges_op("Z_64")
    copies_op("Z_64", cases["Z_64"].rate_above(16), 16)
    rate_op("Z_64_d64")
    charges_op("Z_256")
    convert_op("Z_2^8", True)
    copies_op("D_128", cases["D_128"].pair.rate / 2, 6)
    rate_op("S_5")
    convert_op("S_5", False)
    add("S_5.approx", files["S_5"].args("approx"),
        lambda res: check_approx(cases["S_5"], cases["S_5"].chi_psi, cases["S_5"].chi_phi, res))
    chi_op("S_3")
    rate_op("S_3")
    copies_op("S_3", cases["S_3"].pair.rate / 2, 16)
    convert_op("D_4", True)
    add("D_4.approx", files["D_4"].args("approx", psi="phi", phi="psi"),
        lambda res: check_approx(cases["D_4"], cases["D_4"].chi_phi, cases["D_4"].chi_psi, res))
    rate_op("Q_8")
    copies_op("Q_8", cases["Q_8"].rate_above(16), 16)
    step(lambda: [op.call() for op in warm])
    return ops


def lie_cli_ops(workdir, rng, add):
    """qfim and rf on spin-1 and spin-3/2 generators, including a singular pencil."""
    for twice_j in (2, 3):
        J = I.spin_generators(twice_j)
        d = twice_j + 1
        gens = _write(workdir / f"spin{twice_j}_gens.json", {"dim": d, "generators": _pairs(J)})
        psi, phi = I.random_state(d, rng), I.random_state(d, rng)
        dicke = np.eye(d)[0].astype(complex)  # |j, j>: an eigenstate of J_z, so F is singular
        paths = {}
        for tag, amps in (("psi", psi), ("phi", phi), ("dicke", dicke)):
            paths[tag] = _write(workdir / f"spin{twice_j}_{tag}.json",
                                {"dim": d, "amplitudes": _pairs(amps)})
        F = {tag: I.cov_sym(a, J) for tag, a in (("psi", psi), ("phi", phi), ("dicke", dicke))}

        def qfim_check(res, F=F["psi"]):
            got = np.array(cli_result(res)["qfim"])
            expect(near(got, F, atol=1e-9 * np.abs(F).max()), "qfim != 4 Cov_sym")

        add(f"spin{twice_j}.qfim", ["qfim", "--state", paths["psi"], "--generators", gens, "--json"],
            qfim_check)
        for target, method in (("phi", "closed_form"), ("dicke", "bisection")):
            rf = I.rf_ref(F["psi"], F[target])
            rate = 2 * rf
            argv = ["rf", "--psi", paths["psi"], "--phi", paths[target], "--generators", gens,
                    "--rate", repr(float(rate)), "--delta", "1e-4", "--json"]

            def rf_check(res, rf=rf, method=method):
                out = cli_result(res)
                expect(out["method"] == method, f"rf method {out['method']}")
                expect(near(out["r_f"], rf, rtol=1e-6), f"r_f {out['r_f']} != {rf}")
                cert = out["certificate"]
                expect(cert["impossible"] is (I.g_ref(0.5) > 4 * math.sqrt(1e-4)), "certificate")
                expect(near(cert["T"], 0.5, rtol=1e-6), f"certificate T {cert['T']}")

            add(f"spin{twice_j}.rf", argv, rf_check)


# ----------------------------------------------------------- charge_fisher

Z3_P, Z3_Q = (0.6, 0.3, 0.1), (0.8, 0.15, 0.05)
Z3_POINTS = ((3000, 3000), (1500, 3000))  # M large enough that lambda(q)^M underflows


def coset_distribution(shape, rng):
    """Random weights on part of a coset of {k : k_0 even}; |lambda(a)| = 1 at a = (t_0/2, 0, ...)."""
    labels = np.array(list(np.ndindex(*shape)))
    k0 = labels[rng.integers(len(labels))]
    members = labels[labels[:, 0] % 2 == 0]
    pick = members[rng.choice(len(members), size=min(8, len(members)), replace=False)]
    grid = np.zeros(shape)
    for k in pick:
        grid[tuple((k + k0) % np.array(shape))] = rng.uniform(0.1, 1.0)
    return grid / grid.sum()


def fourier_points(pair):
    """Feasible points at r < rate with N at the copy bound, and infeasible ones, in float range."""
    r = pair.rate / 2
    for _ in range(60):  # M = floor(rN) shrinks with r, so this ends in range
        b = pair.bound(r)
        pts = [(N, math.floor(r * N + 1e-12), True) for N in (b, b + 5)]
        if all(C.within_float_range(pair, M) for _, M, _ in pts):
            break
        r /= 2
    L = -pair.lphi[pair.witness]
    for N in (1, 3):
        pts.append((N, math.floor(pair.rate * N + math.log(1.01) / L) + 1, False))
    if not all(C.within_float_range(pair, M) for _, M, _ in pts):
        raise RuntimeError("no Fourier grid in float range")
    return pts


def check_weights(label, N, M, want, res):
    w, feasible = res
    finite(w)
    expect(feasible == want, f"{label}: fourier_weights({N}, {M}) = {feasible}")
    if want:
        expect(w.min() >= -1e-9 and abs(w.sum() - 1) <= 1e-8, f"{label}: weights not a distribution")


def setup_charge_fisher(seed, step, workdir):
    rng = np.random.default_rng(seed)
    cases = [
        step(lambda: C.abelian_case("Z_256", (256,), 16, 8, rng)),
        step(lambda: C.abelian_case("Z_2^8", (2,) * 8, 16, 12, rng, spanning=True)),
        step(lambda: C.abelian_case("Z_16xZ_16", (16, 16), 32, 12, rng, spanning=True)),
        step(lambda: C.abelian_case("Z_64_d64", (64,), 64, 16, rng)),
    ]
    ops = []
    for case in cases:
        group = step(lambda: asym.build_group(case.table, name=case.label))
        rep = step(lambda: asym.validate_projective_rep(group, case.mats))
        states = {t: step(lambda: asym.PureState(case.d, a)) for t, a in (("psi", case.psi), ("phi", case.phi))}
        p = step(lambda: asym.charge_distribution(rep, states["psi"]))
        q = step(lambda: asym.charge_distribution(rep, states["phi"]))
        ops += charge_ops(case, rep, states, p, q, rng)
    ops += z3_ops(step)
    ops += lie_ops(rng, step)
    step(lambda: [op.call() for op in ops if op.name.startswith(("Z_3", "spin15", "random8"))])
    return ops


def charge_ops(case, rep, states, p, q, rng):
    L = case.label
    coords, moduli, charges, V = case.abelian
    ops = []
    for tag, amps in (("psi", case.psi), ("phi", case.phi)):
        ref = I.sector_weights(charges, V, amps, case.n)

        def dist_check(d, ref=ref):
            finite(d.probs)
            expect(near(np.sort(d.probs), ref, atol=1e-9), f"{L}: charge_distribution weights")

        ops.append(Op(f"{L}.charge_distribution",
                      lambda s=states[tag]: asym.charge_distribution(rep, s), dist_check))
    lam_ref = I.dual_coefficients(p.grid())
    ops.append(Op(f"{L}.dual_fourier", lambda: asym.dual_fourier(p),
                  lambda lam: expect(near(lam.values, lam_ref, atol=1e-9), f"{L}: dual_fourier")))
    coset = asym.ChargeDistribution(shape=p.shape, probs=coset_distribution(p.shape, rng).ravel())

    def canon_check(out):
        finite(out.probs)
        expect(np.array_equal(np.sort(out.probs), np.sort(coset.probs)), f"{L}: shift changed weights")
        lam = I.dual_coefficients(out.grid())
        unit = np.abs(lam) >= 1 - 1e-10
        expect(unit.sum() >= 2 and near(lam[unit], np.ones(unit.sum()), atol=1e-8),
               f"{L}: unit-modulus coefficients are not 1")

    ops.append(Op(f"{L}.shift_canonicalize", lambda: asym.shift_canonicalize(coset), canon_check))
    pair = C.fourier_pair(p.grid(), q.grid())
    for N, M, want in fourier_points(pair):
        ops.append(Op(f"{L}.fourier_weights", lambda N=N, M=M: asym.fourier_weights(p, q, N, M),
                      lambda res, N=N, M=M, want=want: check_weights(L, N, M, want, res)))
    return ops


def z3_ops(step):
    """Fixed Z_3 instances of the Fourier underflow: feasible by theorem, NaN weights today."""
    p = step(lambda: asym.ChargeDistribution(shape=(3,), probs=np.array(Z3_P)))
    q = step(lambda: asym.ChargeDistribution(shape=(3,), probs=np.array(Z3_Q)))
    pair = C.fourier_pair(p.grid(), q.grid())
    ops = []
    for N, M in Z3_POINTS + ((60, 60),):
        if not (M / N < pair.rate and N >= pair.bound(M / N)):
            raise RuntimeError(f"Z_3 point ({N}, {M}) is not feasible by the theorem")
        ops.append(Op("Z_3.fourier_weights", lambda N=N, M=M: asym.fourier_weights(p, q, N, M),
                      lambda res, N=N, M=M: check_weights("Z_3", N, M, True, res)))
    return ops


def lie_ops(rng, step):
    """qfim, rf_ratio, converse_certificate and clt_diagnostic on spin and random generators."""
    ops = []

    def qfim_op(label, rho, gens, ref):
        gs = step(lambda: asym.GeneratorSet(dim=len(rho), generators=gens))
        ops.append(Op(f"{label}.qfim", lambda: asym.qfim(rho, gs),
                      lambda F: expect(near(F, ref, atol=1e-9 * np.abs(ref).max()),
                                       f"{label}: qfim")))

    spin = {}
    for twice_j in (15, 31, 63):  # d = 16, 32, 64
        J = I.spin_generators(twice_j)
        psi = I.random_state(twice_j + 1, rng)
        spin[twice_j] = (J, psi)
        qfim_op(f"spin{twice_j}.pure", np.outer(psi, psi.conj()), J, I.cov_sym(psi, J))
    J16, psi16 = spin[15]
    rho = I.random_mixed(16, rng)
    qfim_op("spin15.mixed", rho, J16, I.qfim_sld(rho, J16))
    X16, X32 = I.random_generators(8, 16, rng), I.random_generators(8, 32, rng)
    rho = I.random_mixed(16, rng)
    qfim_op("random8.mixed", rho, X16, I.qfim_sld(rho, X16))
    psi32 = I.random_state(32, rng)
    qfim_op("random8.pure", np.outer(psi32, psi32.conj()), X32, I.cov_sym(psi32, X32))

    # pencils: positive definite F_phi (closed form) and singular F_phi (bisection)
    dicke = np.eye(16)[3].astype(complex)  # |j, j-3>: an eigenstate of J_z
    A = rng.standard_normal((8, 6))
    pencils = {
        "spin15.pd": (I.cov_sym(psi16, J16), I.cov_sym(I.random_state(16, rng), J16)),
        "spin15.singular": (I.cov_sym(psi16, J16), I.cov_sym(dicke, J16)),
        "random8.pd": (I.cov_sym(psi32, X32), I.cov_sym(I.random_state(32, rng), X32)),
        "random8.singular": (I.cov_sym(psi32, X32), A @ A.T),
    }
    for label, (Fp, Ff) in pencils.items():
        rf = I.rf_ref(Fp, Ff)
        method = "bisection" if label.endswith("singular") else "closed_form"

        def rf_check(res, rf=rf, method=method, label=label):
            finite(res.r_f)
            expect(res.method == method and near(res.r_f, rf, rtol=1e-6),
                   f"{label}: rf_ratio {res.r_f} ({res.method}) != {rf}")

        ops.append(Op(f"{label}.rf_ratio", lambda Fp=Fp, Ff=Ff: asym.rf_ratio(Fp, Ff), rf_check))
        for factor in (2.0, 0.5):
            def cert_check(res, factor=factor, label=label):
                impossible, v, T = res
                if factor < 1:
                    expect(not impossible and v is None and T is None, f"{label}: certificate below r_F")
                else:
                    expect(near(T, 1 / factor, rtol=1e-6) and impossible is (
                        I.g_ref(1 / factor) > 4 * math.sqrt(1e-4)), f"{label}: certificate T={T}")

            ops.append(Op(f"{label}.converse_certificate",
                          lambda Fp=Fp, Ff=Ff, r=factor * rf: asym.converse_certificate(Fp, Ff, r, 1e-4),
                          cert_check))

    thetas = 0.01 * rng.standard_normal((12, 3)) / np.sqrt(np.abs(J16[0]).max())
    state = step(lambda: asym.PureState(16, psi16))
    gens = step(lambda: asym.GeneratorSet(dim=16, generators=J16))
    ref = I.clt_ref(psi16, J16, thetas)
    ops.append(Op("spin15.clt_diagnostic", lambda: asym.clt_diagnostic(state, gens, thetas),
                  lambda got: expect(near(got, ref, rtol=1e-6, atol=1e-13), f"clt {got} != {ref}")))
    return ops
