import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asym import build_group, groups, named_group, validate_projective_rep
from asym.abelian import ChargeDistribution
from asym.charfn import char_function, classify_sets
from corpus import GROUP_NAMES, corpus_rep, random_state
from asym.errors import (
    AxiomViolation,
    DimensionMismatch,
    DomainError,
    NotAState,
    NotProjective,
    NotUnitary,
    SelfCheckFailed,
    ShapeMismatch,
    UnknownGroupName,
)
from asym.groups import PureState
from asym.tolerances import TOL_UNITARY
from reference import subgroup_closure


def test_trivial_group():
    g = build_group([[0]])
    assert g.order == 1
    assert g.identity == 0


def test_z2_table():
    g = build_group([[0, 1], [1, 0]])
    assert g.order == 2
    assert list(g.inv) == [0, 1]


def test_identity_axiom_violation():
    with pytest.raises(AxiomViolation) as exc:
        build_group([[0, 1], [0, 1]])
    assert exc.value.axiom == "identity"


def test_associativity_violation_reports_witness():
    # left-division table of Z_3 is a quasigroup with identity-row issues;
    # build a table that passes closure but fails associativity
    table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    with pytest.raises(AxiomViolation):
        build_group(table)


def test_named_group_z1_trivial():
    assert named_group("Z_1").order == 1


def test_named_group_z4_inverse_matches_modular_arithmetic():
    g = named_group("Z_4")
    # oracle: a^{-1} = (4 - a) mod 4
    for a in range(4):
        assert g.inv[a] == (4 - a) % 4
    for a in range(4):
        for b in range(4):
            assert g.mult[a, b] == (a + b) % 4


def test_named_group_s3_matches_permutation_composition():
    g = named_group("S_3")
    assert g.order == 6
    perms = sorted(itertools.permutations(range(3)))
    for a, p in enumerate(perms):
        for b, q in enumerate(perms):
            comp = tuple(p[q[k]] for k in range(3))
            assert perms[g.mult[a, b]] == comp
    # nonabelian
    assert any(g.mult[a, b] != g.mult[b, a] for a in range(6) for b in range(6))


def test_named_group_products_and_unknown():
    g = named_group("Z_2xZ_3")
    assert g.order == 6
    assert g.is_abelian()
    with pytest.raises(UnknownGroupName):
        named_group("E_8")


@pytest.mark.parametrize("shape", [(16, 16), (2,) * 8, (256,), (3, 4, 5), (1,)])
def test_named_product_table_matches_the_label_loop(shape):
    """Elements are the label tuples in itertools.product order, as the double loop had them."""
    labels = list(itertools.product(*[range(m) for m in shape]))
    index = {lab: i for i, lab in enumerate(labels)}
    ref = [[index[tuple((x + y) % m for x, y, m in zip(a, b, shape))] for b in labels]
           for a in labels]
    group = named_group("x".join(f"Z_{m}" for m in shape))
    assert group.mult.dtype == np.intp
    assert np.array_equal(group.mult, ref)


def test_validate_rep_z2_diagonal():
    g = named_group("Z_2")
    mats = [np.eye(2), np.diag([1.0, -1.0])]
    validate_projective_rep(g, mats)
    assert np.allclose(reference_validate(g, mats), 0.0)


def test_validate_rep_z4_powers_of_i():
    g = named_group("Z_4")
    mats = [np.diag([1.0, 1j**k]) for k in range(4)]
    # oracle: direct multiplication check of the group law
    for a in range(4):
        for b in range(4):
            assert np.allclose(mats[a] @ mats[b], mats[(a + b) % 4])
    validate_projective_rep(g, mats)
    assert np.allclose(reference_validate(g, mats), 0.0)


def test_validate_rep_rejects_non_unitary():
    g = named_group("Z_2")
    with pytest.raises(NotUnitary):
        validate_projective_rep(g, [np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])])


def test_subgroup_closure_z4():
    g = named_group("Z_4")
    assert subgroup_closure(g, {2}) == frozenset({0, 2})
    assert subgroup_closure(g, set()) == frozenset({0})


SMALL_GROUPS = {name: named_group(name) for name in ("S_3", "D_4", "Q_8", "Z_2xZ_2xZ_2")}


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(SMALL_GROUPS)), bits=st.integers(min_value=0, max_value=255))
def test_is_subgroup_agrees_with_subgroup_closure(name, bits):
    """The one-table closedness test against the closure loop, on every kind of subset."""
    g = SMALL_GROUPS[name]
    S = frozenset(k for k in range(g.order) if bits >> k & 1)  # bits = 0 is the empty set
    assert groups.is_subgroup(g, S) == (subgroup_closure(g, S) == S)


def test_is_subgroup_rejects_out_of_range_elements():
    g = named_group("Z_4")
    for bad in ({0, 4}, {-1, 0}):
        with pytest.raises(DomainError):
            groups.is_subgroup(g, bad)


def test_subgroup_closure_s3_three_cycle():
    g = named_group("S_3")
    perms = sorted(itertools.permutations(range(3)))
    three_cycle = perms.index((1, 2, 0))
    closure = subgroup_closure(g, {three_cycle})
    assert len(closure) == 3
    # closed under mult and inv
    for a in closure:
        assert g.inv[a] in closure
        for b in closure:
            assert g.mult[a, b] in closure


@pytest.mark.parametrize("name", ["Z_2", "Z_3", "Z_4", "Z_2xZ_2", "S_3", "D_4", "Q_8"])
def test_gauge_invariance_of_chi_modulus(name, rng):
    """Re-phasing each U(g) leaves |chi| unchanged for any state."""
    rep = corpus_rep(name)
    state = random_state(rep.dim, rng)
    base = np.abs(char_function(rep, state).values())
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=rep.group.order))
    phases[rep.group.identity] = 1.0
    gauged = validate_projective_rep(rep.group, rep.matrices * phases[:, None, None])
    regauged = np.abs(char_function(gauged, state).values())
    assert np.allclose(base, regauged, atol=1e-12)


def test_gauge_keeps_a_small_chi_and_its_zero_set():
    """Re-phasing U(1) = Z of Z_2 to i Z (omega(1, 1) = -1) leaves |chi| = 3e-9
    and the zero set alone: chi(1) = i chi(1)^* is no rounding error."""
    group = named_group("Z_2")
    z = np.diag([1.0, -1.0])
    plain = validate_projective_rep(group, np.stack([np.eye(2), z]))
    gauged = validate_projective_rep(group, np.stack([np.eye(2), 1j * z]))
    state = PureState(2, np.sqrt([(1 + 3e-9) / 2, (1 - 3e-9) / 2]))
    base, phased = (char_function(rep, state) for rep in (plain, gauged))
    assert np.allclose(np.abs(phased.values()), np.abs(base.values()), rtol=1e-6, atol=0)
    assert abs(abs(phased.values()[1]) - 3e-9) < 1e-15
    assert classify_sets(phased).zero == classify_sets(base).zero == frozenset()


def test_inverse_phase_reads_omega_of_g_and_its_inverse(monkeypatch):
    # Pauli rep of Z_2 x Z_2: Z Z = X X = I, (XZ)(XZ) = -I; i Z on Z_2: (iZ)^2 = -I
    X, Z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    pauli = validate_projective_rep(named_group("Z_2xZ_2"), [np.eye(2), Z, X, X @ Z])
    iz = validate_projective_rep(named_group("Z_2"), [np.eye(2), 1j * Z])
    for rep, want in ((pauli, [1, 1, 1, -1]), (iz, [1, -1])):
        assert np.abs(rep.inverse_phase - want).max() < 1e-15
        assert not rep.inverse_phase.flags.writeable
    rng = np.random.default_rng(3)
    for name in GROUP_NAMES:
        rep = corpus_rep(name)
        # omega(g, g^-1) is 1 on every corpus rep; so is it block by block
        assert np.abs(rep.inverse_phase - 1).max() < 1e-15
        with monkeypatch.context() as mp:
            mp.setattr(groups, "_CHUNK_BYTES", rep.dim**2 * 16)  # one element per block
            fresh = validate_projective_rep(rep.group, rep.matrices)
            assert np.array_equal(fresh.inverse_phase, rep.inverse_phase)
        # a gauge U(g) -> e^{i t_g} U(g) multiplies omega(g, g^-1) by e^{i (t_g + t_g^-1)}
        t = rng.uniform(-np.pi, np.pi, rep.group.order)
        t[rep.group.identity] = 0.0
        gauged = validate_projective_rep(rep.group, rep.matrices * np.exp(1j * t)[:, None, None])
        want = np.exp(1j * (t + t[rep.group.inv])) * rep.inverse_phase
        assert np.abs(gauged.inverse_phase - want).max() < 1e-14
        state = random_state(rep.dim, rng)
        chi = char_function(gauged, state).values()
        assert np.abs(chi[rep.group.inv] - gauged.inverse_phase * chi.conj()).max() < 1e-15
        assert np.abs(np.abs(chi) - np.abs(char_function(rep, state).values())).max() < 1e-14


def test_cyclic_roots_of_unity_rep_has_zero_cocycle():
    for n in (2, 3, 4):
        rep = corpus_rep(f"Z_{n}")
        assert np.abs(reference_validate(rep.group, rep.matrices)).max() < 1e-9


def test_pure_state_norm_enforced():
    from asym.errors import NotAState

    with pytest.raises(NotAState):
        PureState(dim=2, amplitudes=np.array([1.0, 1.0]))


# ------------------------------------------- batched validation vs reference loop


def reference_validate(group, matrices):
    """Per-element and per-pair loop that the batched validation must reproduce."""
    mats = np.asarray(matrices, dtype=complex)
    n, d = group.order, mats.shape[1]
    eye = np.eye(d)
    for g in range(n):
        dev = np.abs(mats[g] @ mats[g].conj().T - eye).max()
        if dev > TOL_UNITARY:
            raise NotUnitary(g, float(dev))
    cocycle = np.zeros((n, n))
    for g in range(n):
        for h in range(n):
            prod = mats[g] @ mats[h] @ mats[group.mult[g, h]].conj().T
            z = prod[0, 0]
            if abs(abs(z) - 1.0) > 1e-6:
                raise NotProjective(g, h, float(np.abs(prod - prod[0, 0] * eye).max()))
            phase = z / abs(z)
            dev = np.abs(prod - phase * eye).max()
            if dev > TOL_UNITARY * max(1.0, d):
                raise NotProjective(g, h, float(dev))
            cocycle[g, h] = np.angle(phase)
    return cocycle


def outcome(func, group, mats):
    """func's result on success, else (exception type, witness, deviation)."""
    try:
        return func(group, mats)
    except (NotUnitary, NotProjective) as exc:
        witness = exc.element if isinstance(exc, NotUnitary) else exc.pair
        return type(exc), witness, exc.deviation


def assert_same_outcome(group, mats):
    """The reference's outcome (its cocycle table on success), which the
    validation must match: accept, or raise at the same witness and deviation."""
    ref = outcome(reference_validate, group, mats)
    new = outcome(validate_projective_rep, group, mats)
    if isinstance(ref, np.ndarray):
        assert isinstance(new, groups.ProjectiveRep), new
    else:
        assert new == ref
    return ref


def haar_unitary(d, rng):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def conjugated_cyclic_rep(n, d, rng):
    """V diag(w^{k g}) V^+ times a random phase per element: a projective rep of Z_n."""
    charges = rng.integers(0, n, size=d)
    V = haar_unitary(d, rng)
    mats = np.array([(V * np.exp(2j * np.pi * charges * g / n)) @ V.conj().T for g in range(n)])
    return mats * np.exp(1j * rng.uniform(0, 2 * np.pi, size=n))[:, None, None]


def pauli_rep():
    """1, X, Z, XZ on Z_2 x Z_2: a genuinely projective rep."""
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    Z = np.diag([1.0, -1.0]).astype(complex)
    return np.array([np.eye(2), X, Z, X @ Z])


# chunk sizes: the default, one matrix per block, and a few matrices per block
CHUNKS = [None, 1, 3 * 16 * 16, 40 * 16]


@pytest.fixture(params=CHUNKS, ids=lambda c: f"chunk={c}")
def chunk(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(groups, "_CHUNK_BYTES", request.param)
    return request.param


@pytest.mark.parametrize("n,d", [(2, 1), (3, 2), (8, 3), (12, 4), (16, 2)])
def test_batched_validation_matches_reference_on_cyclic_reps(chunk, n, d):
    mats = conjugated_cyclic_rep(n, d, np.random.default_rng(n * 10 + d))
    cocycle = assert_same_outcome(named_group(f"Z_{n}"), mats)
    assert isinstance(cocycle, np.ndarray)


def test_batched_validation_matches_reference_on_pauli_rep(chunk):
    cocycle = assert_same_outcome(named_group("Z_2xZ_2"), pauli_rep())
    assert np.abs(cocycle).max() > 1.0  # genuinely projective: omega = -1 somewhere


@pytest.mark.parametrize("how", ["phase_slip", "off_circle", "non_unitary"])
def test_batched_validation_reports_late_failure_like_reference(chunk, how):
    n = 16
    mats = conjugated_cyclic_rep(n, 2, np.random.default_rng(5))
    if how == "phase_slip":  # unitary, but U(14) is no longer a phase times the law
        mats[n - 2] = mats[n - 2] @ np.diag([1.0, np.exp(1e-6j)])
    elif how == "off_circle":  # U(g)U(h)U(gh)^+ with a vanishing (0, 0) entry
        mats[n - 2] = mats[n - 2] @ np.array([[0, 1], [1, 0]])
    else:
        mats[n - 3] = mats[n - 3] * 1.001
    kind, witness, deviation = assert_same_outcome(named_group(f"Z_{n}"), mats)
    if how == "non_unitary":
        assert (kind, witness) == (NotUnitary, n - 3)
    else:
        # the first failing pair is (1, n - 3), past the first block whenever
        # a block holds fewer than the 2n - 2 products up to it
        assert (kind, witness) == (NotProjective, (1, n - 3))
    assert deviation > TOL_UNITARY


def test_zero_leading_entry_raises_without_warning():
    X = np.array([[0, 1], [1, 0]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotProjective) as exc:
            validate_projective_rep(named_group("Z_2"), [X, np.eye(2)])
    assert exc.value.pair == (0, 0)
    assert exc.value.deviation == 1.0


def test_zero_dimensional_rep_is_a_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        validate_projective_rep(named_group("Z_4"), np.zeros((4, 0, 0)))


# ------------------------------------------- the law checked at a generating set


def small_unitary(eps, d, rng):
    """W diag(exp(i eps t)) W^+ with t in [-1, 1]: a unitary eps away from I."""
    W = haar_unitary(d, rng)
    return (W * np.exp(1j * eps * rng.uniform(-1, 1, size=d))) @ W.conj().T


def dihedral_rep(m, ks, rng):
    """Direct sum of the 2-dim irreps r^i s^a -> R(2 pi k i / m) diag(1, (-1)^a) of
    `dihedral_table(m)`, conjugated by a random unitary."""
    i, a = np.arange(2 * m) % m, np.arange(2 * m) // m
    reflection = np.array([np.eye(2), np.diag([1.0, -1.0])])[a]
    mats = np.zeros((2 * m, 2 * len(ks), 2 * len(ks)), dtype=complex)
    for b, k in enumerate(ks):
        t = 2 * np.pi * k * i / m
        rot = np.array([[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]]).transpose(2, 0, 1)
        mats[:, 2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = rot @ reflection
    V = haar_unitary(2 * len(ks), rng)
    return V @ mats @ V.conj().T


def permutation_rep(k, rng):
    """P(p) + sgn(p) P(p) on the elements of `symmetric_table(k)`, conjugated."""
    perms = sorted(itertools.permutations(range(k)))
    mats = np.zeros((len(perms), 2 * k, 2 * k), dtype=complex)
    for g, p in enumerate(perms):
        P = np.eye(k)[:, list(p)]  # P e_x = e_{p(x)}
        mats[g, :k, :k], mats[g, k:, k:] = P, np.linalg.det(P) * P
    V = haar_unitary(2 * k, rng)
    return V @ mats @ V.conj().T


def product_rep(moduli, d, rng):
    """V diag(exp(2 pi i c.a / m)) V^+ on the named product group, labels a in
    row-major order, charges c random."""
    labels = np.indices(moduli).reshape(len(moduli), -1).T
    charges = rng.integers(0, moduli, size=(d, len(moduli)))
    V = haar_unitary(d, rng)
    return np.einsum("ij,gj,kj->gik", V, np.exp(2j * np.pi * (labels / moduli) @ charges.T), V.conj())


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["cyclic", "dihedral", "pauli"]),
    n=st.integers(1, 24),  # Z_1: S is empty and only the row of e is measured
    d=st.integers(1, 4),
    log_eps=st.floats(-13, -6),
    unitary=st.booleans(),
    chunk=st.sampled_from(CHUNKS),
    seed=st.integers(0, 2**32 - 1),
)
def test_generator_check_matches_reference(kind, n, d, log_eps, unitary, chunk, seed):
    """Verdict, witness and deviation bit for bit, with one element
    perturbed by 1e-13 to 1e-6, across the unitarity and the law cuts."""
    rng = np.random.default_rng(seed)
    if kind == "cyclic":
        group, mats = named_group(f"Z_{n}"), conjugated_cyclic_rep(n, d, rng)
    elif kind == "dihedral":
        m = max(3, n // 2)
        group = build_group(dihedral_table(m))
        mats = dihedral_rep(m, rng.integers(1, m, size=(d + 1) // 2), rng)
    else:
        group, mats = named_group("Z_2xZ_2"), pauli_rep()
    mats = mats * np.exp(1j * rng.uniform(0, 2 * np.pi, size=len(mats)))[:, None, None]
    k, eps, dim = int(rng.integers(len(mats))), 10.0**log_eps, mats.shape[1]
    if unitary:
        mats[k] = mats[k] @ small_unitary(eps, dim, rng)
    else:
        mats[k] += eps * (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    with pytest.MonkeyPatch.context() as mp:
        if chunk is not None:
            mp.setattr(groups, "_CHUNK_BYTES", chunk)
        assert_same_outcome(group, mats)


BENCHMARK_SHAPES = {
    "Z_256, d=16": lambda rng: (named_group("Z_256"), conjugated_cyclic_rep(256, 16, rng)),
    "Z_64, d=64": lambda rng: (named_group("Z_64"), conjugated_cyclic_rep(64, 64, rng)),
    "Z_2^8, d=16": lambda rng: (named_group("x".join(["Z_2"] * 8)), product_rep((2,) * 8, 16, rng)),
    "D_128, d=16": lambda rng: (build_group(dihedral_table(128)),
                                dihedral_rep(128, [1, 11, 30, 43, 50, 57, 62, 19], rng)),
    "S_5, d=10": lambda rng: (build_group(symmetric_table(5)), permutation_rep(5, rng)),
}


@pytest.mark.parametrize("shape", sorted(BENCHMARK_SHAPES))
def test_benchmark_shapes_never_enter_the_full_scan(chunk, monkeypatch, shape):
    """Accepted at the generators, without the scan of every pair."""
    group, mats = BENCHMARK_SHAPES[shape](np.random.default_rng(11))

    def scan(group, mats):
        raise AssertionError("full scan of the projective law")

    monkeypatch.setattr(groups, "_law_scan", scan)
    rep = validate_projective_rep(group, mats)
    assert rep.matrices is mats


def test_rep_the_bound_cannot_vouch_for_runs_the_scan_once(monkeypatch):
    """U(1) off by 1e-11: every pair passes, but 63 steps along the words in
    S = {1} could add up to more than the cut, so the scan decides."""
    n, d = 64, 4
    rng = np.random.default_rng(3)
    mats = conjugated_cyclic_rep(n, d, rng)
    mats[1] = mats[1] @ small_unitary(1e-11, d, rng)
    calls = []
    scan = groups._law_scan
    monkeypatch.setattr(groups, "_law_scan", lambda *args: calls.append(args) or scan(*args))
    group = named_group(f"Z_{n}")
    rep = validate_projective_rep(group, mats)
    assert len(calls) == 1 and rep.matrices is mats
    reference_validate(group, mats)  # which accepts it too


@pytest.mark.parametrize("n,d", [(64, 64), (256, 16), (256, 1)])
def test_validation_memory_stays_within_a_few_chunks(monkeypatch, n, d):
    """Peak traced memory of a call beyond its complex input, which np.asarray
    does not copy: the blocks of products, never the n x n table of them, on
    the path of the generating set and on the scan of every pair."""
    group, mats = named_group(f"Z_{n}"), conjugated_cyclic_rep(n, d, np.random.default_rng(n))
    for path in ("generators", "full scan"):
        if path == "full scan":
            monkeypatch.setattr(groups, "_law_holds_at_generators", lambda *args: False)
        validate_projective_rep(group, mats)  # warm any lazy imports
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            validate_projective_rep(group, mats)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 6 * groups._CHUNK_BYTES, path


def test_associativity_witness_past_first_block(monkeypatch):
    n = 8
    table = np.array(named_group(f"Z_{n}").mult)
    table[3, [4, 5]] = table[3, [5, 4]]  # rows stay permutations; e is untouched
    left = table[table, :]
    right = table[np.arange(n)[:, None, None], table[None, :, :]]
    expected = tuple(int(x) for x in np.argwhere(left != right)[0])
    assert expected[0] >= 1
    for rows in (1, 3, n):
        monkeypatch.setattr(groups, "_CHUNK_BYTES", rows * n * n * table.itemsize)
        with pytest.raises(AxiomViolation) as exc:
            build_group(table)
        assert exc.value.axiom == "associativity"
        assert exc.value.witness == expected


# ------------------------------------------- Light's test vs brute-force loop


def reference_build(table):
    """(identity, inv) of a table with an identity, else (axiom, witness): the
    n^3 associativity loop and the per-element inverse loop."""
    t = np.asarray(table)
    n = len(t)
    e = next(a for a in range(n) if all(t[a, x] == x == t[x, a] for x in range(n)))
    for a, b, c in itertools.product(range(n), repeat=3):
        if t[t[a, b], c] != t[a, t[b, c]]:
            return "associativity", (a, b, c)
    inv = []
    for a in range(n):
        bs = [b for b in range(n) if t[a, b] == e]
        if len(bs) != 1 or t[bs[0], a] != e:
            return "inverses", a
        inv.append(bs[0])
    return e, inv


def build_outcome(table):
    try:
        g = build_group(table)
    except AxiomViolation as exc:
        return exc.axiom, exc.witness
    return g.identity, g.inv.tolist()


def relabel(table, perm):
    """The table with element x renamed perm[x]."""
    table, perm = np.asarray(table), np.asarray(perm)
    back = np.argsort(perm)
    return perm[table[back][:, back]]


def random_loop(n, rng):
    """A random Latin square with identity 0, by randomized backtracking."""
    sq = np.full((n, n), -1)
    sq[0] = sq[:, 0] = np.arange(n)
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k):
        if k == len(cells):
            return True
        i, j = cells[k]
        for v in rng.permutation(n):
            if v not in sq[i] and v not in sq[:, j]:
                sq[i, j] = v
                if fill(k + 1):
                    return True
                sq[i, j] = -1
        return False

    fill(0)  # a Latin square with identity exists for every n
    return sq


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(["magma", "loop", "group"]), n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_light_test_matches_brute_force(kind, n, seed):
    """Verdict and witness of build_group equal the n^3 loop's, identity anywhere."""
    rng = np.random.default_rng(seed)
    if kind == "magma":  # any table with an identity, n <= 6
        n = min(n, 6)
        table = rng.integers(0, n, size=(n, n))
        table[0] = table[:, 0] = np.arange(n)
    elif kind == "loop":
        table = random_loop(n, rng)
    else:  # n picks one of the small groups
        table = named_group(["Z_1", "Z_2", "Z_2xZ_2", "S_3", "D_4", "Q_8"][n % 6]).mult
    table = relabel(table, rng.permutation(len(table)))
    assert build_outcome(table) == reference_build(table)


def test_light_test_checks_every_generator():
    """Z_2 = {0, 1} with 2 adjoined: generator 1 passes, only generator 2 fails."""
    table = [[0, 1, 2], [1, 0, 2], [2, 2, 1]]
    assert groups._right_generators(np.array(table), 0) == [1, 2]
    assert build_outcome(table) == reference_build(table) == ("associativity", (1, 2, 2))


def dihedral_table(m):
    """r^i s^a at index i + m a, with s r = r^-1 s."""
    i, a = np.arange(2 * m) % m, np.arange(2 * m) // m
    sign = np.where(a == 1, -1, 1)
    return (i[:, None] + sign[:, None] * i[None, :]) % m + m * ((a[:, None] + a[None, :]) % 2)


def symmetric_table(k):
    perms = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(p[x] for x in q)] for q in perms] for p in perms])


LIGHT_GROUPS = {
    **{name: named_group(name).mult for name in
       ["Z_1", "Z_7", "Z_256", "Z_2xZ_2xZ_2", "Z_2xZ_2xZ_2xZ_2xZ_2xZ_2xZ_2xZ_2", "Z_16xZ_16",
        *GROUP_NAMES]},
    **{f"D_{m}": dihedral_table(m) for m in (3, 8, 64, 128)},
    "S_5": symmetric_table(5),
}


@pytest.mark.parametrize("name", sorted(LIGHT_GROUPS))
def test_groups_need_at_most_log2_n_generators(name):
    table = LIGHT_GROUPS[name]
    gens = groups._right_generators(table, 0)
    assert len(gens) <= np.log2(len(table))
    assert subgroup_closure(build_group(table), gens) == frozenset(range(len(table)))


@pytest.mark.parametrize("name", ["Z_256", "Z_2xZ_2xZ_2xZ_2xZ_2xZ_2xZ_2xZ_2", "Z_16xZ_16", "D_128"])
def test_valid_table_never_enters_the_witness_scan(monkeypatch, name):
    def scan(mult):
        raise AssertionError("witness scan on a valid table")

    monkeypatch.setattr(groups, "_associativity_witness", scan)
    assert build_group(LIGHT_GROUPS[name]).order == 256


def test_left_zero_monoid_needs_every_generator_and_fails_inverses():
    """e adjoined to x y = x: associative, every non-identity element is a generator."""
    n = 64
    table = np.repeat(np.arange(n)[:, None], n, axis=1)
    table[0] = np.arange(n)
    assert groups._right_generators(table, 0) == list(range(1, n))
    with pytest.raises(AxiomViolation) as exc:
        build_group(table)
    assert (exc.value.axiom, exc.value.witness) == ("inverses", 1)


def test_q8_table_self_check_is_a_typed_error(monkeypatch):
    mats = groups.quaternion_matrices()
    mats[3] = mats[2]  # two elements share a matrix: products are ambiguous
    monkeypatch.setattr(groups, "quaternion_matrices", lambda: mats)
    with pytest.raises(SelfCheckFailed):
        named_group("Q_8")


# ------------------------------------------------------ non-finite input gates

NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 5),
    data=st.data(),
    bad=NON_FINITE,
    imaginary=st.booleans(),
)
def test_pure_state_rejects_non_finite(d, data, bad, imaginary):
    amp = np.zeros(d, dtype=complex)
    amp[0] = 1.0
    k = data.draw(st.integers(0, d - 1))
    amp[k] += 1j * bad if imaginary else bad
    with pytest.raises(NotAState):
        PureState(dim=d, amplitudes=amp)


@settings(max_examples=40, deadline=None)
@given(size=st.integers(1, 6), data=st.data(), bad=NON_FINITE)
def test_charge_distribution_rejects_non_finite(size, data, bad):
    probs = np.full(size, 1.0 / size)
    probs[data.draw(st.integers(0, size - 1))] = bad
    with pytest.raises(ShapeMismatch):
        ChargeDistribution(shape=(size,), probs=probs)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    d=st.integers(1, 3),
    data=st.data(),
    bad=NON_FINITE,
    imaginary=st.booleans(),
)
def test_validate_projective_rep_rejects_non_finite(n, d, data, bad, imaginary):
    mats = np.array([np.diag(np.exp(2j * np.pi * g * np.arange(d) / n)) for g in range(n)])
    g = data.draw(st.integers(0, n - 1))
    i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    mats[g, i, j] += 1j * bad if imaginary else bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotUnitary) as exc:
            validate_projective_rep(named_group(f"Z_{n}"), mats)
    assert exc.value.element == g
