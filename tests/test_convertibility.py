import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asym import (
    build_group,
    char_from_values,
    char_function,
    dual_fourier,
    exact_rate,
    feasible_exact,
    fourier_weights,
    groups,
    is_positive_definite,
    minimal_copies_search,
    named_group,
    validate_projective_rep,
)
from asym.abelian import ChargeDistribution, basis_elements
from asym.convertibility import (
    MAX_SEARCH_COPIES,
    GroupFunction,
    _block_min_eig,
    gram_min_eigenvalues,
    interpolate,
)
from asym.corpus import GROUP_NAMES, random_state
from asym.errors import DomainError, NotHermitian, SelfCheckFailed
from asym.groups import PureState
from asym.tolerances import DEFAULT, TOL_HERM

TOL_PSD = DEFAULT.tol_psd


@pytest.fixture
def z2():
    return named_group("Z_2")


@pytest.fixture
def z3():
    return named_group("Z_3")


def chi(group, tail):
    return char_from_values(group, [1.0] + list(tail))


def test_interpolator_ratio(z2):
    f = feasible_exact(chi(z2, [0.36]), chi(z2, [0.6]), 1, 1).f
    assert np.allclose(f.values, [1.0, 0.6], atol=1e-14)


def test_interpolator_zero_over_zero_is_zero(z2):
    f = feasible_exact(chi(z2, [0.0]), chi(z2, [0.0]), 1, 1).f
    assert f.values[1] == 0.0


def test_interpolator_zero_set_violation(z2):
    # chi_phi vanishes where chi_psi does not: no interpolator, an infeasible verdict
    res = feasible_exact(chi(z2, [0.5]), chi(z2, [0.0]), 1, 1)
    assert res.feasible is False
    assert res.zero_set_witness == 1
    assert res.f.values[1] == 0.0 and np.isfinite(res.min_gram_eigenvalue)
    assert feasible_exact(chi(z2, [0.5]), chi(z2, [0.8]), 1, 1).zero_set_witness is None


def test_gram_matrix_matches_brute_force(z3, rng):
    vals = np.array([1.0, 0.4 + 0.2j, 0.4 - 0.2j])
    f = GroupFunction(group=z3, values=vals)
    res = is_positive_definite(f)
    # oracle: explicit double loop over M[g, h] = f(g^-1 h)
    M = np.array(
        [[vals[z3.mult[z3.inv[g], h]] for h in range(3)] for g in range(3)]
    )
    expect = np.linalg.eigvalsh((M + M.conj().T) / 2).min()
    assert res.min_gram_eigenvalue == pytest.approx(expect, abs=1e-14)
    assert res.feasible


def test_gram_circulant_eigenvalues(z3):
    # circulant oracle: f = (1, t, t) has eigenvalues 1 + 2t and 1 - t
    for t in (0.3, -0.3, -0.6, 0.9):
        f = GroupFunction(group=z3, values=np.array([1.0, t, t]))
        res = is_positive_definite(f)
        assert res.min_gram_eigenvalue == pytest.approx(min(1 + 2 * t, 1 - t), abs=1e-12)
        assert res.feasible == (t >= -0.5)


def test_non_hermitian_function_rejected(z3):
    # Hermitian Gram needs f(g^-1) = conj(f(g)); 0.9 != 0.5 breaks it
    f = GroupFunction(group=z3, values=np.array([1.0, 0.5, 0.9]))
    with pytest.raises(NotHermitian):
        is_positive_definite(f)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_function_rejected(z3, bad):
    # no min eigenvalue is computed, so no NaN can pass as a verdict
    f = GroupFunction(group=z3, values=np.array([1.0, bad, bad]))
    with pytest.raises(NotHermitian):
        is_positive_definite(f)


def test_modulus_witness_reported(z2):
    f = GroupFunction(group=z2, values=np.array([1.0, 1.5]))
    res = is_positive_definite(f)
    assert not res.feasible
    assert res.modulus_witness == 1


def test_feasible_exact_z2_halving(z2):
    psi = chi(z2, [0.36])
    phi = chi(z2, [0.6])
    assert feasible_exact(psi, phi, 1, 1).feasible
    assert feasible_exact(psi, phi, 1, 2).feasible  # 0.36 = 0.6^2 exactly
    assert not feasible_exact(psi, phi, 1, 3).feasible
    assert not feasible_exact(phi, psi, 1, 1).feasible


def test_feasible_exact_trivial_target_always_ok(z2):
    psi = chi(z2, [0.6])
    assert feasible_exact(psi, chi(z2, [0.0]), 3, 0).feasible
    assert feasible_exact(chi(z2, [0.0]), psi, 3, 0).feasible


def test_feasible_exact_large_copy_numbers_no_underflow(z2):
    # |chi|^N underflows any float at N = 10^6; log-domain storage must not
    psi = chi(z2, [0.6])
    res = feasible_exact(psi, psi, 10**6, 10**6)
    assert res.feasible
    assert np.isfinite(res.min_gram_eigenvalue)
    assert not feasible_exact(psi, psi, 10**6, 10**6 + 1).feasible


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(min_value=0.05, max_value=0.95),
    b=st.floats(min_value=0.05, max_value=0.95),
    N=st.integers(min_value=1, max_value=12),
    M=st.integers(min_value=1, max_value=12),
)
def test_z2_feasibility_is_modulus_comparison(a, b, N, M):
    """On Z_2 the Gram test reduces to a^N <= b^M (2x2 matrix oracle)."""
    z2 = named_group("Z_2")
    res = feasible_exact(chi(z2, [a]), chi(z2, [b]), N, M)
    expect = N * math.log(a) <= M * math.log(b) + 1e-9
    assert res.feasible == expect


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_schur_product_preserves_feasibility(data):
    """The elementwise product of two positive definite functions stays
    positive definite (Schur product theorem)."""
    z3 = named_group("Z_3")
    t1 = data.draw(st.floats(min_value=-0.45, max_value=0.95))
    t2 = data.draw(st.floats(min_value=-0.45, max_value=0.95))
    f1 = GroupFunction(group=z3, values=np.array([1.0, t1, t1]))
    f2 = GroupFunction(group=z3, values=np.array([1.0, t2, t2]))
    prod = GroupFunction(group=z3, values=f1.values * f2.values)
    assert is_positive_definite(f1).feasible
    assert is_positive_definite(f2).feasible
    assert is_positive_definite(prod).feasible


def test_minimal_copies_trivially_feasible_rate(z2):
    psi = chi(z2, [0.6])
    assert minimal_copies_search(psi, psi, 0.5, 32) == 1
    assert minimal_copies_search(psi, psi, 1.0, 32) == 1


def test_minimal_copies_none_above_rate(z2):
    psi = chi(z2, [0.6])
    assert minimal_copies_search(psi, psi, 1.5, 32) is None


def test_minimal_copies_none_on_zero_violation(z2):
    assert minimal_copies_search(chi(z2, [0.5]), chi(z2, [0.0]), 1.0, 8) is None


def test_minimal_copies_matches_brute_force_persistence(z3):
    """Independent oracle: scan every N and take the start of the final
    all-feasible run."""
    psi = char_from_values(z3, [1.0, 0.6 * np.exp(0.9j), 0.6 * np.exp(-0.9j)])
    phi = char_from_values(z3, [1.0, 0.7, 0.7])
    for r in (0.5, 0.9, 1.2, 2.5):
        n_max = 40
        ok = []
        for N in range(1, n_max + 1):
            M = math.floor(r * N + 1e-12)
            ok.append(feasible_exact(psi, phi, N, M).feasible)
        expect = None
        for N in range(n_max, 0, -1):
            if not ok[N - 1]:
                break
            expect = N
        assert minimal_copies_search(psi, phi, r, n_max) == expect


def test_minimal_copies_rejects_bad_nmax(z2):
    psi = chi(z2, [0.6])
    with pytest.raises(DomainError):
        minimal_copies_search(psi, psi, 1.0, 0)
    with pytest.raises(DomainError):
        minimal_copies_search(psi, psi, 1.0, 10**5)


@pytest.mark.parametrize(
    "N, M", [(10**400, 1), (1, 10**400), (10**308, 1), (1, 10**308)],
    ids=["N", "M", "N-beyond-phase", "M-beyond-phase"],
)
def test_feasible_exact_rejects_a_copy_number_beyond_a_float(z2, N, M):
    # used to raise an untyped OverflowError converting the copy numbers
    psi = chi(z2, [0.6])
    with pytest.raises(DomainError):
        feasible_exact(psi, psi, N, M)


def test_minimal_copies_rejects_a_negative_rate(z2):
    # it used to report a copy-number error, "got (5, -5)", for r = -1
    psi = chi(z2, [0.6])
    with pytest.raises(DomainError, match="rate"):
        minimal_copies_search(psi, psi, -1.0, 8)


@pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf])
def test_minimal_copies_rejects_a_non_finite_rate(z2, r):
    # inf used to raise OverflowError and nan a bare ValueError from math.floor
    psi = chi(z2, [0.6])
    with pytest.raises(DomainError):
        minimal_copies_search(psi, chi(z2, [0.8]), r, 8)


# ------------------------------------- block-spectral oracle vs the dense Gram


def dense_gram(f, tol_psd=TOL_PSD):
    """Reference oracle: eigvalsh of the full n x n Gram matrix M[g, h] = f(g^-1 h).

    Returns (hermitian, min_eig, feasible, modulus_witness); min_eig and
    feasible are None when M is not Hermitian.
    """
    group = f.group
    n = group.order
    M = f.values[group.mult[group.inv, :]]
    herm_dev = float(np.abs(M - M.conj().T).max())
    scale = max(1.0, float(np.abs(f.values).max()))
    over = np.where(np.abs(f.values) > 1.0 + tol_psd)[0]
    witness = int(over[0]) if over.size else None
    if herm_dev > TOL_HERM * scale:
        return False, None, None, witness
    min_eig = float(np.linalg.eigvalsh((M + M.conj().T) / 2.0)[0])
    return True, min_eig, min_eig >= -tol_psd * n, witness


def dihedral_table(m):
    """D_m of order 2m; r^i s^a has index i + m a and s r = r^-1 s."""
    i, a = np.arange(2 * m) % m, np.arange(2 * m) // m
    sign = np.where(a == 1, -1, 1)
    return (i[:, None] + sign[:, None] * i[None, :]) % m + m * ((a[:, None] + a[None, :]) % 2)


def symmetric_table(k, even=False):
    """S_k (A_k if even) on sorted permutations, identity first; (p q)(x) = p(q(x))."""
    perms = sorted(itertools.permutations(range(k)))
    if even:
        pairs = list(itertools.combinations(range(k), 2))
        perms = [p for p in perms if sum(p[i] > p[j] for i, j in pairs) % 2 == 0]
    index = {p: i for i, p in enumerate(perms)}
    return np.array([[index[tuple(p[x] for x in q)] for q in perms] for p in perms])


def heisenberg_table(p):
    """Upper unitriangular 3x3 matrices over Z_p, (a, b, c) at index (a p + b) p + c."""
    a, b, c = (x.ravel() for x in np.meshgrid(*[np.arange(p)] * 3, indexing="ij"))
    ab = ((a[:, None] + a[None, :]) % p) * p + (b[:, None] + b[None, :]) % p
    return ab * p + (c[:, None] + c[None, :] + a[:, None] * b[None, :]) % p


BUILT = {
    "Z_256": lambda: named_group("Z_256"),
    "Z_2^8": lambda: named_group("x".join(["Z_2"] * 8)),
    "Z_16xZ_16": lambda: named_group("Z_16xZ_16"),
    "D_128": lambda: build_group(dihedral_table(128), name="D_128"),
    "S_5": lambda: build_group(symmetric_table(5), name="S_5"),
    "A_5": lambda: build_group(symmetric_table(5, even=True), name="A_5"),
    "Heis_3": lambda: build_group(heisenberg_table(3), name="Heis_3"),
}
ORACLE_GROUPS = list(GROUP_NAMES) + list(BUILT)


@pytest.fixture(scope="module")
def oracle_group():
    built = {}

    def get(name):
        if name not in built:
            built[name] = BUILT[name]() if name in BUILT else named_group(name)
        return built[name]

    return get


def random_hermitian(group, rng):
    z = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    return (z + z[group.inv].conj()) / 2.0


def positive_type(group, rng):
    """f(k) = sum_g conj v(g) v(g k) / |v|^2: its Gram matrix is a Gram of vectors."""
    v = rng.standard_normal(group.order) + 1j * rng.standard_normal(group.order)
    return (v.conj()[:, None] * v[group.mult]).sum(axis=0) / np.vdot(v, v).real


def irreps_by_dim(group):
    """The cached irreps, one (n, count, d, d) array of matrices per dimension."""
    basis, n = group.irreps, group.order
    out, start = [], 0
    for d, count in basis.dims:
        out.append(basis.matrix[:, start : start + count * d * d].reshape(n, count, d, d))
        start += count * d * d
    return out


def assert_matches_dense(values, group):
    f = GroupFunction(group=group, values=values)
    hermitian, min_eig, feasible, witness = dense_gram(f)
    if not hermitian:
        with pytest.raises(NotHermitian):
            is_positive_definite(f)
        return None
    res = is_positive_definite(f)
    assert abs(res.min_gram_eigenvalue - min_eig) <= 1e-10 * group.order
    assert res.feasible == feasible
    assert res.modulus_witness == witness
    return min_eig


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_block_oracle_matches_dense_gram(name, oracle_group):
    group = oracle_group(name)
    n, e = group.order, group.identity
    rng = np.random.default_rng(n)
    for _ in range(3):
        assert_matches_dense(random_hermitian(group, rng), group)
        assert assert_matches_dense(positive_type(group, rng), group) >= -1e-10 * n
        # shift the spectrum so the minimum sits at 0.5 and 2 tolerances below 0
        f = random_hermitian(group, rng)
        lam = dense_gram(GroupFunction(group=group, values=f))[1]
        for t, want in ((0.5, True), (2.0, False)):
            g = f.copy()
            g[e] -= lam + t * TOL_PSD * n
            assert is_positive_definite(GroupFunction(group=group, values=g)).feasible == want
            assert_matches_dense(g, group)
    # one element off Hermitian: the same NotHermitian as the dense check
    f = positive_type(group, rng)
    if n > 1:
        f[(e + 1) % n] += 1e-3j
        assert not dense_gram(GroupFunction(group=group, values=f))[0]
        assert_matches_dense(f, group)


def sym_min_eig(B):
    """Reference: eigvalsh of the Hermitian part (B + B^+)/2 of each block."""
    return np.linalg.eigvalsh((B + B.conj().swapaxes(-1, -2)) / 2.0)[..., 0]


def hermitian_blocks(rng, shape, d=2):
    z = rng.standard_normal((*shape, d, d)) + 1j * rng.standard_normal((*shape, d, d))
    return (z + z.conj().swapaxes(-1, -2)) / 2.0


def assert_closed_form_matches(B):
    got, want = _block_min_eig(B), sym_min_eig(B)
    assert got.shape == want.shape == B.shape[:-2]
    scale = np.abs(B).max(axis=(-1, -2), initial=0.0)
    assert np.all(np.abs(got - want) <= 4e-15 * scale), np.abs(got - want).max()


def test_closed_form_2x2_matches_eigvalsh_on_random_hermitian_batches():
    rng = np.random.default_rng(16)
    for shape in ((1, 1), (3, 5), (64, 63)):
        assert_closed_form_matches(hermitian_blocks(rng, shape))


def test_closed_form_2x2_on_a_diagonal_block_and_on_equal_diagonals():
    rng = np.random.default_rng(17)
    a, c = rng.standard_normal((2, 200))
    b = rng.standard_normal(200) + 1j * rng.standard_normal(200)
    diagonal = np.zeros((200, 2, 2), dtype=complex)
    diagonal[:, 0, 0], diagonal[:, 1, 1] = a, c
    assert_closed_form_matches(diagonal)
    assert np.allclose(_block_min_eig(diagonal), np.minimum(a, c), rtol=0, atol=1e-15)
    equal = np.stack([np.stack([a, b], -1), np.stack([b.conj(), a], -1)], -2)
    assert_closed_form_matches(equal)
    assert np.array_equal(_block_min_eig(equal), a - np.abs(b))  # hypot(0, |b|) is exact


def test_closed_form_2x2_is_zero_on_rank_one_psd_blocks():
    # v v^+ for a Pythagorean v: every step of the closed form is exact
    for v in ([3, 4], [4j, -3], [5, 12j], [0, 1], [0.0, 0.0]):
        v = np.asarray(v, dtype=complex)
        assert _block_min_eig(np.outer(v, v.conj())[None]) == [0.0]
    rng = np.random.default_rng(18)
    v = rng.standard_normal((500, 2)) + 1j * rng.standard_normal((500, 2))
    B = v[:, :, None] * v.conj()[:, None, :]
    assert_closed_form_matches(B)
    assert np.all(np.abs(_block_min_eig(B)) <= 4e-15 * np.abs(B).max(axis=(-1, -2)))


def test_closed_form_2x2_symmetrises_a_block_off_hermitian_within_tol_herm():
    rng = np.random.default_rng(19)
    B = hermitian_blocks(rng, (300,))
    B += TOL_HERM * rng.uniform(-1, 1, B.shape) * np.exp(2j * np.pi * rng.uniform(size=B.shape))
    assert_closed_form_matches(B)
    # the off-diagonal entry is the mean of B01 and conj B10, not either one alone
    skew = np.array([[[1.0, 1.0], [1.0 + 2 * TOL_HERM, 1.0]]], dtype=complex)
    assert _block_min_eig(skew) == pytest.approx(-TOL_HERM, rel=1e-6)


@pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e100, 1e152])
def test_closed_form_2x2_across_entry_scales(scale):
    # 1e152 ~ exp(350), the cap on |f| that `interpolate` puts on log-ratios
    rng = np.random.default_rng(20)
    assert_closed_form_matches(scale * hermitian_blocks(rng, (8, 63)))
    v = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    assert_closed_form_matches(scale * v[:, :, None] * v.conj()[:, None, :])


def test_closed_form_2x2_on_an_empty_batch(oracle_group):
    assert _block_min_eig(np.zeros((0, 63, 2, 2), dtype=complex)).shape == (0, 63)
    min_eig, herm_dev = gram_min_eigenvalues(oracle_group("D_128"), np.zeros((0, 256), complex))
    assert min_eig.shape == herm_dev.shape == (0,)


@pytest.mark.parametrize("name", ["D_128", "S_3", "S_5"])
def test_eigvalsh_is_reached_only_above_dimension_two(name, oracle_group, monkeypatch):
    group = oracle_group(name)
    group.irreps  # decompose before eigvalsh is watched
    seen, eigvalsh = [], np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda A: seen.append(A.shape[-1]) or eigvalsh(A))
    rng = np.random.default_rng(21)
    gram_min_eigenvalues(group, np.stack([random_hermitian(group, rng) for _ in range(3)]))
    assert seen == [d for d, _ in group.irreps.dims if d > 2]


@pytest.mark.parametrize("name", ["D_4", "Q_8", "D_128"])
def test_positive_type_from_one_two_dim_irrep_has_min_eigenvalue_zero(name, oracle_group):
    # f(k) = v^+ rho(k) v: M[g, h] = (rho(g) v)^+ (rho(h) v) is PSD of rank 2 < |G|
    group = oracle_group(name)
    rho = irreps_by_dim(group)[[d for d, _ in group.irreps.dims].index(2)][:, 0]
    rng = np.random.default_rng(22)
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    f = np.einsum("i,kij,j->k", v.conj(), rho, v)
    min_eig = assert_matches_dense(f, group)
    res = is_positive_definite(GroupFunction(group=group, values=f))
    assert res.feasible
    assert abs(res.min_gram_eigenvalue) <= 1e-10 * group.order
    assert abs(min_eig) <= 1e-10 * group.order


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_irrep_decomposition_invariants(name, oracle_group):
    group = oracle_group(name)
    n = group.order
    stacks = irreps_by_dim(group)
    assert sum(R.shape[1] * R.shape[2] ** 2 for R in stacks) == n
    chars = np.concatenate([np.trace(R, axis1=2, axis2=3).T for R in stacks])
    # Schur orthogonality: irreducible (norm n) and pairwise inequivalent
    assert np.allclose(chars @ chars.conj().T, n * np.eye(len(chars)), atol=1e-8 * n)
    for R in stacks:
        eye = np.eye(R.shape[2])
        assert np.abs(R[group.identity] - eye).max() <= 1e-10
        assert np.abs(R @ R.conj().swapaxes(2, 3) - eye).max() <= 1e-10
        # rho(a) rho(b) = rho(ab) for every pair
        hom = max(
            np.abs(np.einsum("cij,bcjk->bcik", R[a], R) - R[group.mult[a]]).max()
            for a in range(n)
        )
        assert hom <= 1e-10


def test_irrep_decomposition_is_deterministic(oracle_group):
    for name in ("S_5", "Z_2^8", "Q_8"):
        group = oracle_group(name)
        assert group.irreps is group.irreps
        fresh = build_group(group.mult.copy())
        assert fresh.irreps is not group.irreps
        assert fresh.irreps.dims == group.irreps.dims
        assert np.array_equal(fresh.irreps.matrix, group.irreps.matrix)
        f = random_hermitian(group, np.random.default_rng(5))
        first = is_positive_definite(GroupFunction(group=group, values=f))
        again = is_positive_definite(GroupFunction(group=fresh, values=f))
        assert first.min_gram_eigenvalue == again.min_gram_eigenvalue


def test_irrep_decomposition_failing_its_checks_is_a_typed_error(monkeypatch):
    # one eigenvalue of multiplicity n: a single reducible "irrep" every time
    monkeypatch.setattr(
        groups.np.linalg, "eigh", lambda H: (np.zeros(len(H)), np.eye(len(H), dtype=complex))
    )
    with pytest.raises(SelfCheckFailed):
        named_group("S_3").irreps  # abelian tables take their characters, not eigh


# Z_3 instances where |lambda_q|^M underflows a float: the Fourier weights
# must stay finite and agree with the Gram verdict (rate 2.38 here).
Z3_P, Z3_Q = (0.6, 0.3, 0.1), (0.8, 0.15, 0.05)


@pytest.mark.parametrize(
    "N, M", [(3000, 3000), (1500, 3000), (60, 60), (1000, 3000), (3000, 7500), (10**5, 2 * 10**5)]
)
def test_gram_and_fourier_agree_at_large_copy_numbers(N, M):
    z3 = named_group("Z_3")
    shape, elems = basis_elements(z3)
    dists = [ChargeDistribution(shape=shape, probs=np.array(p)) for p in (Z3_P, Z3_Q)]
    w, ok_fourier = fourier_weights(*dists, N, M)
    assert np.isfinite(w).all()
    chars = []
    for d in dists:
        vals = np.empty(3, dtype=complex)
        vals[elems] = dual_fourier(d).values
        chars.append(char_from_values(z3, vals))
    ok_gram = feasible_exact(*chars, N, M).feasible
    assert ok_fourier == ok_gram == (M / N < 2.38)


# ----------------------------------------- batched copy-number scan vs the per-N loop


def reference_min_copies(char_psi, char_phi, r, n_max):
    """The per-N loop the batched scan replaced: one `feasible_exact` per N,
    from n_max down, up to the first N that fails."""
    first = None
    for N in range(n_max, 0, -1):
        M = math.floor(r * N + 1e-12)
        if not feasible_exact(char_psi, char_phi, N, M).feasible:
            break
        first = N
    return first


RATE_FRACTIONS = (0.5, 0.9, 1.0, 1.2)


def rates(char_psi, char_phi):
    """The fractions of the exact rate the scan is checked at (of 1 when it is 0 or infinite)."""
    rep = exact_rate(char_psi, char_phi)
    R = rep.value if rep.kind == "finite" and rep.value > 0 else 1.0
    return [frac * R for frac in RATE_FRACTIONS]


def assert_scan_matches_loop(char_psi, char_phi, n_max, rows=None, extra_rates=()):
    """Same answer as the loop, with the default blocks and with blocks of `rows` rows,
    at `rates` and `extra_rates`; returns the answers."""
    n = char_psi.group.order
    answers = []
    for r in (*extra_rates, *rates(char_psi, char_phi)):
        want = reference_min_copies(char_psi, char_phi, r, n_max)
        answers.append(want)
        assert minimal_copies_search(char_psi, char_phi, r, n_max) == want, r
        if rows is not None:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(groups, "_CHUNK_BYTES", rows * n * 16)
                assert minimal_copies_search(char_psi, char_phi, r, n_max) == want, (r, rows)
    return answers


def concentrated_type(group, rng, terms=3):
    """A positive-type f whose state spans few irrep coefficients, so |f| is near 1
    on much of G, and may be 1 on a subgroup or 0 somewhere."""
    cols = rng.choice(group.order, size=terms, replace=False)
    v = group.irreps.matrix[:, cols] @ (rng.standard_normal(terms) + 1j * rng.standard_normal(terms))
    return (v.conj()[:, None] * v[group.mult]).sum(axis=0) / np.vdot(v, v).real


def test_scan_matches_loop_on_corpus_pairs(corpus):
    rng = np.random.default_rng(8)
    for name, (group, rep) in corpus.items():
        states = [random_state(rep.dim, rng) for _ in range(3)]
        states += [PureState(rep.dim, np.eye(rep.dim)[k]) for k in range(min(rep.dim, 2))]
        chars = [char_function(rep, s) for s in states]
        for i, j in itertools.permutations(range(len(chars)), 2):
            assert_scan_matches_loop(chars[i], chars[j], 40, rows=3)


@pytest.mark.parametrize("name", list(BUILT))
def test_scan_matches_loop_on_large_groups(name, oracle_group):
    group = oracle_group(name)
    rng = np.random.default_rng(group.order + 1)
    for make in (positive_type, concentrated_type):
        psi, phi = (char_from_values(group, make(group, rng)) for _ in range(2))
        assert_scan_matches_loop(psi, phi, 130)


def test_scan_counts_a_rounded_down_rate_times_n_as_its_integer(z2):
    # 0.29 * 100 = 28.999999999999996 in floats: M = 29 at N = 100, where the
    # rate 0.2899 makes the conversion infeasible
    psi, phi = chi(z2, [0.5**0.2899]), chi(z2, [0.5])
    assert 0.29 * 100 < 29
    assert minimal_copies_search(psi, phi, 0.29, 100) is None
    assert reference_min_copies(psi, phi, 0.29, 100) is None


def regular_rep(group):
    """L(g) e_h = e_{gh}."""
    n = group.order
    mats = np.zeros((n, n, n))
    mats[np.arange(n)[:, None], group.mult, np.arange(n)[None, :]] = 1.0
    return validate_projective_rep(group, mats)


SCAN_GROUPS = {name: regular_rep(named_group(name)) for name in ("S_3", "D_4", "Q_8", "Z_6")}


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(SCAN_GROUPS)),
    amps=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=32, max_size=32),
)
def test_scan_matches_loop_on_drawn_states(name, amps):
    rep = SCAN_GROUPS[name]
    n = rep.dim
    vecs = np.array(amps).reshape(2, 2, 8)[:, :, :n]
    vecs = vecs[:, 0] + 1j * vecs[:, 1]
    norms = np.linalg.norm(vecs, axis=1)
    assume(norms.min() > 0.1)
    psi, phi = (char_function(rep, PureState(n, v / nrm)) for v, nrm in zip(vecs, norms))
    assert_scan_matches_loop(psi, phi, 40, rows=3)


@pytest.mark.parametrize("name", ["Z_256", "D_128", "S_5", "Q_8"])
def test_batched_min_eigenvalues_match_feasible_exact(name, oracle_group):
    group = oracle_group(name)
    n = group.order
    rng = np.random.default_rng(n)
    psi, phi = (char_from_values(group, concentrated_type(group, rng, terms=4)) for _ in range(2))
    N = np.arange(1, 151)
    for r in rates(psi, phi)[:3]:  # r <= the exact rate: |f| <= 1
        M = np.floor(r * N + 1e-12)
        vals, violation = interpolate(psi.logmod, psi.phase, phi.logmod, phi.phase, N, M)
        min_eig, _ = gram_min_eigenvalues(group, vals)
        for k in np.flatnonzero(violation < 0):
            one = feasible_exact(psi, phi, int(N[k]), int(M[k])).min_gram_eigenvalue
            assert abs(min_eig[k] - one) <= 1e-10 * n, (r, N[k])


def index_two_indicator(group):
    """1 on the kernel of a real nontrivial character (a subgroup of index 2),
    0 elsewhere: a positive-type function, so its product with one is too."""
    d, count = group.irreps.dims[0]
    assert d == 1
    chars = group.irreps.matrix[:, :count]
    sign = next(c for c in chars.T if np.allclose(c, np.sign(c.real)) and c.real.min() < 0)
    return (sign.real > 0).astype(float)


@pytest.mark.parametrize("name", ["D_4", "Q_8", "S_3", "Z_256", "D_128", "S_5"])
def test_scan_matches_loop_where_chi_phi_vanishes(name, oracle_group):
    """chi_phi zero off a subgroup of index 2: against a psi that does not vanish
    there the answer turns on the zero-set rule and the M = 0 rows below 1 / r;
    against a psi with the same zeros, on the Gram spectrum."""
    group = oracle_group(name)
    rng = np.random.default_rng(group.order + 2)
    cut = index_two_indicator(group)
    assert 2 * cut.sum() == group.order
    psi, psi_cut, phi_cut = (
        char_from_values(group, positive_type(group, rng) * c) for c in (1.0, cut, cut)
    )
    answers = set()
    for a, b in ((psi, phi_cut), (psi_cut, phi_cut), (phi_cut, psi_cut)):
        answers.update(assert_scan_matches_loop(a, b, 60, rows=3, extra_rates=(0.0, 0.01, 0.02)))
    assert {1, None} < answers  # and some answer in between, read off the spectrum
    # r = 0.02: M = 0 up to N = 49, M = 1 above, where chi_phi^M vanishes and chi_psi^N does not
    assert minimal_copies_search(psi, phi_cut, 0.02, 49) == 1
    assert minimal_copies_search(psi, phi_cut, 0.02, 50) is None
    assert feasible_exact(psi, phi_cut, 50, 1).zero_set_witness == int(np.argmin(cut))


def test_a_non_hermitian_candidate_with_a_zero_set_violation_is_an_error():
    # f(1) != conj f(3), and chi_phi vanishes at 2 where chi_psi does not:
    # NotHermitian comes before the zero-set rule, in the loop and the scan alike
    z4 = named_group("Z_4")
    psi = char_from_values(z4, [1.0, 0.5, 0.3, 0.9])
    phi = char_from_values(z4, [1.0, 0.8, 0.0, 0.8])
    with pytest.raises(NotHermitian):
        feasible_exact(psi, phi, 1, 1)
    for rows in (None, 1):
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:
                mp.setattr(groups, "_CHUNK_BYTES", rows * 4 * 16)
            with pytest.raises(NotHermitian):
                minimal_copies_search(psi, phi, 1.0, 8)
    with pytest.raises(NotHermitian):
        reference_min_copies(psi, phi, 1.0, 8)
    # M = 0 is the trivial target: f = chi_psi^N, no violation, still not Hermitian
    with pytest.raises(NotHermitian):
        feasible_exact(psi, phi, 1, 0)


def test_scan_and_loop_both_reject_a_non_hermitian_chi():
    z3 = named_group("Z_3")
    psi = char_from_values(z3, [1.0, 0.5, 0.9])  # chi(g^-1) != conj chi(g)
    phi = char_from_values(z3, [1.0, 0.8, 0.8])
    for rows in (None, 1):
        with pytest.MonkeyPatch.context() as mp:
            if rows is not None:
                mp.setattr(groups, "_CHUNK_BYTES", rows * 3 * 16)
            with pytest.raises(NotHermitian):
                minimal_copies_search(psi, phi, 0.2, 8)
    with pytest.raises(NotHermitian):
        reference_min_copies(psi, phi, 0.2, 8)


def test_scan_memory_stays_bounded_at_the_largest_size(oracle_group):
    group = oracle_group("Z_256")
    rng = np.random.default_rng(3)
    psi, phi = (char_from_values(group, concentrated_type(group, rng, terms=4)) for _ in range(2))
    r = 0.9 * exact_rate(psi, phi).value
    group.irreps  # the cached basis belongs to the group, not to the search
    tracemalloc.start()
    try:
        found = minimal_copies_search(psi, phi, r, MAX_SEARCH_COPIES)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert found is not None
    assert feasible_exact(psi, phi, found, math.floor(r * found + 1e-12)).feasible
    if found > 1:
        assert not feasible_exact(psi, phi, found - 1, math.floor(r * (found - 1) + 1e-12)).feasible
