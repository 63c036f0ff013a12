import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from asym import (
    approx_rate_class,
    build_group,
    char_from_values,
    char_function,
    classify_sets,
    copies_bound,
    charge_distribution,
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
    _block_min_eig,
    _log_ratio,
    _polar,
    _settle,
    gram_min_eigenvalues,
    interpolate,
)
from corpus import GROUP_NAMES, gauged_rep, random_state
from asym.errors import DomainError, NotHermitian, SelfCheckFailed
from asym.groups import PureState
from asym.tolerances import TOL_FLOOR, TOL_HERM, TOL_PSD


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
    assert np.allclose(f, [1.0, 0.6], atol=1e-14)


def test_interpolator_zero_over_zero_is_zero(z2):
    f = feasible_exact(chi(z2, [0.0]), chi(z2, [0.0]), 1, 1).f
    assert f[1] == 0.0


def test_interpolator_zero_set_violation(z2):
    # chi_phi vanishes where chi_psi does not: no interpolator, an infeasible verdict
    res = feasible_exact(chi(z2, [0.5]), chi(z2, [0.0]), 1, 1)
    assert res.feasible is False
    assert res.zero_set_witness == 1
    assert res.f[1] == 0.0 and np.isfinite(res.min_gram_eigenvalue)
    assert feasible_exact(chi(z2, [0.5]), chi(z2, [0.8]), 1, 1).zero_set_witness is None


def test_gram_matrix_matches_brute_force(z3, rng):
    vals = np.array([1.0, 0.4 + 0.2j, 0.4 - 0.2j])
    res = is_positive_definite(z3, vals)
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
        res = is_positive_definite(z3, np.array([1.0, t, t]))
        assert res.min_gram_eigenvalue == pytest.approx(min(1 + 2 * t, 1 - t), abs=1e-12)
        assert res.feasible == (t >= -0.5)


def test_non_hermitian_function_rejected(z3):
    # Hermitian Gram needs f(g^-1) = conj(f(g)); 0.9 != 0.5 breaks it
    with pytest.raises(NotHermitian):
        is_positive_definite(z3, np.array([1.0, 0.5, 0.9]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_function_rejected(z3, bad):
    # no min eigenvalue is computed, so no NaN can pass as a verdict
    with pytest.raises(NotHermitian):
        is_positive_definite(z3, np.array([1.0, bad, bad]))


def test_modulus_witness_reported(z2):
    res = is_positive_definite(z2, np.array([1.0, 1.5]))
    assert not res.feasible
    assert res.modulus_witness == 1


@pytest.mark.parametrize(
    "excess, feasible, witness",
    [(1.5e-9, True, None), (3e-9, False, None), (5e-9, False, 1)],
)
def test_modulus_witness_only_where_a_minor_proves_infeasibility(z2, excess, feasible, witness):
    # |f(1)| = 1 + excess gives min eigenvalue -excess against the cut -2e-9;
    # the 2 x 2 minor proves infeasibility once |f(1)| (1 - 2e-9) > 1 + 2e-9,
    # about excess > 4e-9. At 1.5e-9 the verdict was feasible with witness 1.
    psi = char_from_values(z2, [1.0, 0.5 * (1.0 + excess)])
    res = feasible_exact(psi, char_from_values(z2, [1.0, 0.5]), 1, 1)
    assert res.min_gram_eigenvalue == pytest.approx(-excess, rel=1e-6)
    assert (res.feasible, res.modulus_witness) == (feasible, witness)


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
    f1 = np.array([1.0, t1, t1])
    f2 = np.array([1.0, t2, t2])
    assert is_positive_definite(z3, f1).feasible
    assert is_positive_definite(z3, f2).feasible
    assert is_positive_definite(z3, f1 * f2).feasible


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


def test_minimal_copies_at_a_huge_rate_is_an_error_without_warnings(z2):
    # M = floor(r N) near the float limit: |f| reaches the 350 cap. With a
    # phase of pi, f on the involution takes its sign from the parities of N
    # and M, so it stays real and the verdict is infeasible, as in the per-N
    # loop; beyond MAX_COPIES the target copy number itself is refused
    psi, phi = chi(z2, [-0.6]), chi(z2, [-0.8])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert minimal_copies_search(chi(z2, [0.6]), chi(z2, [0.8]), 1e306, 20) is None
        assert minimal_copies_search(psi, phi, 1e306, 20) is None
        assert reference_min_copies(psi, phi, 1e306, 20) is None
    with pytest.raises(DomainError, match="copy number"):
        minimal_copies_search(psi, phi, 2.5e307, 20)


# ------------------------------------- block-spectral oracle vs the dense Gram


def dense_gram(group, values):
    """Reference oracle: eigvalsh of the full n x n Gram matrix M[g, h] = f(g^-1 h)
    of f = values.

    Returns (hermitian, min_eig, feasible, modulus_witness); min_eig and
    feasible are None when M is not Hermitian. The witness is the smallest
    k != e with |f(k)| (1 - TOL_PSD n) > Re f(e) + TOL_PSD n: the 2 x 2
    principal minor at rows (g, g k) then proves the minimum below the cut.
    """
    n = group.order
    M = values[group.mult[group.inv, :]]
    herm_dev = float(np.abs(M - M.conj().T).max())
    scale = max(1.0, float(np.abs(values).max()))
    off = np.arange(n) != group.identity
    over = np.flatnonzero(off & (np.abs(values) * (1 - TOL_PSD * n) > values[group.identity].real + TOL_PSD * n))
    witness = int(over[0]) if over.size else None
    if herm_dev > TOL_HERM * scale:
        return False, None, None, witness
    min_eig = float(np.linalg.eigvalsh((M + M.conj().T) / 2.0)[0])
    return True, min_eig, min_eig >= -TOL_PSD * n, witness


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
    hermitian, min_eig, feasible, witness = dense_gram(group, values)
    if not hermitian:
        with pytest.raises(NotHermitian):
            is_positive_definite(group, values)
        return None
    res = is_positive_definite(group, values)
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
        lam = dense_gram(group, f)[1]
        for t, want in ((0.5, True), (2.0, False)):
            g = f.copy()
            g[e] -= lam + t * TOL_PSD * n
            assert is_positive_definite(group, g).feasible == want
            assert_matches_dense(g, group)
    # one element off Hermitian: the same NotHermitian as the dense check
    f = positive_type(group, rng)
    if n > 1:
        f[(e + 1) % n] += 1e-3j
        assert not dense_gram(group, f)[0]
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
    min_eig = gram_min_eigenvalues(oracle_group("D_128"), np.zeros((0, 256), complex))
    assert min_eig.shape == (0,)


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
    res = is_positive_definite(group, f)
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
        first = is_positive_definite(group, f)
        again = is_positive_definite(fresh, f)
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


def assert_hermitian_bit_for_bit(char):
    """chi(g^-1) = conj chi(g) in (logmod, phase) form: the same log-modulus,
    the negated phase off the involutions, and a phase of 0 or pi on them."""
    inv = char.group.inv
    own = inv == np.arange(char.group.order)
    assert np.array_equal(char.logmod[inv], char.logmod)
    assert np.array_equal(char.phase[inv][~own], -char.phase[~own])
    assert np.isin(char.phase[own], [0.0, np.pi]).all()


def test_scan_matches_loop_on_the_drawn_pair_that_raised_not_hermitian():
    # Hypothesis seed 0's D_4 pair: |chi_phi| is about 1e-9 at some g. When
    # chi(g) and chi(g^-1) came from separate sums their phases differed by
    # about 1e-8 rad, and f = chi_psi^N / chi_phi^M multiplied that by M until
    # feasible_exact raised NotHermitian. chi(g^-1) = conj chi(g) now holds
    # bit for bit on this linear rep
    rep = SCAN_GROUPS["D_4"]
    psi = np.zeros(8, dtype=complex)
    psi[[1, 5, 6]] = 1j
    phi = np.array([0, 1, 0, 1 + 1j, 0, 1j, 0, 1e-9])
    chars = [char_function(rep, PureState(8, v / np.linalg.norm(v))) for v in (psi, phi)]
    for char in chars:
        assert_hermitian_bit_for_bit(char)
    assert np.exp(chars[1].logmod).min() < 1e-8
    assert_scan_matches_loop(*chars, 40, rows=3)


@pytest.mark.parametrize(
    "name", [n for n in ORACLE_GROUPS if n not in ("Z_256", "Z_2^8", "Z_16xZ_16", "D_128")]
)
def test_regular_reps_are_linear(name, oracle_group):
    # the groups of order 256 are left out: a regular rep takes 268 MB as complex
    rep = regular_rep(oracle_group(name))
    assert rep.linear and char_function(rep, random_state(rep.dim, np.random.default_rng(1))).linear


@pytest.mark.parametrize("label", ["iZ", "Z_3"])
def test_the_gram_view_refuses_a_non_linear_rep(label, corpus):
    """A rep gauge-equivalent to a linear one (`corpus.gauged_rep`): the Gram
    view refuses it, whatever N and M, while what reads |chi| alone, or
    gauges the rep itself, gives the linear rep's answers."""
    rep = gauged_rep(label)
    linear = corpus[rep.group.name][1]
    rng = np.random.default_rng(7)
    for _ in range(5):
        states = [random_state(rep.dim, rng) for _ in range(2)]
        psi, phi = (char_function(rep, s) for s in states)
        lpsi, lphi = (char_function(linear, s) for s in states)
        assert not (rep.linear or psi.linear) and linear.linear and lpsi.linear
        for a, b in ((psi, phi), (lpsi, phi), (psi, lphi)):
            for N, M in ((1, 0), (1, 1), (2, 1), (2, 2), (3, 2)):
                with pytest.raises(DomainError, match="linear"):
                    feasible_exact(a, b, N, M)
            with pytest.raises(DomainError, match="linear"):
                minimal_copies_search(a, b, 1.0, 8)
        got, want = exact_rate(psi, phi), exact_rate(lpsi, lphi)
        assert got.value == pytest.approx(want.value, rel=1e-12)
        assert (got.kind, got.witness, got.excluded) == (want.kind, want.witness, want.excluded)
        got, want = approx_rate_class(psi, phi), approx_rate_class(lpsi, lphi)
        assert got.s == pytest.approx(want.s, rel=1e-12)
        assert (got.classification, got.sym_psi, got.sym_phi) == (
            want.classification, want.sym_psi, want.sym_phi)
        for s in states:
            assert np.abs(charge_distribution(rep, s).probs
                          - charge_distribution(linear, s).probs).max() < 1e-12


@pytest.mark.parametrize("name", sorted(SCAN_GROUPS))
def test_chi_is_hermitian_bit_for_bit_on_a_linear_rep(name, rng):
    rep = SCAN_GROUPS[name]
    assert rep.linear
    for _ in range(20):
        state = random_state(rep.dim, rng)
        char = char_function(rep, state)
        assert_hermitian_bit_for_bit(char)
        psi = state.amplitudes  # one sum per element, as before the pairing
        plain = np.einsum("i,gij,j->g", psi.conj(), rep.matrices, psi)
        assert np.abs(char.values() - plain).max() < 1e-15


@pytest.mark.parametrize("name", ["Z_256", "D_128", "S_5", "Q_8"])
def test_batched_min_eigenvalues_match_feasible_exact(name, oracle_group):
    group = oracle_group(name)
    n = group.order
    rng = np.random.default_rng(n)
    psi, phi = (char_from_values(group, concentrated_type(group, rng, terms=4)) for _ in range(2))
    N = np.arange(1, 151)
    for r in rates(psi, phi)[:3]:  # r <= the exact rate: |f| <= 1
        M = np.floor(r * N + 1e-12)
        vals, violation = interpolate(
            (psi.logmod, psi.phase, psi.zero), (phi.logmod, phi.phase, phi.zero), N, M, group.inv
        )
        min_eig = gram_min_eigenvalues(group, vals)
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
    # chi(1) != conj chi(3): no linear rep has this chi, so char_from_values
    # refuses it, before the zero-set rule or the Gram test could see it
    z4 = named_group("Z_4")
    with pytest.raises(NotHermitian):
        char_from_values(z4, [1.0, 0.5, 0.3, 0.9])
    # made Hermitian, the same pair meets the zero-set rule at 2
    psi, phi = (char_from_values(z4, v) for v in ([1.0, 0.5, 0.3, 0.5], [1.0, 0.8, 0.0, 0.8]))
    assert feasible_exact(psi, phi, 1, 1).zero_set_witness == 2


def test_scan_and_loop_both_reject_a_non_hermitian_chi():
    # chi(g^-1) != conj chi(g): refused where it is built, so neither the scan
    # nor the per-N loop meets it; so is a value that is not finite
    z3 = named_group("Z_3")
    for bad in ([1, 0.5, 0.9], [1, 0.5 + 1e-7j, 0.5], [1, np.nan, np.nan], [1, np.inf, 0.5]):
        with pytest.raises(NotHermitian):
            char_from_values(z3, bad)
    # within TOL_HERM the values pass, and are stored Hermitian bit for bit
    char = char_from_values(z3, [1.0, 0.5 + 1e-9j, 0.5])
    assert char.linear
    assert_hermitian_bit_for_bit(char)


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


# ------------------------------------------ rows settled from |f| alone (`_settle`)


def settle(char_psi, char_phi, r, N):
    """The scan's certificate on the rows N (ints) at rate r: (M, settled feasible,
    settled infeasible), one entry per row."""
    N = np.asarray(N, dtype=float)[:, None]
    M = np.floor(r * N + TOL_FLOOR)
    dlog, violation = _log_ratio(_polar(char_psi), _polar(char_phi), N, M)
    feasible, infeasible = _settle(char_psi.group, dlog, violation)
    return M[:, 0].astype(int), feasible, infeasible


def assert_settled_rows_agree(char_psi, char_phi, n_max, extra_rates=()):
    """Every row the certificate settles gets its verdict from `feasible_exact`;
    returns how many rows it settled feasible and infeasible."""
    counts = np.zeros(2, dtype=int)
    N = np.arange(1, n_max + 1)
    for r in (*extra_rates, *rates(char_psi, char_phi)):
        M, feasible, infeasible = settle(char_psi, char_phi, r, N)
        assert not (feasible & infeasible).any()
        for k in np.flatnonzero(feasible | infeasible):
            got = feasible_exact(char_psi, char_phi, int(N[k]), int(M[k])).feasible
            assert got == feasible[k], (r, N[k], M[k])
        counts += feasible.sum(), infeasible.sum()
    return counts


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(SCAN_GROUPS)),
    amps=st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=32, max_size=32),
)
def test_settled_rows_get_the_verdict_of_feasible_exact_on_drawn_states(name, amps):
    rep = SCAN_GROUPS[name]
    n = rep.dim
    vecs = np.array(amps).reshape(2, 2, 8)[:, :, :n]
    vecs = vecs[:, 0] + 1j * vecs[:, 1]
    norms = np.linalg.norm(vecs, axis=1)
    assume(norms.min() > 0.1)
    psi, phi = (char_function(rep, PureState(n, v / nrm)) for v, nrm in zip(vecs, norms))
    assert_settled_rows_agree(psi, phi, 40)


@pytest.mark.parametrize("name", list(BUILT))
def test_settled_rows_get_the_verdict_of_feasible_exact_on_large_groups(name, oracle_group):
    group = oracle_group(name)
    rng = np.random.default_rng(group.order + 3)
    counts = np.zeros(2, dtype=int)
    for make in (positive_type, concentrated_type):
        psi, phi = (char_from_values(group, make(group, rng)) for _ in range(2))
        counts += assert_settled_rows_agree(psi, phi, 60)
    assert counts.min() > 0, counts  # both ways, on every group


@pytest.mark.parametrize("name", ["D_4", "Q_8", "S_3", "Z_256", "D_128", "S_5"])
def test_settled_rows_agree_where_chi_phi_vanishes(name, oracle_group):
    # chi_phi zero off a subgroup of index 2: rows with M > 0 against a psi
    # without those zeros are settled infeasible by the zero-set rule
    group = oracle_group(name)
    rng = np.random.default_rng(group.order + 4)
    cut = index_two_indicator(group)
    psi, phi_cut = (char_from_values(group, positive_type(group, rng) * c) for c in (1.0, cut))
    M, feasible, infeasible = settle(psi, phi_cut, 0.02, np.arange(1, 61))
    assert infeasible[M > 0].all() and not feasible[M > 0].any()
    assert_settled_rows_agree(psi, phi_cut, 60, extra_rates=(0.0, 0.02))


def test_a_non_hermitian_chi_that_gershgorin_would_settle_still_raises():
    # chi(g^-1) = chi(g) rather than its conjugate: moduli agree, phases do
    # not. |f| would be small enough for Gershgorin to settle every row
    # feasible, but char_from_values refuses the chi, so no row is settled
    z3 = named_group("Z_3")
    with pytest.raises(NotHermitian):
        char_from_values(z3, [1.0, 0.1 * np.exp(0.3j), 0.1 * np.exp(0.3j)])


def test_a_modulus_within_the_margin_is_left_to_the_gram_test(z2):
    # |f(1)| = 1 + TOL_PSD: the Gram minimum 1 - |f(1)| = -TOL_PSD is inside
    # the cut -TOL_PSD |G|, so the row is feasible and must not be settled
    # infeasible; a modulus above 1 by the margin is
    phi = chi(z2, [0.5])
    for excess, want in ((1, True), (5, False)):
        psi = chi(z2, [0.5 * (1 + excess * TOL_PSD)])
        assert feasible_exact(psi, phi, 1, 1).feasible is want
        _, feasible, infeasible = settle(psi, phi, 1.0, [1])
        assert (feasible[0], infeasible[0]) == (False, not want)
        assert minimal_copies_search(psi, phi, 1.0, 1) == (1 if want else None)


@pytest.mark.parametrize("name", ["S_3", "D_4", "Q_8", "S_5", "A_5", "D_128"])
def test_rows_from_the_copies_bound_on_are_settled_feasible(name, oracle_group):
    """sym(phi) = {e} and no zeros of chi_phi: from N = copies_bound(r) on,
    |f| <= s^N <= |G|^-2 off e, so the off-diagonal sum is below 1."""
    group = oracle_group(name)
    rng = np.random.default_rng(group.order + 5)
    psi, phi = (char_from_values(group, positive_type(group, rng)) for _ in range(2))
    sets = classify_sets(phi)
    assert sets.sym == {group.identity} and not sets.zero
    for r in rates(psi, phi)[:2]:
        b = copies_bound(psi, phi, r)
        M, feasible, infeasible = settle(psi, phi, r, np.arange(b, b + 200))
        assert feasible.all() and not infeasible.any(), (r, b)
