import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asym import (
    abelian_basis,
    groups,
    build_group,
    char_from_values,
    char_function,
    charge_distribution,
    dual_fourier,
    feasible_exact,
    fourier_weights,
    named_group,
    shift_canonicalize,
)
from asym import abelian
from asym.abelian import ChargeDistribution, basis_elements
from corpus import (built_group, concentrated_type, corpus_rep, product_rep, random_distribution,
                    random_state, relabel, z2_population_state)
from asym.errors import (
    DomainError,
    NotSimultaneouslyDiagonalizable,
    SelfCheckFailed,
    ShapeMismatch,
)
from asym.groups import MAX_ORDER, ProjectiveRep, PureState
from asym.tolerances import TOL_CHARGE, TOL_PSD, TOL_SELF
from reference import fft_label_weights, fourier_blocks, interpolator, irrep_matrix
from reference import dense_gram, k_rows, subgroup_closure


def dist(shape, probs):
    return ChargeDistribution(shape=tuple(shape), probs=np.asarray(probs, dtype=float))


def test_abelian_basis_cyclic():
    basis = abelian_basis(named_group("Z_4"))
    assert [t for _, t in basis] == [4]
    basis = abelian_basis(named_group("Z_2xZ_3"))
    assert [t for _, t in basis] == [6]  # an order-6 element exists


def test_abelian_basis_klein_four():
    basis = abelian_basis(named_group("Z_2xZ_2"))
    assert [t for _, t in basis] == [2, 2]


@pytest.mark.parametrize("name", ["Z_2", "Z_3", "Z_4", "Z_2xZ_2", "Z_2xZ_3"])
def test_basis_elements_bijection(name):
    group = named_group(name)
    shape, elems = basis_elements(group)
    assert int(np.prod(shape)) == group.order
    assert sorted(elems.tolist()) == list(range(group.order))


def test_charge_distribution_z2_population():
    rep = corpus_rep("Z_2")
    d = charge_distribution(rep, z2_population_state(0.8))
    assert d.shape == (2,)
    assert np.allclose(sorted(d.probs), [0.2, 0.8], atol=1e-12)


def test_charge_distribution_z4_basis_state():
    rep = corpus_rep("Z_4")
    from asym.groups import PureState

    d = charge_distribution(rep, PureState(4, np.array([0, 0, 1.0, 0])))
    # an eigenvector concentrates all weight in one sector
    assert np.allclose(sorted(d.probs), [0, 0, 0, 1], atol=1e-12)


@pytest.mark.parametrize("name", ["Z_2", "Z_3", "Z_4", "Z_2xZ_2"])
def test_dual_fourier_reproduces_characteristic_function(name, rng):
    """Cross-module identity: the dual coefficients at label a equal
    chi(g_a) for the corresponding basis element."""
    group = named_group(name)
    rep = corpus_rep(name)
    shape, elems = basis_elements(group)
    state = random_state(rep.dim, rng)
    chi = char_function(rep, state).values()
    lam = dual_fourier(charge_distribution(rep, state)).values
    assert np.allclose(lam, chi[elems], atol=1e-10)


def test_dual_fourier_z2_values():
    lam = dual_fourier(dist((2,), [0.8, 0.2])).values
    assert np.allclose(lam, [1.0, 0.6], atol=1e-14)


def test_fourier_weights_identity_conversion():
    p = dist((4,), [0.4, 0.3, 0.2, 0.1])
    w, ok = fourier_weights(p, p, 1, 1)
    assert ok
    assert np.allclose(w, [1.0, 0, 0, 0], atol=1e-12)


def test_fourier_weights_z2_examples():
    strong = dist((2,), [0.9, 0.1])  # lambda_1 = 0.8
    weak = dist((2,), [0.75, 0.25])  # lambda_1 = 0.5
    w, ok = fourier_weights(weak, strong, 1, 1)
    assert ok
    assert np.allclose(w, [0.8125, 0.1875], atol=1e-12)
    w, ok = fourier_weights(strong, weak, 1, 1)
    assert not ok
    assert np.allclose(w, [1.3, -0.3], atol=1e-12)


def test_fourier_weights_zero_set_rule():
    flat = dist((2,), [0.5, 0.5])  # lambda_1 = 0 exactly
    biased = dist((2,), [0.8, 0.2])
    _, ok = fourier_weights(biased, flat, 1, 1)
    assert not ok
    _, ok = fourier_weights(flat, biased, 1, 1)
    assert ok
    # phi^0 is the trivial state, which has no zeros: always reachable
    _, ok = fourier_weights(biased, flat, 1, 0)
    assert ok


@pytest.mark.parametrize("name", ["Z_3", "Z_4", "Z_2xZ_2"])
@pytest.mark.parametrize("NM", [(1, 1), (2, 1), (3, 4)])
def test_fourier_oracle_agrees_with_gram_oracle(name, NM, rng):
    """The abelian Fourier test and the general Gram test must decide every
    instance identically, and |G| * w equals the Gram spectrum."""
    N, M = NM
    group = named_group(name)
    shape, elems = basis_elements(group)
    n = group.order
    for _ in range(25):
        p = random_distribution(shape, rng)
        q = random_distribution(shape, rng)
        w, ok_fourier = fourier_weights(dist(shape, p), dist(shape, q), N, M)

        chi_of = {}
        for label, lam in (("p", dual_fourier(dist(shape, p)).values),
                           ("q", dual_fourier(dist(shape, q)).values)):
            vals = np.empty(n, dtype=complex)
            vals[elems] = lam
            chi_of[label] = char_from_values(group, vals)
        gram = feasible_exact(chi_of["p"], chi_of["q"], N, M)
        assert gram.feasible == ok_fourier
        # spectrum identity: Gram eigenvalues are |G| * w (any feasibility)
        lam_p = dual_fourier(dist(shape, p)).values
        lam_q = dual_fourier(dist(shape, q)).values
        if np.abs(lam_q).min() > 1e-8:
            f_vals = np.empty(n, dtype=complex)
            f_vals[elems] = lam_p**N / lam_q**M
            assert np.allclose(dense_gram(group, f_vals), np.sort(n * w), atol=1e-7)


def test_shift_canonicalize_recenters_support():
    # support {1, 3} in Z_4: dual coefficients (1, 0, -1, 0) have a unit
    # modulus entry equal to -1; the shift makes it exactly 1
    d = dist((4,), [0.0, 0.5, 0.0, 0.5])
    lam = dual_fourier(d).values
    assert np.allclose(lam, [1, 0, -1, 0], atol=1e-12)
    out = shift_canonicalize(d)
    lam2 = dual_fourier(out).values
    assert np.allclose(lam2, [1, 0, 1, 0], atol=1e-12)
    assert np.allclose(sorted(out.probs), sorted(d.probs), atol=1e-15)


def test_shift_canonicalize_noop_on_centered():
    d = dist((3,), [0.5, 0.25, 0.25])
    out = shift_canonicalize(d)
    assert np.allclose(out.probs, d.probs, atol=1e-15)


def turned_unit_coefficient(monkeypatch, index, angle):
    """`dual_fourier` as `shift_canonicalize` reads it, with the coefficient
    at index turned by angle radians."""
    real = abelian.dual_fourier

    def turned(d):
        lam = real(d).values.copy()
        lam[index] *= np.exp(1j * angle)
        return abelian.DualCoefficients(values=lam)

    monkeypatch.setattr(abelian, "dual_fourier", turned)


def test_shift_canonicalize_self_check_cuts_at_tol_self(monkeypatch):
    # Z_4 with p on {1, 3}: after the shift lambda_2 = 1, of unit modulus.
    # Turned by 1e-6 rad it is 1e-6 from 1: well past TOL_SELF (1e-8), but
    # inside the rtol of 1e-5 that a default np.allclose would add
    d = dist((4,), [0.0, 0.5, 0.0, 0.5])
    turned_unit_coefficient(monkeypatch, 2, 1e-6)
    with pytest.raises(SelfCheckFailed):
        shift_canonicalize(d)
    monkeypatch.undo()
    turned_unit_coefficient(monkeypatch, 2, 0.5 * TOL_SELF)  # within the cut
    assert np.array_equal(shift_canonicalize(d).probs, [0.5, 0.0, 0.5, 0.0])
    monkeypatch.undo()
    turned_unit_coefficient(monkeypatch, 2, 2.0 * TOL_SELF)
    with pytest.raises(SelfCheckFailed):
        shift_canonicalize(d)


@pytest.mark.parametrize("shape", [(2,) * 8, (16, 16), (3, 2), (256,)])
def test_shift_canonicalize_is_np_roll_bit_for_bit(shape):
    """The one gather of the flat probabilities is `np.roll` of the grid by
    minus the first support label, for every label first: random weights
    on the labels from k on, and on the coset k + H of the labels whose
    first entry is even (the unit coefficient at a = (t_0/2, 0, ...) when
    t_0 is even)."""
    rng = np.random.default_rng(len(shape))
    n = math.prod(shape)
    labels = np.array(list(np.ndindex(*shape)))
    even = labels[:, 0] % 2 == 0
    for k in range(n):
        tail = np.where(np.arange(n) >= k, rng.uniform(0.1, 1.0, n), 0.0)
        coset = np.zeros(n)
        coset[np.ravel_multi_index(((labels[even] + labels[k]) % shape).T, shape)] = rng.uniform(
            0.1, 1.0, even.sum())
        for probs in (tail, coset):
            d = dist(shape, probs / probs.sum())
            first = np.argwhere(d.grid() > TOL_CHARGE)[0]
            want = np.roll(d.grid(), tuple(-int(j) for j in first), axis=tuple(range(len(shape))))
            assert shift_canonicalize(d).probs.tobytes() == want.ravel().tobytes(), (k, first)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_dual_fourier_structural_properties(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    raw = data.draw(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=n, max_size=n)
    )
    p = np.array(raw) / np.sum(raw)
    lam = dual_fourier(dist((n,), p)).values
    assert lam[0] == pytest.approx(1.0, abs=1e-12)
    assert np.all(np.abs(lam) <= 1.0 + 1e-12)
    # conjugate symmetry lambda_{n-a} = conj(lambda_a)
    assert np.allclose(lam[1:], np.conj(lam[1:][::-1]), atol=1e-12)
    # round trip back to probabilities
    back = np.fft.fft(lam) / n
    assert np.allclose(back.real, p, atol=1e-12)


# ------------------------------------------------- references: the former loops


def ref_abelian_basis(group):
    """The former greedy decomposition, one element and one coset at a time."""
    n, e = group.order, group.identity
    H = frozenset({e})
    basis = []
    while len(H) < n:
        best_g, best_t = None, 0
        for g in range(n):
            if g in H:
                continue
            x, t = g, 1
            while x not in H:
                x = int(group.mult[x, g])
                t += 1
            if t > best_t:
                best_g, best_t = g, t
        for h in sorted(H):
            cand = int(group.mult[best_g, h])
            x = e
            for _ in range(best_t):
                x = int(group.mult[x, cand])
            if x == e:
                break
        basis.append((cand, best_t))
        H = subgroup_closure(group, set(H) | {cand})
    return basis


def ref_label_map(group, basis):
    """The former label -> element loop over the grid of a given basis."""
    shape = tuple(t for _, t in basis) if basis else (1,)
    elems = np.empty(shape, dtype=np.intp)
    for k in itertools.product(*[range(t) for t in shape]):
        x = group.identity
        for (g, _), kj in zip(basis, k):
            for _ in range(kj):
                x = int(group.mult[x, g])
        elems[k] = x
    return shape, elems.ravel()


def ref_charge_distribution(rep, state):
    """The former sector weights: spectral projectors summed over every power
    of each gauged generator, refined subspace by subspace with an SVD."""
    basis = ref_abelian_basis(rep.group)
    d = rep.dim
    gauged = []
    for (g, t) in basis:
        U = rep.matrices[g]
        z = np.linalg.matrix_power(U, t)[0, 0]
        gauged.append(U * np.exp(-1j * np.angle(z) / t))
    subspaces = [(np.eye(d, dtype=complex), ())]
    for (g, t), U in zip(basis, gauged):
        pows = [np.eye(d, dtype=complex)]
        for _ in range(t - 1):
            pows.append(pows[-1] @ U)
        refined = []
        for B, lab in subspaces:
            for k in range(t):
                P = sum(np.exp(-2j * np.pi * k * s / t) * pows[s] for s in range(t)) / t
                u, sv, _ = np.linalg.svd(P @ B, full_matrices=False)
                Q = u[:, sv > 1e-8]
                if Q.shape[1]:
                    refined.append((Q, lab + (k,)))
        subspaces = refined
    shape = tuple(t for _, t in basis) if basis else (1,)
    probs = np.zeros(shape)
    for B, lab in subspaces:
        probs[lab if lab else (0,)] = float(np.linalg.norm(B.conj().T @ state.amplitudes) ** 2)
    return shape, (probs / probs.sum()).ravel()


# ------------------------------------------------- new paths against the references


@pytest.mark.parametrize(
    "moduli, d, theta",
    [
        ((256,), 16, None),
        ((2,) * 8, 16, None),
        ((16, 16), 32, None),
        ((64,), 64, None),
        ((256,), 16, (0.3,)),
        ((2,) * 8, 16, (0.4, 1.1, 0.2, 2.0, 0.7, 0.5, 1.3, 0.9)),
        ((6, 4), 8, (0.25, 1.7)),
        # orders off the powers of two: the doubling is truncated at t
        ((3,), 4, None),
        ((5,), 6, None),
        ((12,), 8, None),
        ((3, 5), 8, None),
        ((255,), 8, None),  # every bit of t set
        ((3,), 4, (0.7,)),
        ((5,), 6, (1.9,)),
        ((3, 3), 6, (0.4, 2.2)),
        ((255,), 8, (0.3,)),
        ((1,), 3, None),  # no basis generator: one label
    ],
    ids=["Z_256", "Z_2^8", "Z_16xZ_16", "Z_64", "Z_256-gauged", "Z_2^8-gauged", "Z_6xZ_4-gauged",
         "Z_3", "Z_5", "Z_12", "Z_3xZ_5", "Z_255", "Z_3-gauged", "Z_5-gauged", "Z_3xZ_3-gauged",
         "Z_255-gauged", "Z_1"],
)
def test_charge_distribution_matches_subspace_reference(moduli, d, theta, rng):
    rep = product_rep(moduli, d, rng, theta)
    if theta is not None:
        g, t = abelian_basis(rep.group)[0]
        z = np.linalg.matrix_power(rep.matrices[g], t)[0, 0]
        assert abs(z - 1.0) > 1e-3  # the gauge is exercised
    for _ in range(2):
        state = random_state(d, rng)
        shape, ref = ref_charge_distribution(rep, state)
        got = charge_distribution(rep, state)
        assert got.shape == shape
        assert np.abs(got.probs - ref).max() <= 1e-12


def count_gauge_squarings(monkeypatch):
    """The (t, g) of each `groups._gauge_squarings` call from now on."""
    calls = []
    squarings = groups._gauge_squarings
    monkeypatch.setattr(groups, "_gauge_squarings", lambda *a: calls.append(a[1:]) or squarings(*a))
    return calls


def test_the_gauge_squarings_are_computed_once_per_rep(monkeypatch, rng):
    calls = count_gauge_squarings(monkeypatch)
    rep = product_rep((6, 4), 8, rng, (0.25, 1.7))
    basis = abelian_basis(rep.group)
    for _ in range(3):
        charge_distribution(rep, random_state(8, rng))
    assert calls == [(t, g) for g, t in basis]
    kept = rep.gauge_squarings
    assert [len(S) for S in kept] == [t.bit_length() for _, t in basis]
    assert not any(S.flags.writeable for S in kept)
    for (g, t), S in zip(basis, kept):  # (V^(2^j))^T, and V^t = I
        V = S[0].T
        assert all(np.allclose(S[j].T, np.linalg.matrix_power(V, 2**j)) for j in range(len(S)))
        assert np.allclose(np.linalg.matrix_power(V, t), np.eye(8))


def test_a_failed_gauge_check_keeps_nothing(monkeypatch):
    calls = count_gauge_squarings(monkeypatch)
    rep = ProjectiveRep(
        group=named_group("Z_2"),
        dim=2,
        matrices=np.array([np.eye(2), np.diag([1.0, 1j])], dtype=complex),
    )
    for attempt in range(1, 4):
        with pytest.raises(NotSimultaneouslyDiagonalizable, match="not a phase multiple"):
            charge_distribution(rep, PureState(2, np.array([1.0, 0.0])))
        assert len(calls) == attempt
        assert "gauge_squarings" not in rep.__dict__


ABELIAN_NAMES = ["Z_1", "Z_2", "Z_3", "Z_4", "Z_2xZ_2", "Z_2xZ_3", "Z_12", "Z_6xZ_4",
                 "Z_2xZ_2xZ_2xZ_2", "Z_3xZ_3xZ_3", "Z_4xZ_2xZ_6", "Z_64", "Z_8xZ_8"]


@pytest.mark.parametrize("name", ABELIAN_NAMES)
def test_decomposition_matches_reference_loops(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    named = named_group(name)
    relabelled = (build_group(relabel(named.mult, rng.permutation(named.order))) for _ in range(5))
    for group in [named, *relabelled]:
        ref = ref_abelian_basis(group)
        basis = abelian_basis(group)
        assert basis == ref
        assert all(type(g) is int and type(t) is int for g, t in basis)
        shape, elems = basis_elements(group)
        ref_shape, ref_elems = ref_label_map(group, ref)
        assert shape == ref_shape
        assert elems.dtype == np.intp and np.array_equal(elems, ref_elems)


@pytest.mark.parametrize("NM", [1, 10, 1000])
def test_fourier_view_agrees_with_gram_on_unnormalized_input(NM):
    """Probabilities that the distribution gate accepts but that sum to
    1 + 5e-9: lambda(0) is pinned to 1 on both views, so they agree."""
    group = named_group("Z_2")
    p = dist((2,), [0.75, 0.25 + 5e-9])
    q = dist((2,), [0.9, 0.1])
    w, ok_fourier = fourier_weights(p, q, NM, NM)
    chars = [char_from_values(group, dual_fourier(x).values) for x in (p, q)]
    gram = feasible_exact(*chars, NM, NM)
    assert ok_fourier == gram.feasible
    assert ok_fourier
    assert abs(w.sum() - 1.0) <= 1e-15


# ------------------------------------- one decomposition and one interpolator core


# q vanishes off the identity where p does not; the weights are 0 on the zero set
ZERO_SET_FAILURES = [
    ((2,), [0.8, 0.2], [0.5, 0.5], 1, 1, [0.5, 0.5]),
    ((4,), [0.4, 0.3, 0.2, 0.1], [0.5, 0.0, 0.5, 0.0], 2, 3, [0.26, 0.24, 0.26, 0.24]),
]


@pytest.mark.parametrize("shape, p, q, N, M, want", ZERO_SET_FAILURES)
def test_weights_stay_finite_on_a_zero_set_violation(shape, p, q, N, M, want):
    # the CLI report of each pair is a `CONTRACT` row: convert-abelian-zero-set-*
    w, ok = fourier_weights(dist(shape, p), dist(shape, q), N, M)
    assert ok is False
    assert np.isfinite(w).all()
    assert np.allclose(w, want, atol=1e-15)


@pytest.mark.parametrize("shape, p, q, N, M, want", ZERO_SET_FAILURES)
def test_gram_view_rejects_a_zero_set_violation_with_its_element(shape, p, q, N, M, want):
    """Both views say no; the Gram witness is the smallest element whose
    label has lambda(q) = 0 != lambda(p), on the named and relabelled groups."""
    lam_p, lam_q = (dual_fourier(dist(shape, x)).values for x in (p, q))
    labels = np.flatnonzero((np.abs(lam_q) < 1e-12) & (np.abs(lam_p) > 1e-12))
    assert labels.size
    named = named_group("x".join(f"Z_{m}" for m in shape))
    perm = np.random.default_rng(len(p)).permutation(named.order)
    for group in (named, build_group(relabel(named.mult, perm))):
        _, elems = basis_elements(group)
        chars = []
        for lam in (lam_p, lam_q):
            vals = np.empty(group.order, dtype=complex)
            vals[elems] = lam
            chars.append(char_from_values(group, vals))
        res = feasible_exact(*chars, N, M)
        assert res.feasible is False
        assert res.zero_set_witness == elems[labels].min()
        assert fourier_weights(dist(shape, p), dist(shape, q), N, M)[1] is False


def test_charge_distribution_decomposes_each_group_once(monkeypatch, rng):
    calls = []
    decompose = groups.decompose_abelian
    monkeypatch.setattr(groups, "decompose_abelian", lambda g: calls.append(g) or decompose(g))
    rep = product_rep((6, 4), 8, rng)
    state = random_state(8, rng)
    first = charge_distribution(rep, state)
    second = charge_distribution(rep, state)
    assert calls == [rep.group]
    assert np.array_equal(first.probs, second.probs)
    group = rep.group
    assert group.cyclic_decomposition is group.cyclic_decomposition
    assert abelian_basis(group) == list(group.cyclic_decomposition[0])
    assert basis_elements(group)[1] is group.cyclic_decomposition[1]


@pytest.mark.parametrize("name", ["Z_3", "Z_4", "Z_2xZ_2"])
def test_gram_blocks_are_the_fourier_weights(name, rng):
    """Both views read one spectrum: the 1 x 1 Fourier blocks of the Gram
    interpolator are |G| w, the block of charge k at the weight of charge -k
    (the characters are exp(+2 pi i a.k / t), the weights an FFT)."""
    rep = corpus_rep(name)
    group, n = rep.group, rep.group.order
    shape, elems = basis_elements(group)
    axes = tuple(range(len(shape)))
    psi, phi = random_state(rep.dim, rng), random_state(rep.dim, rng)
    p, q = charge_distribution(rep, psi), charge_distribution(rep, phi)
    for N, M in ((1, 1), (2, 1), (3, 4)):
        w, ok = fourier_weights(p, q, N, M)
        chars = char_function(rep, psi), char_function(rep, phi)
        assert feasible_exact(*chars, N, M).feasible == ok
        f = interpolator(*chars, N, M)
        (blocks,) = fourier_blocks(group, f)
        w_neg = np.roll(np.flip(w.reshape(shape), axes), 1, axes).ravel()
        assert np.abs(blocks.ravel() - n * w_neg).max() <= 1e-10 * n
        # the interpolator on G, read in label order, is the inverse DFT of w
        lam_w = np.fft.ifftn(w.reshape(shape)).ravel() * n
        assert np.abs(f[elems] - lam_w).max() <= 1e-10


# ------------------------------------------ one Hermitian interpolator, both views


@pytest.mark.parametrize("M", [3, 10**15 + 1, 2**53 - 1])
def test_the_sign_on_an_involution_comes_from_the_parity_of_M(M):
    """Z_2 with p = delta_0 and q = delta_1: lambda(q) = (1, -1), so for odd M
    the weights are delta_1. A sign taken from exp(i M pi) on a float M would
    give (0.0036, 0.9964) at M = 10^15 + 1. The Gram view of the same pair on
    the corpus Z_2 rep reads the same f and the same spectrum."""
    w, ok = fourier_weights(dist((2,), [1, 0]), dist((2,), [0, 1]), 1, M)
    assert ok is True
    assert np.abs(w - [0.0, 1.0]).max() <= 1e-15
    rep = corpus_rep("Z_2")
    psi, phi = (char_function(rep, PureState(2, np.eye(2)[k])) for k in (0, 1))
    gram = feasible_exact(psi, phi, 1, M)
    assert gram.feasible is ok
    assert np.array_equal(interpolator(psi, phi, 1, M), [1.0, -1.0])
    assert abs(gram.min_gram_eigenvalue - 2 * w.min()) <= 1e-15


def assert_hermitian_rows(f, inv):
    """f(g^-1) = conj f(g) bit for bit on every row, and f real on e and the involutions."""
    assert np.array_equal(f[:, inv], f.conj())
    assert (f[:, inv == np.arange(inv.size)].imag == 0).all()


LABEL_SHAPES = [(2,) * k for k in range(1, 9)] + [(3,), (16, 16), (256,)]
# small copy numbers keep |f| off 0 and off the cap; large ones reach the float's last digits
COPIES = st.one_of(st.integers(1, 8), st.integers(1, 2**53 - 1), st.just(2**53 - 1))
ODD_COPIES = st.one_of(COPIES, COPIES.map(lambda m: m | 1))


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(["Z_256", "Z_2^8", "Z_16xZ_16"]),
    seed=st.integers(0, 2**32 - 1),
    N=COPIES,
    M=ODD_COPIES,
)
def test_the_gram_view_interpolator_is_hermitian_bit_for_bit(name, seed, N, M):
    group = built_group(name)
    rng = np.random.default_rng(seed)
    psi, phi = (char_from_values(group, concentrated_type(group, rng, terms=2)) for _ in range(2))
    _, coords = k_rows(psi.split_polar, phi.split_polar, [N, 1, N], [M, M, 0])
    f = group.pairs.expand(coords)
    assert_hermitian_rows(f, group.inv)
    assert not np.signbit(f.real[f.real == 0]).any()
    assert not np.signbit(f.imag[f.imag == 0]).any()


def sparse_or_dense(shape, seed, support, uniform=False):
    """A distribution on support labels at random, or on every label when
    support is 0; uniform on them, whose dual coefficients then have zeros
    (two labels a, b: lambda vanishes where the character of a - b is -1),
    or with random weights."""
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    k = min(support, size) or size
    probs = np.zeros(size)
    probs[rng.choice(size, size=k, replace=False)] = 1.0 if uniform else rng.random(k)
    return dist(shape, probs / probs.sum())


SEEDS = st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from(LABEL_SHAPES), seeds=SEEDS, support=st.integers(1, 4), N=COPIES,
       M=ODD_COPIES)
def test_the_fourier_view_interpolator_is_hermitian_bit_for_bit(shape, seeds, support, N, M):
    """The label group's inverse is the label negation a -> -a. Sparse
    distributions keep |lambda| at 1 on many labels, so f keeps its phases
    at large copy numbers too."""
    p, q = (sparse_or_dense(shape, seed, support) for seed in seeds)
    labels = np.indices(shape).reshape(len(shape), -1)
    inv = p.char.group.inv
    assert np.array_equal(labels[:, inv], -labels % np.reshape(shape, (-1, 1)))
    for n, m in ((N, M), (1, M), (N, 0)):
        assert_hermitian_rows(interpolator(p.char, q.char, n, m)[None], inv)


def test_each_charge_distribution_is_transformed_once(monkeypatch):
    seen = []
    transform = abelian.dual_fourier
    monkeypatch.setattr(abelian, "dual_fourier", lambda d: seen.append(d) or transform(d))
    given_probs = np.array([0.4, 0.3, 0.2, 0.1])
    p, q = dist((4,), given_probs), dist((4,), [0.7, 0.1, 0.1, 0.1])
    for N, M in ((1, 1), (2, 3), (3, 2)):
        fourier_weights(p, q, N, M)
        fourier_weights(q, p, N, M)
    assert sorted(map(id, seen)) == sorted([id(p), id(q)])
    with pytest.raises(ValueError):
        p.probs[0] = 0.5
    group = p.char.group
    assert not any(a.flags.writeable for a in (p.char.logmod, p.char.phase, p.char.zero,
                                               group.mult, group.inv))
    assert p.char.group is q.char.group  # one label group per shape
    given_probs[0] = 0.5  # the caller's array is copied, not frozen
    assert p.probs[0] == 0.4


@settings(max_examples=60, deadline=None)
@given(
    shape=st.sampled_from(LABEL_SHAPES),
    seeds=SEEDS,
    support=st.integers(0, 4),
    uniform=st.tuples(st.booleans(), st.booleans()),
    N=COPIES,
    M=st.one_of(st.just(0), COPIES),
)
def test_the_weights_are_the_readout_of_the_gram_decision(shape, seeds, support, uniform, N, M):
    """w is the label group's Gram spectrum over |G|, and the verdict is that
    decision's, zero-set rule included: a report's min_weight and feasible
    cannot disagree. The spectra are compared relative to max(1, max |f|),
    which the cap on log-ratios lets reach e^350."""
    p, q = (sparse_or_dense(shape, *args) for args in zip(seeds, (support, support), uniform))
    w, feasible = fourier_weights(p, q, N, M)
    res = feasible_exact(p.char, q.char, N, M)
    f = interpolator(p.char, q.char, N, M)
    n = w.size
    tol = 1e-12 * n * max(1.0, np.abs(f).max())
    assert abs(n * w.min() - res.min_gram_eigenvalue) <= tol
    (blocks,) = fourier_blocks(p.char.group, f)
    assert np.abs(np.sort(n * w) - np.sort(blocks.real.ravel())).max() <= tol
    assert feasible is res.feasible
    assert feasible == (w.min() >= -TOL_PSD and res.zero_set_witness is None)


@pytest.mark.parametrize("shape", LABEL_SHAPES + [(1,), (2, 1, 3), (3, 2), (3, 5)])
def test_the_weights_match_the_fft_of_the_interpolator(shape):
    """The weights are the decision's blocks read in label order; the FFT of
    f over the label grid, which they replace, gives the same numbers, and
    the same verdict. The least weight is the least block over |G|, bit for
    bit."""
    for seed in range(6):
        p, q = (sparse_or_dense(shape, seed + k, (0, 1, 2)[seed % 3], seed % 2 == 1)
                for k in (0, 100))
        for N, M in ((1, 1), (2, 1), (1, 3), (7, 5), (3, 0)):
            w, feasible = fourier_weights(p, q, N, M)
            res = feasible_exact(p.char, q.char, N, M)
            f = interpolator(p.char, q.char, N, M)
            ref = fft_label_weights(f, shape)
            assert np.abs(w - ref).max() <= 1e-12 * max(1.0, np.abs(f).max())
            assert feasible is res.feasible
            assert feasible == (ref.min() >= -TOL_PSD and res.zero_set_witness is None)
            assert w.min() == res.min_gram_eigenvalue / w.size
            assert np.array_equal(np.sort(w), np.sort(res.block_min / w.size))


@pytest.mark.parametrize("shape", [(1,), (5,), (2, 1, 3), (3, 2), (2, 2, 2), (4, 6)])
def test_the_label_group_is_never_decomposed(shape, monkeypatch):
    """The grid is the label group's cyclic decomposition: a fresh label
    group reads its basis, label map and characters without
    `decompose_abelian`, and irrep k is the character of label k,
    exp(2 pi i a.k / n) at label a."""
    calls = []
    monkeypatch.setattr(groups, "decompose_abelian", lambda g: calls.append(g))
    groups.label_group.cache_clear()
    group = groups.label_group(shape)
    n = group.order
    p, q = (sparse_or_dense(shape, seed, 0) for seed in (1, 2))
    fourier_weights(p, q, 2, 1)
    grid, elems = basis_elements(group)
    assert grid == (tuple(t for t in shape if t > 1) or (1,))
    assert np.array_equal(elems, np.arange(n))
    labels = np.indices(shape).reshape(len(shape), -1).T  # row a: the label of element a
    phase = (labels / np.array(shape)) @ labels.T  # sum_j a_j k_j / n_j
    assert np.abs(irrep_matrix(group) - np.exp(2j * np.pi * phase)).max() <= 1e-12
    for g, t in abelian_basis(group):
        assert np.count_nonzero(labels[g]) == 1 and labels[g].sum() == 1
        assert shape[int(np.argmax(labels[g]))] == t
    assert calls == []


@pytest.mark.parametrize("M", [2**53 + 1, 10**16 + 1, np.int64(2**62 + 1), np.uint64(2**64 - 1)])
def test_an_integer_copy_number_without_an_exact_float_is_refused(M):
    """Read as a float, an odd M above 2^53 rounds to an even one, and the
    Gram test reads its parity off that float: on Z_2 with p = delta_0 and
    q = delta_1 it answered w = (1, 0) for M = 10^16 + 1, where the odd M
    gives (0, 1). Such a copy number is refused; 2^53 itself is exact."""
    p, q = dist((2,), [1, 0]), dist((2,), [0, 1])
    for N_, M_ in ((1, M), (M, 1)):
        with pytest.raises(DomainError, match="no exact float"):
            fourier_weights(p, q, N_, M_)
    w, ok = fourier_weights(p, q, 1, 2**53)
    assert ok and np.array_equal(w, [1.0, 0.0])


@pytest.mark.parametrize("shape", [(MAX_ORDER + 1,), (2,) * 9, (10**6,)])
def test_a_label_grid_above_max_order_is_refused_before_any_table(shape):
    """More labels than a group may have elements: ShapeMismatch before the
    n^2 product table of the label group is allocated (the FFT-only path
    once accepted such grids; at 10^6 labels that table is 10^12 entries)."""
    size = int(np.prod(shape))
    p = dist(shape, np.full(size, 1.0 / size))
    tracemalloc.start()
    try:
        with pytest.raises(ShapeMismatch, match="exceed cap"):
            fourier_weights(p, p, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# ---------------------------------- one codec: the Gram and Fourier views agree


def gram_chars(group, dists):
    """chi of each distribution on group, from its dual coefficients."""
    _, elems = basis_elements(group)
    chars = []
    for d in dists:
        vals = np.empty(group.order, dtype=complex)
        vals[elems] = dual_fourier(d).values
        chars.append(char_from_values(group, vals))
    return chars


def test_a_charge_shift_on_z8_is_feasible_in_both_views_at_ten_million_copies():
    """p = delta_7 and q = delta_2: p^N -> q^M by a charge shift for every N
    and M. |lambda_p| = 1 rounds to 1 + 2.2e-16 at some labels; the Fourier
    view once took N times its log and read |G| min w = -8.9e-9, infeasible,
    where the Gram view read -3.6e-9."""
    group = named_group("Z_8")
    p, q = (dist((8,), np.eye(8)[k]) for k in (7, 2))
    N, M = 10**7, 10**7 - 1
    w, ok = fourier_weights(p, q, N, M)
    res = feasible_exact(*gram_chars(group, (p, q)), N, M)
    assert ok and res.feasible
    assert abs(8 * w.min() - res.min_gram_eigenvalue) <= 1e-12


@pytest.mark.parametrize("n", [4, 5, 8, 12, 16, 32, 64])
def test_both_views_give_one_verdict_on_shifted_sparse_distributions(n):
    """q = p * delta_s for a sparse p on Z_n, so p^N -> q^M is feasible at M =
    N and M = N - 1 (a charge shift, after p -> p at one copy). Both views
    encode their inputs with one codec, so at N = 10^3 .. 10^8 they give one
    verdict, whether or not the phases keep enough digits to say feasible."""
    group = named_group(f"Z_{n}")
    rng = np.random.default_rng(n)
    for _ in range(12):
        k = rng.integers(1, 3)
        probs = np.zeros(n)
        probs[rng.choice(n, k, replace=False)] = rng.dirichlet(np.ones(k))
        p, q = dist((n,), probs), dist((n,), np.roll(probs, rng.integers(n)))
        chars = gram_chars(group, (p, q))
        for N in (10**e for e in range(3, 9)):
            for M in (N, N - 1):
                fourier = fourier_weights(p, q, N, M)[1]
                assert fourier == feasible_exact(*chars, N, M).feasible, (probs, q.probs, N, M)


def test_a_shape_entry_that_is_not_an_integer_is_a_shape_mismatch():
    # (2.0,) passed the gate and raised a TypeError in `label_group`, and
    # (True,) was taken for (1,)
    for shape, probs in (((2.0,), [0.5, 0.5]), ((True,), [1.0]), ((2, "2"), [0.25] * 4)):
        with pytest.raises(ShapeMismatch, match="not an integer"):
            dist(shape, probs).char
    assert dist((np.int64(2),), [0.5, 0.5]).shape == (2,)


