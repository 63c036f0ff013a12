import functools
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asym import (
    abelian_basis,
    groups,
    io,
    build_group,
    char_from_values,
    char_function,
    charge_distribution,
    dual_fourier,
    feasible_exact,
    fourier_weights,
    named_group,
    shift_canonicalize,
    validate_projective_rep,
)
from asym import abelian
from asym.abelian import ChargeDistribution, basis_elements
from asym.convertibility import interpolate
from asym.cli import main
from corpus import corpus_rep, random_distribution, random_state, z2_population_state
from asym.errors import DomainError, NotAbelian, NotSimultaneouslyDiagonalizable, ShapeMismatch
from asym.groups import ProjectiveRep, PureState
from reference import subgroup_closure
from test_convertibility import BUILT, concentrated_type


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


def test_abelian_basis_rejects_nonabelian():
    with pytest.raises(NotAbelian):
        abelian_basis(named_group("S_3"))


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


def test_fourier_weights_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        fourier_weights(dist((2,), [0.5, 0.5]), dist((3,), [1, 0, 0]), 1, 1)


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
            G = f_vals[group.mult[group.inv, :]]
            spectrum = np.sort(np.linalg.eigvalsh((G + G.conj().T) / 2))
            assert np.allclose(spectrum, np.sort(n * w), atol=1e-7)


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


def product_group(moduli):
    """Z_m1 x ... x Z_mk with elements in row-major order of their coordinates."""
    coords = np.array(list(itertools.product(*[range(m) for m in moduli])))
    strides = np.cumprod((1,) + tuple(moduli[:0:-1]))[::-1]
    table = ((coords[:, None, :] + coords[None, :, :]) % moduli) @ strides
    return build_group(table), coords


def diagonal_rep(moduli, d, rng, theta=None):
    """V diag(exp(2 pi i c.a / m)) V^+ over random charges c and a random
    unitary V, times exp(i theta.a) per label a when theta is given: a
    projective rep with U^t = exp(i t theta_j) I on the cyclic factors.
    The ProjectiveRep is built directly, skipping validation:
    charge_distribution reads only the group and the matrices."""
    group, coords = product_group(moduli)
    charges = rng.integers(0, moduli, size=(d, len(moduli)))
    V, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    phases = np.exp(2j * np.pi * (coords / np.array(moduli)) @ charges.T)
    if theta is not None:
        phases *= np.exp(1j * coords @ np.asarray(theta))[:, None]
    mats = np.einsum("ij,gj,kj->gik", V, phases, V.conj())
    return ProjectiveRep(group=group, dim=d, matrices=mats)


def relabelled(group, rng):
    perm = rng.permutation(group.order)
    table = np.empty_like(group.mult)
    table[np.ix_(perm, perm)] = perm[group.mult]
    return build_group(table)


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
    ],
    ids=["Z_256", "Z_2^8", "Z_16xZ_16", "Z_64", "Z_256-gauged", "Z_2^8-gauged", "Z_6xZ_4-gauged"],
)
def test_charge_distribution_matches_subspace_reference(moduli, d, theta, rng):
    rep = diagonal_rep(moduli, d, rng, theta)
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


def test_charge_distribution_rejects_non_phase_power():
    # Z_2 -> diag(1, -1) scaled by a non-uniform phase: U^2 is not z I
    rep = ProjectiveRep(
        group=named_group("Z_2"),
        dim=2,
        matrices=np.array([np.eye(2), np.diag([1.0, 1j])], dtype=complex),
    )
    with pytest.raises(NotSimultaneouslyDiagonalizable):
        charge_distribution(rep, PureState(2, np.array([1.0, 0.0])))


def test_charge_distribution_rejects_non_commuting_matrices():
    # the Pauli rep X^a Z^b of Z_2 x Z_2: X Z = -Z X, so no charge sectors
    X, Z = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0])
    rep = validate_projective_rep(named_group("Z_2xZ_2"), [np.eye(2), Z, X, X @ Z])
    assert not rep.commutative
    with pytest.raises(NotSimultaneouslyDiagonalizable, match="do not commute"):
        charge_distribution(rep, PureState(2, np.array([1.0, 0.0])))


ABELIAN_NAMES = ["Z_1", "Z_2", "Z_3", "Z_4", "Z_2xZ_2", "Z_2xZ_3", "Z_12", "Z_6xZ_4",
                 "Z_2xZ_2xZ_2xZ_2", "Z_3xZ_3xZ_3", "Z_4xZ_2xZ_6", "Z_64", "Z_8xZ_8"]


@pytest.mark.parametrize("name", ABELIAN_NAMES)
def test_decomposition_matches_reference_loops(name):
    rng = np.random.default_rng(sum(map(ord, name)))
    named = named_group(name)
    for group in [named] + [relabelled(named, rng) for _ in range(5)]:
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


def convert_abelian(capsys, tmp_path, shape, p, q, N, M):
    """Exit code, stdout JSON (or None) and stderr JSON (or None) of convert-abelian."""
    paths = [tmp_path / "p.json", tmp_path / "q.json"]
    for path, probs in zip(paths, (p, q)):
        io.save_distribution(path, dist(shape, probs))
    argv = ["convert-abelian", "--p", paths[0], "--q", paths[1], "--copies", N, M, "--json"]
    code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out and json.loads(out), err and json.loads(err)


def test_fourier_weights_rejects_zero_copies(capsys, tmp_path):
    # psi^0 is the trivial state: the Gram view raises DomainError, so does this one
    flat = dist((2,), [0.5, 0.5])
    with pytest.raises(DomainError):
        fourier_weights(flat, flat, 0, 1)
    code, out, err = convert_abelian(capsys, tmp_path, (2,), [0.5, 0.5], [0.5, 0.5], 0, 1)
    assert (code, out, err["error"]) == (1, "", "DomainError")


@pytest.mark.parametrize(
    "N, M", [(10**400, 1), (1, 10**400), (10**308, 1), (1, 10**308)],
    ids=["N", "M", "N-beyond-phase", "M-beyond-phase"],
)
def test_fourier_weights_rejects_a_copy_number_beyond_a_float(N, M):
    p = dist((2,), [0.8, 0.2])
    with pytest.raises(DomainError):
        fourier_weights(p, p, N, M)


# q vanishes off the identity where p does not; the weights are 0 on the zero set
ZERO_SET_FAILURES = [
    ((2,), [0.8, 0.2], [0.5, 0.5], 1, 1, [0.5, 0.5]),
    ((4,), [0.4, 0.3, 0.2, 0.1], [0.5, 0.0, 0.5, 0.0], 2, 3, [0.26, 0.24, 0.26, 0.24]),
]


@pytest.mark.parametrize("shape, p, q, N, M, want", ZERO_SET_FAILURES)
def test_weights_stay_finite_on_a_zero_set_violation(shape, p, q, N, M, want, capsys, tmp_path):
    w, ok = fourier_weights(dist(shape, p), dist(shape, q), N, M)
    assert ok is False
    assert np.isfinite(w).all()
    assert np.allclose(w, want, atol=1e-15)
    code, out, err = convert_abelian(capsys, tmp_path, shape, p, q, N, M)
    assert (code, err) == (0, "")
    result = out["result"]
    assert result["feasible"] is False
    assert np.isfinite(result["weights"]).all() and np.isfinite(result["min_weight"])
    assert np.allclose(result["weights"], want, atol=1e-15)
    assert result["min_weight"] == pytest.approx(min(want), abs=1e-15)


@pytest.mark.parametrize("shape, p, q, N, M, want", ZERO_SET_FAILURES)
def test_gram_view_rejects_a_zero_set_violation_with_its_element(shape, p, q, N, M, want):
    """Both views say no; the Gram witness is the smallest element whose
    label has lambda(q) = 0 != lambda(p), on the named and relabelled groups."""
    lam_p, lam_q = (dual_fourier(dist(shape, x)).values for x in (p, q))
    labels = np.flatnonzero((np.abs(lam_q) < 1e-12) & (np.abs(lam_p) > 1e-12))
    assert labels.size
    named = named_group("x".join(f"Z_{m}" for m in shape))
    for group in (named, relabelled(named, np.random.default_rng(len(p)))):
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
    rep = diagonal_rep((6, 4), 8, rng)
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
        gram = feasible_exact(char_function(rep, psi), char_function(rep, phi), N, M)
        assert gram.feasible == ok
        (blocks,) = group.irreps.fourier_blocks(gram.f)
        w_neg = np.roll(np.flip(w.reshape(shape), axes), 1, axes).ravel()
        assert np.abs(blocks.ravel() - n * w_neg).max() <= 1e-10 * n
        # the interpolator on G, read in label order, is the inverse DFT of w
        lam_w = np.fft.ifftn(w.reshape(shape)).ravel() * n
        assert np.abs(gram.f[elems] - lam_w).max() <= 1e-10


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
    assert np.array_equal(gram.f, [1.0, -1.0])
    assert abs(gram.min_gram_eigenvalue - 2 * w.min()) <= 1e-15


def assert_hermitian_rows(f, inv):
    """f(g^-1) = conj f(g) bit for bit on every row, and f real on e and the involutions."""
    assert np.array_equal(f[:, inv], f.conj())
    assert (f[:, inv == np.arange(inv.size)].imag == 0).all()


@functools.cache
def built_group(name):
    return BUILT[name]()


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
    chars = [char_from_values(group, concentrated_type(group, rng, terms=2)) for _ in range(2)]
    psi, phi = ((c.logmod, c.phase, c.zero) for c in chars)
    f, _ = interpolate(psi, phi, [N, 1, N], [M, M, 0], group.inv)
    assert_hermitian_rows(f, group.inv)


@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from(LABEL_SHAPES),
    seed=st.integers(0, 2**32 - 1),
    support=st.integers(1, 4),
    N=COPIES,
    M=ODD_COPIES,
)
def test_the_fourier_view_interpolator_is_hermitian_bit_for_bit(shape, seed, support, N, M):
    """Sparse distributions keep |lambda| at 1 on many labels, so f keeps its
    phases at large copy numbers too."""
    rng = np.random.default_rng(seed)
    size = int(np.prod(shape))
    p, q = [], []
    for out in (p, q):
        probs = np.zeros(size)
        probs[rng.choice(size, size=min(support, size), replace=False)] = rng.random(min(support, size))
        out.append(dist(shape, probs / probs.sum()))
    (p,), (q,) = p, q
    labels = np.indices(shape).reshape(len(shape), -1)
    assert np.array_equal(labels[:, p.inv], -labels % np.reshape(shape, (-1, 1)))
    f, _ = interpolate(p.polar, q.polar, [N, 1, N], [M, M, 0], p.inv)
    assert_hermitian_rows(f, p.inv)


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
    assert not any(a.flags.writeable for a in (*p.polar, p.inv))
    given_probs[0] = 0.5  # the caller's array is copied, not frozen
    assert p.probs[0] == 0.4
