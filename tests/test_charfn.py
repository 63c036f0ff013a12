import math

import numpy as np
import pytest

from asym import (
    char_from_values,
    char_function,
    char_power,
    classify_sets,
    named_group,
    resource_measure_L,
    validate_projective_rep,
)
from asym.charfn import MAX_COPIES, CharFunction
from corpus import corpus_rep, random_state, z2_population_state
from asym.errors import DimensionMismatch, DomainError
from asym.groups import PureState


@pytest.fixture
def z2_rep():
    return corpus_rep("Z_2")


def test_char_z2_population(z2_rep):
    # oracle: direct inner product <psi|diag(1,-1)|psi> = 0.8 - 0.2
    char = char_function(z2_rep, z2_population_state(0.8))
    assert np.allclose(char.values(), [1.0, 0.6], atol=1e-14)


def test_char_eigenvector_has_unit_modulus(z2_rep):
    char = char_function(z2_rep, PureState(2, np.array([1.0, 0.0])))
    assert np.allclose(np.abs(char.values()), 1.0)


def test_char_balanced_superposition_vanishes(z2_rep):
    char = char_function(z2_rep, PureState(2, np.array([1.0, 1.0]) / np.sqrt(2)))
    assert abs(char.values()[1]) < 1e-14


def test_char_dimension_mismatch(z2_rep):
    with pytest.raises(DimensionMismatch):
        char_function(z2_rep, PureState(3, np.array([1.0, 0.0, 0.0])))


def test_resource_measure_values(z2_rep):
    char = char_function(z2_rep, z2_population_state(0.8))
    assert resource_measure_L(char, 1) == pytest.approx(-math.log(0.6), abs=1e-12)
    assert resource_measure_L(char, 0) == 0.0
    zero_char = char_from_values(named_group("Z_2"), [1.0, 0.0])
    assert resource_measure_L(zero_char, 1) == math.inf


def test_classify_sets(z2_rep):
    g = named_group("Z_2")
    sets = classify_sets(char_function(z2_rep, PureState(2, np.array([1.0, 0.0]))))
    assert sets.sym == frozenset({0, 1})
    assert sets.zero == frozenset()

    sets = classify_sets(char_function(z2_rep, z2_population_state(0.8)))
    assert sets.sym == frozenset({0})
    assert sets.zero == frozenset()

    sets = classify_sets(char_function(z2_rep, PureState(2, np.array([1, 1]) / np.sqrt(2))))
    assert sets.sym == frozenset({0})
    assert sets.zero == frozenset({1})


def test_char_power_squares_modulus(z2_rep):
    char = char_function(z2_rep, z2_population_state(0.8))
    squared = char_power(char, 2)
    # oracle: explicit two-copy inner product on the 4-dim space
    psi = z2_population_state(0.8).amplitudes
    psi2 = np.kron(psi, psi)
    U2 = np.kron(z2_rep.matrices[1], z2_rep.matrices[1])
    expect = psi2.conj() @ (U2 @ psi2)
    assert np.allclose(squared.values()[1], expect, atol=1e-14)
    assert np.allclose(squared.values()[1], 0.36, atol=1e-14)


def test_char_power_identity_and_zero():
    g = named_group("Z_2")
    char = char_from_values(g, [1.0, 0.0])
    assert np.allclose(char_power(char, 1).values(), char.values(), equal_nan=True)
    assert char_power(char, 7).values()[1] == 0.0


@pytest.mark.parametrize("N, sign", [(2, 0.0), (3, np.pi)])
def test_char_power_keeps_a_real_chi_real(N, sign):
    # chi(1) = -0.6 on Z_2: chi^2 had phase -2.4e-16 from exp(2 i pi); on e and
    # the involutions of a linear rep the phase of chi^N is 0 or pi exactly
    z2 = char_power(char_from_values(named_group("Z_2"), [1.0, -0.6]), N)
    assert z2.phase.tolist() == [0.0, sign]
    chi = np.array([1.0, 0.3j, -0.5, -0.3j])
    z4 = char_power(char_from_values(named_group("Z_4"), chi), N)
    assert z4.phase[[0, 2]].tolist() == [0.0, sign]
    assert np.allclose(z4.values(), chi**N, atol=1e-15)


@pytest.mark.parametrize("N", [10**400, 10**308], ids=["beyond-float", "beyond-phase"])
def test_char_power_rejects_a_copy_number_beyond_a_float(N):
    # 10^400 used to raise an untyped OverflowError from logmod * N, and
    # 10^308 to give phase pi N = inf and a NaN phase
    char = char_from_values(named_group("Z_2"), [1.0, -0.6])
    with pytest.raises(DomainError):
        char_power(char, N)
    for fits in (10**300, int(MAX_COPIES)):
        power = char_power(char, fits)
        assert power.values()[1] == 0.0 and np.isfinite(power.phase).all()


@pytest.mark.parametrize("name", ["Z_2", "Z_3", "Z_4"])
@pytest.mark.parametrize("N", [2, 3, 4])
def test_char_power_matches_explicit_tensor_power(name, N, rng):
    """Brute-force equivalence with the tensor-power representation."""
    rep = corpus_rep(name)
    if rep.dim**N > 256:
        pytest.skip("tensor power too large for the brute-force oracle")
    state = random_state(rep.dim, rng)
    powered = char_power(char_function(rep, state), N)

    big_psi = state.amplitudes
    for _ in range(N - 1):
        big_psi = np.kron(big_psi, state.amplitudes)
    big_mats = []
    for U in rep.matrices:
        big = U
        for _ in range(N - 1):
            big = np.kron(big, U)
        big_mats.append(big)
    big_rep = validate_projective_rep(rep.group, np.array(big_mats))
    explicit = char_function(big_rep, PureState(rep.dim**N, big_psi))
    assert np.allclose(powered.values(), explicit.values(), atol=1e-12)


def test_symmetric_state_has_zero_L_everywhere():
    rep = corpus_rep("Z_4")
    char = char_function(rep, PureState(4, np.array([0, 1.0, 0, 0])))
    for g in range(4):
        assert resource_measure_L(char, g) == 0.0
    assert classify_sets(char).sym == frozenset(range(4))


def test_global_phase_invariance(rng):
    rep = corpus_rep("S_3")
    state = random_state(rep.dim, rng)
    rotated = PureState(rep.dim, state.amplitudes * np.exp(1j * 0.7))
    a = np.abs(char_function(rep, state).values())
    b = np.abs(char_function(rep, rotated).values())
    assert np.allclose(a, b, atol=1e-14)


def test_char_function_arrays_are_read_only(z2_rep):
    # the cached masks and sets are derived from logmod and phase, so neither may change
    built = char_function(z2_rep, z2_population_state(0.8))
    logmod, phase = np.array([0.0, -0.5]), np.array([0.0, 0.3])
    by_hand = CharFunction(group=built.group, logmod=logmod, phase=phase)
    for char in (built, char_power(built, 3), char_from_values(built.group, [1.0, 0.0]), by_hand):
        for arr in (char.logmod, char.phase):
            with pytest.raises(ValueError):
                arr[1] = -1.0
            with pytest.raises(ValueError):
                arr += 0.0
        assert not char.zero.flags.writeable
    # the caller's arrays are copied, not frozen: writing into them later leaves chi alone
    assert classify_sets(by_hand).zero == frozenset()
    logmod[1] = -np.inf
    assert by_hand.logmod[1] == -0.5 and classify_sets(by_hand).zero == frozenset()
