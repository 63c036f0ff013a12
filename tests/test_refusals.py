"""Each refusal of the library, called directly: the call, the typed error it
raises and its whole message, one row of `LIBRARY_REFUSALS` each. A change
to a refusal edits its row here; the refusals of an `asym` call are rows of
`CONTRACT` in tests/test_cli.py. The rows of an argument outside its domain
(a rate, an error, `n_max`, an element index) come from `DOMAIN_CALLS`, and
each also checks that `groups.as_real` or `groups.as_index` raised it. A
check that a row cannot hold (an eigensolver count, a warning, a witness
field, a drawn input) stays in the test of its module."""

import math

import numpy as np
import pytest

from asym import (
    GeneratorSet,
    abelian_basis,
    approx_rate_class,
    build_group,
    char_from_values,
    char_function,
    char_power,
    charge_distribution,
    clt_diagnostic,
    convergence_to_uniform,
    converse_certificate,
    copies_bound,
    exact_rate,
    feasible_exact,
    fourier_weights,
    g_function,
    groups,
    is_positive_definite,
    lie,
    minimal_copies_search,
    named_group,
    qfim,
    resource_measure_L,
    rf_ratio,
    validate_projective_rep,
)
from asym.abelian import ChargeDistribution
from asym.errors import (
    AxiomViolation,
    DimensionMismatch,
    DomainError,
    GroupMismatch,
    NotAbelian,
    NotAState,
    NotHermitian,
    NotSimultaneouslyDiagonalizable,
    NotUnitary,
    RateNotBelowOptimal,
    SelfCheckFailed,
    ShapeMismatch,
    SymNotSubgroup,
    UnknownGroupName,
)
from asym.groups import ProjectiveRep, PureState, as_index, as_real
from asym.lie import pure_density, symmetrized_covariance
from corpus import SPIN_HALF, corpus_rep, pauli_rep, random_state

Z2, Z3, Z4 = (named_group(f"Z_{n}") for n in (2, 3, 4))
C5, C6, C8 = (char_from_values(Z2, [1.0, t]) for t in (0.5, 0.6, 0.8))
PSI, PHI = char_from_values(Z4, [1.0, 0.5j, 0.3, -0.5j]), char_from_values(Z4, [1.0, 0.4, 0.2, 0.4])
DECAYING = char_from_values(Z4, [1.0, 0.5, 0.25, 0.5])
P, Q = (ChargeDistribution((4,), np.array(probs)) for probs in ([0.4, 0.3, 0.2, 0.1],
                                                                  [0.7, 0.1, 0.1, 0.1]))
FLAT, BIASED = (ChargeDistribution((2,), np.array(probs)) for probs in ([0.5, 0.5], [0.8, 0.2]))
SPIN = GeneratorSet(2, SPIN_HALF)
STATE = random_state(2, np.random.default_rng(0))
F = np.eye(2)
# U(1) of Z_2 with a non-uniform phase: U^2 is not z I. Built without validation.
NON_PHASE = ProjectiveRep(Z2, 2, np.array([np.eye(2), np.diag([1.0, 1j])]))
REPEATED_Q8 = groups.quaternion_matrices()
REPEATED_Q8[3] = REPEATED_Q8[2]  # two elements share a matrix: their products are ambiguous


def patched(target, name, value, call):
    """call, run with target.name set to value."""
    def run():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(target, name, value)
            call()
    return run


def theta_grid(bad):
    """A 4 x 3 grid of 1e-3 with bad at one entry."""
    grid = np.full((4, 3), 1e-3)
    grid[2, 1] = bad
    return grid


def _with(entry, value, base=None):
    M = np.eye(2) if base is None else np.array(base, dtype=float)
    M[entry] = value
    return M


GOOD = np.diag([4.0, 2.0])
NON_FINITE_QFIM = (DomainError, "QFIM has a non-finite entry")
# case -> (F_psi, F_phi, error, message): a pencil that rf_ratio and converse_certificate refuse
REJECTED_PENCILS = {
    # a NaN in F_psi would come out as r_f = nan from the closed form
    "nan-psi": (_with((0, 0), np.nan), GOOD, *NON_FINITE_QFIM),
    # a NaN in F_phi would come out as r_f = 0.0, and in converse_certificate
    # as an error from g
    "nan-phi": (GOOD, _with((1, 1), np.nan), *NON_FINITE_QFIM),
    # an inf in F_psi would come out as r_f = 0.0, certified "impossible"
    "inf-psi": (_with((0, 1), np.inf), GOOD, *NON_FINITE_QFIM),
    "-inf-phi": (GOOD, _with((1, 0), -np.inf), *NON_FINITE_QFIM),
    # eigh and eigvalsh would read the lower triangle only
    "asymmetric-psi": (np.array([[1.0, 5.0], [0.0, 1.0]]), GOOD,
                       DomainError, "F_psi deviates from symmetric by 5.000e+00"),
    "asymmetric-phi": (GOOD, np.array([[1.0, 5.0], [0.0, 1.0]]),
                       DomainError, "F_phi deviates from symmetric by 5.000e+00"),
    "asymmetric-1e-6": (GOOD, _with((0, 1), 1e-6, np.eye(2) * 10.0),
                        DomainError, "F_phi deviates from symmetric by 1.000e-06"),
    # numpy would raise a bare ValueError or LinAlgError
    "0x0": (np.zeros((0, 0)), np.zeros((0, 0)),
            DimensionMismatch, "QFIMs are 0 x 0: the pencil has no direction"),
    "2x3": (np.ones((2, 3)), np.ones((2, 3)),
            DimensionMismatch, "QFIMs must be square, of one shape: (2, 3) vs (2, 3)"),
    "shapes-differ": (np.eye(2), np.eye(3),
                      DimensionMismatch, "QFIMs must be square, of one shape: (2, 2) vs (3, 3)"),
    "vector": (np.ones(2), np.ones(2),
               DimensionMismatch, "QFIMs must be square, of one shape: (2,) vs (2,)"),
}
PENCIL_CALLS = {"rf_ratio": rf_ratio,
                "converse_certificate": lambda a, b: converse_certificate(a, b, r=2.0, delta=0.0)}

COPIES_FROM = "copy number must be an integer in [{}, 2.86e+307], got {}"
# case -> (N, M, message): copy numbers that used to raise an untyped OverflowError
BEYOND_A_FLOAT = {
    "N": (10**400, 1, "copy number above 2.86e+307"),
    "M": (1, 10**400, "copy number above 2.86e+307"),
    "N-beyond-phase": (10**308, 1, COPIES_FROM.format(1, "1e+308")),
    "M-beyond-phase": (1, 10**308, COPIES_FROM.format(0, "1e+308")),
}
COPY_CALLS = {"feasible_exact": lambda N, M: feasible_exact(C6, C6, N, M),
              "fourier_weights": lambda N, M: fourier_weights(BIASED, BIASED, N, M)}

COPY_NUMBER = "copy number must be an integer"
NO_NUMBERS = {"str": "1", "bytes": b"1", "bool": True, "np.bool": np.True_}
NOT_ONE_NUMBER = {"list": [3], "tuple": (3,), "1d-array": np.array([3]), "2d-array": np.array([[3]])}
# (function, argument) -> (the call with value as that argument, its message up to ", got")
ILL_TYPED_CALLS = {
    "char_power-N": (lambda v: char_power(PSI, v), COPY_NUMBER),
    "feasible_exact-N": (lambda v: feasible_exact(PSI, PHI, v, 1), COPY_NUMBER),
    "feasible_exact-M": (lambda v: feasible_exact(PSI, PHI, 1, v), COPY_NUMBER),
    "fourier_weights-N": (lambda v: fourier_weights(P, Q, v, 1), COPY_NUMBER),
    "fourier_weights-M": (lambda v: fourier_weights(P, Q, 1, v), COPY_NUMBER),
    "convergence_to_uniform-list-entry": (lambda v: convergence_to_uniform(PSI, [1, v]), COPY_NUMBER),
    "minimal_copies_search-rate": (lambda v: minimal_copies_search(PSI, PHI, v, 8),
                                   "rate must be a real number"),
    "copies_bound-rate": (lambda v: copies_bound(PSI, PHI, v), "rate must be a real number"),
    "converse_certificate-rate": (lambda v: converse_certificate(F, F, v, 0.0),
                                  "rate must be a real number"),
    "converse_certificate-error": (lambda v: converse_certificate(F, F, 2.0, v),
                                   "error must be a real number"),
    "g_function-x": (lambda v: g_function(v), "x must be a real number"),
}


def gated(call):
    """call, checked to raise its DomainError in `as_real` or `as_index`, the
    innermost frame."""
    def run():
        try:
            call()
        except DomainError as exc:
            tb = exc.__traceback__
            while tb.tb_next:
                tb = tb.tb_next
            assert tb.tb_frame.f_code.co_name in ("as_real", "as_index"), tb.tb_frame.f_code.co_name
            raise
    return run


def outside(gate, domain, *extra):
    """The values that a gate refuses on domain, written "[lo, hi)" and the
    like: each open bound, one step past each closed bound, nan, inf, -inf
    and extra; an integer argument takes integer bounds and steps."""
    lo, hi = (float(b) for b in domain[1:-1].split(", "))
    if gate is as_index:
        lo, hi, below, above = int(lo), int(hi), int(lo) - 1, int(hi) + 1
    else:
        below, above = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
    ends = (lo if domain[0] == "(" else below, hi if domain[-1] == ")" else above)
    return list(dict.fromkeys([*ends, math.nan, math.inf, -math.inf, *extra]))


def domain_message(gate, name, domain, value):
    """The one message of a gate: a value that is not an integer, for as_index,
    is refused as such, any other value outside the domain as outside it."""
    if gate is as_index and not isinstance(value, int):
        return f"{name} must be an integer, got {value!r}"
    return f"{name} must be in {domain}, got {value}"


# row-id prefix -> (the call with value as one argument, its gate, the argument's
# name and domain, values besides those `outside` gives); each row checks the
# class, the whole message and that a gate raised it
DOMAIN_CALLS = {
    "copies-bound-at-rate": (lambda v: copies_bound(C6, C8, v), as_real, "rate", "(0, inf)", -0.5),
    "min-copies-at-rate": (lambda v: minimal_copies_search(C6, C8, v, 8), as_real, "rate", "[0, inf)",
                           -1.0),
    "min-copies-n-max": (lambda v: minimal_copies_search(C6, C6, 1.0, v), as_index, "n_max",
                         "[1, 10000]", 10**5),
    "certificate-at-rate": (lambda v: converse_certificate(GOOD, np.diag([1.0, 2.0]), r=v, delta=0.0),
                            as_real, "rate", "(0, inf)"),
    "certificate-at-error": (lambda v: converse_certificate(GOOD, np.diag([1.0, 2.0]), r=2.0, delta=v),
                             as_real, "error", "[0, inf)", -1e-3),
    "g_function-x": (g_function, as_real, "x", "[0, 1)", -0.1),
    "element-index": (lambda v: resource_measure_L(C5, v), as_index, "element index", "[0, 2)"),
    "subgroup-element": (lambda v: groups.is_subgroup(Z4, {0, v}), as_index, "element index", "[0, 4)"),
}
ONE_COPY_NUMBER = ["char_power-N", "feasible_exact-N", "feasible_exact-M", "fourier_weights-N",
                   "fourier_weights-M"]

NOT_SHAPES = {"empty": ((), [1.0]), "zero": ((0,), []), "zero-axis": ((2, 0), []),
              "negative-axis": ((2, -1), [])}

# case -> (call, error, message)
LIBRARY_REFUSALS = {
    # ---- groups
    "modulus-zero": (lambda: named_group("Z_0"), UnknownGroupName, "modulus must be >= 1 in 'Z_0'"),
    "table-not-associative": (lambda: build_group([[0, 1, 2], [1, 2, 0], [2, 1, 0]]), AxiomViolation,
                              "group axiom violated: associativity (witness (1, 1, 1))"),
    "q8-table-self-check": (patched(groups, "quaternion_matrices", lambda: REPEATED_Q8,
                                    lambda: named_group("Q_8")),
                            SelfCheckFailed, "1 of the 8 matrices repeat another"),
    # one eigenvalue of multiplicity n: a single reducible "irrep" every time
    # (an abelian table takes its characters, not eigh)
    "irreps-fail-their-checks": (
        patched(groups.np.linalg, "eigh", lambda H: (np.zeros(len(H)), np.eye(len(H), dtype=complex)),
                lambda: named_group("S_3").irreps),
        SelfCheckFailed, "no irrep decomposition of the group of order 6 passed its checks"),
    "rep-not-unitary": (
        lambda: validate_projective_rep(Z2, [np.eye(2), np.array([[1.0, 1.0], [0.0, 1.0]])]),
        NotUnitary, "matrix for element 1 is not unitary (max deviation 1.000e+00)"),
    "rep-zero-dimensional": (lambda: validate_projective_rep(Z4, np.zeros((4, 0, 0))),
                             DimensionMismatch, "expected 4 square matrices, got shape (4, 0, 0)"),
    # np.fromiter used to truncate 2.7 to 2, and {0, 2} is a subgroup of Z_4
    "subgroup-element-2.7": (lambda: groups.is_subgroup(Z4, [0, 2.7]),
                             DomainError, "element index must be an integer, got 2.7"),
    "state-norm": (lambda: PureState(2, np.array([1.0, 1.0])), NotAState,
                   "state norm 1.4142135623730951 deviates from 1 beyond tolerance"),
    "amplitudes-of-the-wrong-shape": (lambda: PureState(2, np.array([1.0, 0.0, 0.0])),
                                      NotAState, "expected 2 amplitudes, got shape (3,)"),
    # a float or bool dim was kept, and io.save_state wrote "dim": 2.0, a file
    # that io.load_state refuses
    **{f"state-dim-{dim}": (lambda dim=dim: PureState(dim, np.array([1.0, 0.0])), DomainError,
                            f"dim must be an integer, got {dim!r}") for dim in (2.0, True)},
    # ---- charfn
    "values-of-the-wrong-length": (lambda: char_from_values(Z4, [1.0, 0.0, 0.0]),
                                   DimensionMismatch, "expected 4 values, got shape (3,)"),
    "state-of-another-dimension": (
        lambda: char_function(corpus_rep("Z_2"), PureState(3, np.array([1.0, 0.0, 0.0]))),
        DimensionMismatch, "state dim 3 != rep dim 2"),
    # chi(g^-1) = chi(g) rather than its conjugate, so small that Gershgorin
    # would settle every row feasible
    "chi-not-hermitian": (lambda: char_from_values(Z3, [1.0, *[0.1 * np.exp(0.3j)] * 2]),
                          NotHermitian, "chi(g^-1) deviates from conj chi(g) by 5.910e-02"),
    # 1.5 used to raise an IndexError from the array lookup
    "element-index-not-an-integer": (lambda: resource_measure_L(C6, 1.5),
                                     DomainError, "element index must be an integer, got 1.5"),
    # feasible_exact(c, c, "3", 1) answered for N = 3 and (c, c, True, True) for
    # N = M = 1; convergence_to_uniform(c, ["2"]) reported N = 2; a rate, error or
    # x given as a string raised a bare TypeError from a comparison
    **{f"{c}-{v}": (lambda call=call, value=value: call(value), DomainError, f"{head}, got {value!r}")
       for c, (call, head) in ILL_TYPED_CALLS.items() for v, value in NO_NUMBERS.items()},
    # min-copies at rate -1 used to blame a copy number, "got (5, -5)", at inf it
    # raised OverflowError and at nan a bare ValueError from math.floor; a NaN
    # certificate rate used to skip the certificate and report "not impossible"
    **{f"{c}-{value}": (gated(lambda call=call, value=value: call(value)), DomainError,
                        domain_message(gate, name, domain, value))
       for c, (call, gate, name, domain, *extra) in DOMAIN_CALLS.items()
       for value in outside(gate, domain, *extra)},
    # a list or array as one copy number raised a TypeError or a broadcast ValueError
    **{f"{c}-{v}": (lambda call=ILL_TYPED_CALLS[c][0], value=value: call(value), DomainError,
                    f"{COPY_NUMBER}, got {value!r}")
       for c in ONE_COPY_NUMBER for v, value in NOT_ONE_NUMBER.items()},
    # convergence_to_uniform takes a list of copy numbers, entry by entry: not
    # a nested list, not one number
    **{f"convergence_to_uniform-array-{v}": (
        lambda value=value: convergence_to_uniform(PSI, np.array([value])), DomainError,
        f"{COPY_NUMBER}, got {np.array([value])[0]!r}") for v, value in NO_NUMBERS.items()},
    "convergence_to_uniform-nested-list": (lambda: convergence_to_uniform(PSI, [[1, 2]]),
                                           DomainError, f"{COPY_NUMBER}, got [1, 2]"),
    "convergence_to_uniform-number": (lambda: convergence_to_uniform(PSI, 5), DomainError,
                                      "copy numbers must be a list of integers, got 5"),
    # ---- exact_rate
    "rate-on-two-groups": (lambda: exact_rate(C5, char_from_values(Z3, [1.0, 0.5, 0.5])),
                           GroupMismatch, "characteristic functions live on different groups"),
    # a rate outside (0, inf) is a DomainError, a row of DOMAIN_CALLS (nan
    # used to return 1, a promise of feasibility from one copy)
    **{f"copies-bound-at-rate-{r}": (lambda r=r: copies_bound(C6, C6, r), RateNotBelowOptimal,
                                     message)
       for r, message in ((1.0, "s = 1 >= 1 at rate 1.0"), (1.3, "s = 1.16561 >= 1 at rate 1.3"))},
    # ---- convertibility
    # the Hermitian Gram matrix needs f(g^-1) = conj f(g); 0.9 != 0.5 breaks it,
    # and no minimum eigenvalue is computed, so no NaN can pass as a verdict
    "gram-of-a-non-hermitian-function": (lambda: is_positive_definite(Z3, np.array([1.0, 0.5, 0.9])),
                                         NotHermitian, "f(g^-1) deviates from conj f(g) by 4.000e-01"),
    **{f"gram-of-a-function-with-{bad}": (
        lambda bad=bad: is_positive_definite(Z3, np.array([1.0, bad, bad])),
        NotHermitian, f"f(1) = {bad} is not finite") for bad in (np.nan, np.inf)},
    **{f"{name}-beyond-a-float-{case}": (lambda call=call, N=N, M=M: call(N, M), DomainError, message)
       for name, call in COPY_CALLS.items() for case, (N, M, message) in BEYOND_A_FLOAT.items()},
    # 5.0 used to raise a TypeError from range
    "min-copies-n-max-5.0": (lambda: minimal_copies_search(C6, C6, 1.0, 5.0),
                             DomainError, "n_max must be an integer, got 5.0"),
    # ---- abelian
    "abelian-basis-of-s3": (lambda: abelian_basis(named_group("S_3")),
                            NotAbelian, "multiplication table is not symmetric"),
    "charges-power-not-a-phase": (
        lambda: charge_distribution(NON_PHASE, PureState(2, np.array([1.0, 0.0]))),
        NotSimultaneouslyDiagonalizable,
        "U^2 for generator 1 is not a phase multiple of the identity"),
    # the Pauli rep X^a Z^b: X Z = -Z X, so no charge sectors
    "charges-of-a-non-commuting-rep": (
        lambda: charge_distribution(pauli_rep(), PureState(2, np.array([1.0, 0.0]))),
        NotSimultaneouslyDiagonalizable,
        "generator matrices do not commute (projective obstruction)"),
    "weights-of-two-shapes": (
        lambda: fourier_weights(FLAT, ChargeDistribution((3,), np.array([1.0, 0.0, 0.0])), 1, 1),
        ShapeMismatch, "shapes differ: (2,) vs (3,)"),
    # psi^0 is the trivial state: the Gram view refuses it, so does this one
    "weights-of-no-source-copies": (lambda: fourier_weights(FLAT, FLAT, 0, 1), DomainError,
                                    COPIES_FROM.format(1, 0)),
    # each used to pass the gate and fail later with a bare numpy ValueError
    **{f"distribution-shape-{case}": (
        lambda shape=shape, probs=probs: ChargeDistribution(shape, np.array(probs, dtype=float)),
        ShapeMismatch, f"shape {shape} needs one or more entries, each >= 1")
       for case, (shape, probs) in NOT_SHAPES.items()},
    # ---- approx
    "approx-on-two-groups": (lambda: approx_rate_class(DECAYING, C5),
                             GroupMismatch, "characteristic functions live on different groups"),
    "curve-of-a-non-subgroup-sym": (
        lambda: convergence_to_uniform(char_from_values(Z4, [1.0, 1.0, 0.5, 1.0]), [1]),
        SymNotSubgroup, "[0, 1, 3] is not closed under the group law"),
    # each used to be skipped: [0, 2] reported N = 2 only and [-3] an empty curve
    **{"curve-copies-" + ",".join(map(str, N_list)): (
        lambda N_list=N_list: convergence_to_uniform(DECAYING, N_list),
        DomainError, COPIES_FROM.format(1, bad))
       for N_list, bad in (([0, 2], 0), ([-3], -3), ([2, 0], 0))},
    # ---- lie
    "generators-not-hermitian": (
        lambda: GeneratorSet(2, np.array([[[0.0, 1.0], [0.0, 0.0]]])),
        DomainError, "generators deviate from Hermitian by 1.000e+00"),
    "generators-of-another-dimension": (lambda: GeneratorSet(3, np.zeros((1, 2, 2))),
                                        DimensionMismatch, "expected (m, 3, 3) generators, got (1, 2, 2)"),
    "generators-dim-2.0": (lambda: GeneratorSet(2.0, SPIN_HALF), DomainError,
                           "dim must be an integer, got 2.0"),
    "density-matrix-not-square": (lambda: qfim(np.full((2, 3), 0.5), SPIN),
                                  NotAState, "density matrix must be square, got (2, 3)"),
    "density-matrix-trace-two": (lambda: qfim(np.eye(2), SPIN), NotAState, "trace is (2+0j)"),
    "density-matrix-trace-1.4": (lambda: qfim(np.diag([0.7, 0.7]), SPIN),
                                 NotAState, "trace is (1.4+0j)"),
    "density-matrix-not-hermitian": (lambda: qfim(np.array([[1.0, 0.5], [0.0, 0.0]]), SPIN),
                                     NotAState, "density matrix is not Hermitian"),
    "qfim-self-check": (
        patched(lie, "symmetrized_covariance", lambda s, g: symmetrized_covariance(s, g) + 1e-6,
                lambda: qfim(pure_density(STATE), SPIN)),
        SelfCheckFailed, "spectral QFIM of a pure state differs from 4 Cov_sym"),
    **{f"{name}-{case}": (lambda call=call, a=a, b=b: call(a, b), error, message)
       for case, (a, b, error, message) in REJECTED_PENCILS.items()
       for name, call in PENCIL_CALLS.items()},
    # max(0.0, nan) keeps 0.0: a NaN theta once read as a perfect second-order fit
    **{f"clt-theta-{bad}": (
        lambda bad=bad: clt_diagnostic(STATE, SPIN, theta_grid(bad)),
        DomainError, "theta grid has a non-finite entry") for bad in (np.nan, np.inf, -np.inf)},
}


@pytest.mark.parametrize("call, error, message", LIBRARY_REFUSALS.values(), ids=LIBRARY_REFUSALS)
def test_a_library_refusal_is_typed_and_says_why(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message
