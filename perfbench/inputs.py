"""Seeded inputs for the benchmark and the reference values its checks use.

Group tables, representation matrices and states are generated here from a
seed. Every reference value (characteristic functions, exact rates, copy
bounds, Gram eigenvalues, sector weights, Fisher matrices) is computed from
those matrices with numpy and scipy alone, so no check compares the program
with itself or with a stored copy of its output.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy import linalg as sla

TOL_PSD = 1e-9  # the program's default Gram tolerance, applied as -TOL_PSD * |G|


# ------------------------------------------------------------------ groups


def abelian_table(moduli):
    """Z_m1 x ... x Z_mk, elements in row-major mixed-radix order."""
    coords = np.array(list(itertools.product(*[range(m) for m in moduli])), dtype=np.intp)
    radix = np.array([int(np.prod(moduli[i + 1:])) for i in range(len(moduli))], dtype=np.intp)
    summed = (coords[:, None, :] + coords[None, :, :]) % np.array(moduli)
    return summed @ radix, coords


def dihedral_table(m):
    """Dihedral group of order 2m; r^i s^a has index i + m*a and s r = r^-1 s."""
    i = np.arange(2 * m) % m
    a = np.arange(2 * m) // m
    sign = np.where(a == 1, -1, 1)
    rot = (i[:, None] + sign[:, None] * i[None, :]) % m
    return rot + m * ((a[:, None] + a[None, :]) % 2)


def symmetric_table(k):
    """S_k on sorted permutations (identity first); (p q)(x) = p(q(x))."""
    perms = sorted(itertools.permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    table = np.array([[index[tuple(p[x] for x in q)] for q in perms] for p in perms])
    return table, perms


# ------------------------------------------------------- representations


def random_unitary(d, rng):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(d, rng):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def conjugate(mats, V):
    return V @ mats @ V.conj().T


def abelian_rep(coords, moduli, charges, V):
    """V diag(exp(2 pi i q.x / m)) V^+ for charge vectors q (rows of charges)."""
    phase = (coords[:, None, :] * charges[None, :, :] / np.array(moduli)).sum(axis=2)
    diag = np.exp(2j * np.pi * phase)
    mats = np.zeros((len(coords), len(charges), len(charges)), dtype=complex)
    idx = np.arange(len(charges))
    mats[:, idx, idx] = diag
    return conjugate(mats, V)


def dihedral_rep(m, ks, V):
    """Direct sum of the 2-dim irreps r -> rotation by 2 pi k / m, s -> diag(1, -1)."""
    mats = np.zeros((2 * m, 2 * len(ks), 2 * len(ks)), dtype=complex)
    for b, k in enumerate(ks):
        for g in range(2 * m):
            i, a = g % m, g // m
            t = 2 * np.pi * k * i / m
            R = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
            mats[g, 2 * b:2 * b + 2, 2 * b:2 * b + 2] = R @ np.diag([1.0, -1.0 if a else 1.0])
    return conjugate(mats, V)


def permutation_rep(perms, V):
    """Permutation matrices plus a sign-twisted copy: P(p) (+) sgn(p) P(p)."""
    k = len(perms[0])
    mats = np.zeros((len(perms), 2 * k, 2 * k), dtype=complex)
    for g, p in enumerate(perms):
        sgn = np.linalg.det(np.eye(k)[list(p)])
        for x in range(k):
            mats[g, p[x], x] = 1.0
            mats[g, k + p[x], k + x] = sgn
    return conjugate(mats, V)


def regular_rep(table):
    """Left regular representation: U(g) e_h = e_{gh}."""
    n = len(table)
    mats = np.zeros((n, n, n))
    for g in range(n):
        mats[g, table[g], np.arange(n)] = 1.0
    return mats.astype(complex)


def spin_generators(twice_j):
    """(J_x, J_y, J_z) of spin j = twice_j / 2, dimension 2j + 1."""
    j = twice_j / 2.0
    m = j - np.arange(twice_j + 1)
    jp = np.diag(np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    return np.array([(jp + jp.conj().T) / 2, (jp - jp.conj().T) / 2j, np.diag(m).astype(complex)])


def random_generators(m, d, rng):
    z = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
    return (z + z.conj().transpose(0, 2, 1)) / 2


def random_mixed(d, rng):
    """Full-rank density matrix with a spread spectrum."""
    V = random_unitary(d, rng)
    p = rng.uniform(0.2, 1.0, d)
    return (V * (p / p.sum())) @ V.conj().T


# ------------------------------------------------------------ references


class Chi:
    """chi(g) = <psi|U(g)|psi> kept as log-modulus and phase."""

    def __init__(self, values):
        values = np.asarray(values, dtype=complex)
        self.values = values
        self.logabs = np.log(np.abs(values))
        self.phase = np.angle(values)


def chi_from_mats(mats, psi):
    return Chi((mats @ psi) @ psi.conj())


def chi_from_charges(coords, moduli, charges, V, psi):
    """The same chi from the eigen-decomposition alone: sum_j |c_j|^2 e^{2 pi i q_j.x / m}."""
    w = np.abs(V.conj().T @ psi) ** 2
    phase = (coords[:, None, :] * charges[None, :, :] / np.array(moduli)).sum(axis=2)
    return Chi(np.exp(2j * np.pi * phase) @ w)


def sector_weights(charges, V, psi, size):
    """Weight of psi in each joint charge sector, zero-padded to the group order."""
    w = np.abs(V.conj().T @ psi) ** 2
    out = {}
    for q, x in zip(map(tuple, charges), w):
        out[q] = out.get(q, 0.0) + x
    return np.sort(np.array(list(out.values()) + [0.0] * (size - len(out))))


def generic_pair(chi_psi, chi_phi, e=0):
    """Assert the rate formula's simple case: sym(phi) = {e} and no zeros."""
    others = np.arange(len(chi_phi.values)) != e
    if not (chi_phi.logabs[others].max() < -1e-6 and np.all(np.isfinite(chi_psi.logabs))
            and np.all(np.isfinite(chi_phi.logabs)) and chi_psi.logabs[others].max() < -1e-6):
        raise ValueError("generated states are not generic")


class RatePair:
    """Exact rate, witness set and copy bounds for psi -> phi, sym(phi) = {e}."""

    def __init__(self, chi_psi, chi_phi, e=0):
        generic_pair(chi_psi, chi_phi, e)
        self.n = len(chi_psi.values)
        self.keep = np.arange(self.n) != e
        self.lpsi, self.lphi = chi_psi.logabs, chi_phi.logabs
        self.tpsi, self.tphi = chi_psi.phase, chi_phi.phase
        ratios = self.lpsi[self.keep] / self.lphi[self.keep]
        self.rate = float(ratios.min())
        self.witness = int(np.arange(self.n)[self.keep][np.argmin(ratios)])
        self.ratios = np.full(self.n, np.inf)
        self.ratios[self.keep] = ratios

    def log_s(self, r):
        return float((self.lpsi[self.keep] - r * self.lphi[self.keep]).max())

    def bound(self, r):
        """ceil(2 ln|G| / -ln s) + 1; sub-rate conversion is a theorem from here on."""
        return math.ceil(2.0 * math.log(self.n) / -self.log_s(r)) + 1

    def feasible_point(self, r, N):
        """(N, floor(rN)) with N at or above the copy bound: feasible by the theorem."""
        return max(N, self.bound(r)), math.floor(r * max(N, self.bound(r)) + 1e-12)

    def gram_min_eig(self, table, inv, N, M):
        """Minimum eigenvalue of M[g, h] = f(g^-1 h), f = chi_psi^N / chi_phi^M in log space."""
        f = np.exp(N * self.lpsi - M * self.lphi + 1j * (N * self.tpsi - M * self.tphi))
        G = f[table[inv, :]]
        return float(sla.eigvalsh((G + G.conj().T) / 2, subset_by_index=[0, 0])[0])

    def feasible_ref(self, table, inv, N, M):
        return self.gram_min_eig(table, inv, N, M) >= -TOL_PSD * self.n


def inverses(table):
    e = int(np.where((table == np.arange(len(table))).all(axis=1))[0][0])
    return np.argmax(table == e, axis=1)


def dual_coefficients(grid):
    """lambda(a) = sum_k p_k exp(2 pi i a.k / m) by explicit character sums."""
    moduli = grid.shape
    labels = np.array(list(itertools.product(*[range(m) for m in moduli])))
    phase = (labels[:, None, :] * labels[None, :, :] / np.array(moduli)).sum(axis=2)
    return np.exp(2j * np.pi * phase) @ grid.ravel()


def cov_sym(psi, gens):
    """4 Cov_sym: 2 <{X_i, X_j}> - 4 <X_i><X_j>, straight from the matrices."""
    m = len(gens)
    out = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            anti = gens[i] @ gens[j] + gens[j] @ gens[i]
            out[i, j] = 2 * np.real(psi.conj() @ anti @ psi) - 4 * np.real(
                psi.conj() @ gens[i] @ psi) * np.real(psi.conj() @ gens[j] @ psi)
    return out


def qfim_sld(rho, gens):
    """SLD Fisher matrix of a full-rank rho: solve rho L + L rho = 2 d(rho), F = Re Tr(d(rho_i) L_j)."""
    drho = [-1j * (X @ rho - rho @ X) for X in gens]
    L = [sla.solve_sylvester(rho, rho, 2 * dr) for dr in drho]
    return np.array([[np.real(np.trace(di @ Lj)) for Lj in L] for di in drho])


def rf_ref(F_psi, F_phi):
    """sup{r : F_psi - r F_phi >= 0} by a generalized eigenproblem on a positive definite side."""
    if np.linalg.eigvalsh(F_phi)[0] > 1e-8 * np.abs(F_phi).max():
        return max(float(sla.eigh(F_psi, F_phi, eigvals_only=True)[0]), 0.0)
    return 1.0 / float(sla.eigh(F_phi, F_psi, eigvals_only=True)[-1])


def g_ref(x):
    return x ** (x / (1 - x)) - x ** (1 / (1 - x)) if x > 0 else 1.0


def clt_ref(psi, gens, thetas):
    """max |log <psi|exp(-i theta.X)|psi> - (-i theta.<X> - theta F theta / 8)| via expm."""
    means = np.array([np.real(psi.conj() @ X @ psi) for X in gens])
    F = cov_sym(psi, gens)
    worst = 0.0
    for th in thetas:
        chi = psi.conj() @ sla.expm(-1j * np.tensordot(th, gens, axes=1)) @ psi
        worst = max(worst, abs(np.log(chi) - (-1j * th @ means - th @ F @ th / 8)))
    return worst
