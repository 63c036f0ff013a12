"""Seeded groups with representations, states and reference values.

A `Case` is one group table with one representation and a pair of states
psi, phi whose characteristic functions have no zeros and sym(phi) = {e}, so
the exact rate is a plain minimum of log-modulus ratios. States are drawn
from the seeded generator until they meet the case's conditions, which keeps
every instance inside the regime its checks assume.
"""

from __future__ import annotations

import math

import numpy as np

import inputs as I

MAX_ABS = 0.9  # largest |chi(g)| allowed off the identity
MIN_ABS = 1e-3  # smallest |chi(g)| allowed anywhere
LOG_FLOAT_RANGE = 600.0  # M |log lambda_q| kept below this on the Fourier path


class Inadmissible(Exception):
    """No state drawn for this representation meets the case's conditions."""


class Case:
    def __init__(self, label, table, mats, rng, *, abelian=None, n_max=None):
        self.label = label
        self.table = np.asarray(table)
        self.n = len(self.table)
        self.inv = I.inverses(self.table)
        self.mats = mats
        self.d = mats.shape[1]
        self.abelian = abelian  # (coords, moduli, charges, V) for abelian reps
        self.n_max = n_max  # n_max of the below-rate search with copies_bound < n_max
        self.psi = self._draw(rng)
        self.phi = self._draw(rng)
        self.chi_psi, self.chi_phi = self.chi(self.psi), self.chi(self.phi)
        self.pair = I.RatePair(self.chi_psi, self.chi_phi)

    def chi(self, psi):
        if self.abelian is not None:
            coords, moduli, charges, V = self.abelian
            return I.chi_from_charges(coords, moduli, charges, V, psi)
        return I.chi_from_mats(self.mats, psi)

    def _draw(self, rng):
        for _ in range(2000):
            psi = I.random_state(self.d, rng)
            mod = np.abs(self.chi(psi).values)
            top = mod[1:].max()
            if top > MAX_ABS or mod.min() < MIN_ABS:
                continue
            # a below-rate search must be able to place copies_bound under n_max
            if self.n_max and 2 * math.log(self.n) / -math.log(top) + 1 > self.n_max / 2:
                continue
            return psi
        raise Inadmissible(f"{self.label}: no admissible state drawn")

    # rates and copy numbers placed relative to this case's references
    def rate_with_bound(self, target):
        """Largest rate r (to 1e-9) with copies_bound(r) <= target."""
        lo, hi = 0.0, self.pair.rate
        for _ in range(60):
            mid = (lo + hi) / 2
            if self.pair.bound(mid) <= target:
                lo = mid
            else:
                hi = mid
        return lo

    def rate_over(self, n_max):
        """A rate below the exact one whose copies_bound exceeds n_max."""
        r = self.pair.rate / 2
        return r if self.pair.bound(r) > n_max else self.rate_with_bound(4 * n_max)

    def rate_above(self, n_max):
        """A rate above the exact one where N = n_max already violates |f(g*)| <= 1."""
        L = -self.pair.lphi[self.pair.witness]
        return 1.2 * self.pair.rate + (math.log(1.01) / L + 1.0) / n_max

    def infeasible_point(self, N):
        """(N, M) with |f(witness)| >= 1.01, so M / N exceeds the rate by a clear margin."""
        L = -self.pair.lphi[self.pair.witness]
        return N, math.floor(self.pair.rate * N + math.log(1.01) / L) + 1


# ------------------------------------------------------------ builders


def abelian_case(label, moduli, d, n_sectors, rng, *, spanning=False, every_charge=False,
                 n_max=None):
    """V diag(characters) V^+ on Z_m1 x ... x Z_mk; d > n_sectors makes charges degenerate."""
    table, coords = I.abelian_table(moduli)
    k = len(moduli)
    for _ in range(100):  # charges that share a factor with the order admit no state
        charges = np.array([[rng.integers(0, m) for m in moduli] for _ in range(n_sectors)])
        if every_charge:  # Z_d with each charge 0..d-1 once
            charges = np.arange(d)[:, None]
        if spanning:  # unit charge vectors so the characters separate every element
            charges[:k + 1] = np.vstack([np.zeros(k, dtype=int), np.eye(k, dtype=int)])
        charges = charges[np.arange(d) % n_sectors]
        V = I.random_unitary(d, rng)
        mats = I.abelian_rep(coords, moduli, charges, V)
        try:
            return Case(label, table, mats, rng, abelian=(coords, moduli, charges, V), n_max=n_max)
        except Inadmissible:
            continue
    raise Inadmissible(f"{label}: no admissible charges drawn")


def dihedral_case(m, rng, n_max=None):
    ks = [1, 11, 30, 43, 50, 57, 62, 19]
    return Case(f"D_{m}", I.dihedral_table(m), I.dihedral_rep(m, ks, I.random_unitary(16, rng)),
                rng, n_max=n_max)


def symmetric_case(k, rng, n_max=None):
    table, perms = I.symmetric_table(k)
    return Case(f"S_{k}", table, I.permutation_rep(perms, I.random_unitary(2 * k, rng)), rng,
                n_max=n_max)


def regular_case(label, table, rng, n_max=None):
    return Case(label, table, I.regular_rep(table), rng, n_max=n_max)


def fourier_pair(p_grid, q_grid):
    """RatePair in the dual picture: lambda(a) plays chi(g), label 0 plays e."""
    return I.RatePair(I.Chi(I.dual_coefficients(p_grid)), I.Chi(I.dual_coefficients(q_grid)))


def within_float_range(pair, M):
    """lambda_q^M stays a normal float; lambda_p^N may underflow to 0 harmlessly."""
    return -M * pair.lphi.min() <= LOG_FLOAT_RANGE
