"""Exact small-system spin-glass computations and the disorder scaling coupling.

The Hamiltonian is the pairwise mean-field form n^(-1/2) sum_{i<j} g_ij s_i s_j
with no external field.  All thermodynamic quantities come from exact
enumeration of the 2^n spin configurations, done by a meet-in-the-middle split:
each half of the spins is enumerated on its own and the cross term joining the
halves is one matrix product.  Dividing every coupling by
(1 - alpha/n) scales all energies, the free energy gap obeys a Jensen lower
bound, and the ground state scales exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SAFE_SUM, ShapeError, SizeError, real, reals, whole

MAX_SPINS = 20


@dataclass(frozen=True)
class SKDisorder:
    """Symmetric pair couplings, stored as the flat upper triangle (i < j), each
    at most SAFE_SUM / (2 pairs) in size so that no energy sum overflows."""

    n: int
    couplings: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", whole(self.n, "n"))
        pairs = self.n * (self.n - 1) // 2
        # a partial sum of enumerate_energies adds at most 2 pairs couplings
        bound = SAFE_SUM / (2 * max(pairs, 1))  # one spin has no pair
        g = reals(self.couplings, "couplings", (pairs,), -bound, bound, "[]")
        object.__setattr__(self, "couplings", g)

    def coupling_matrix(self):
        """Dense symmetric matrix with zero diagonal."""
        mat = np.zeros((self.n, self.n))
        mat[_upper_triangle(self.n)] = self.couplings
        return mat + mat.T


@lru_cache(maxsize=MAX_SPINS)  # the last MAX_SPINS sizes
def _upper_triangle(n):
    """Frozen row and column indices of the i < j entries of an n x n matrix."""
    rows, cols = np.triu_indices(n, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


@dataclass(frozen=True)
class SKResult:
    """Free energy and Gibbs-average energy at one temperature."""

    free_energy: float
    gibbs_energy: float


def enumerate_energies(dis):
    """Energies of all 2^n configurations by a meet-in-the-middle split.

    Entry ``E[b]`` is the energy of the configuration whose spin j is -1
    exactly when bit j of b is set.  The low n // 2 spins and the high spins
    are enumerated separately and joined by one matrix product for the cross
    term.  The high spins index the rows of the joined table, so its ravel
    keeps that bit order; it is built in place, in 8 * 2^n bytes.  The half
    spin tables ``_spin_table(k)``, k <= MAX_SPINS / 2, and the indices
    ``_upper_triangle(n)`` of ``coupling_matrix`` are cached, frozen.
    """
    n = dis.n
    if n < 2:
        raise SizeError(f"need at least 2 spins, got {n}")
    if n > MAX_SPINS:
        raise SizeError(f"exact enumeration capped at {MAX_SPINS} spins, got {n}")
    mat = dis.coupling_matrix()
    h = n // 2
    s_lo, s_hi = _spin_table(h), _spin_table(n - h)
    e_lo = 0.5 * np.einsum("ci,ij,cj->c", s_lo, mat[:h, :h], s_lo)
    e_hi = 0.5 * np.einsum("ci,ij,cj->c", s_hi, mat[h:, h:], s_hi)
    table = s_hi @ (mat[h:, :h] @ s_lo.T)
    table += e_hi[:, None]
    table += e_lo[None, :]
    table /= math.sqrt(n)
    return table.ravel()


@lru_cache(maxsize=None)
def _spin_table(k):
    """All 2^k configurations of k spins, row c having spin j = -1 on bit j of c."""
    table = 1.0 - 2.0 * ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1)
    table.flags.writeable = False
    return table


def result_from_energies(energies, beta):
    """Thermodynamics from a non-empty 1-D table of energies, each at most
    SAFE_SUM / max(2 beta, 1) in size."""
    beta = real(beta, "beta", 0, math.inf, "[)")
    # |beta E| <= SAFE_SUM / 2 keeps beta E - top, and |E| <= SAFE_SUM the mean
    bound = SAFE_SUM / max(2 * beta, 1.0)
    energies = reals(energies, "energies", (None,), -bound, bound, "[]")
    if energies.size == 0:
        raise ShapeError("energy table must be non-empty")
    top = beta * float(energies.max())
    # one exp pass gives both: free = log sum exp(beta E) and the Gibbs weights
    weights = np.exp(beta * energies - top)
    total = weights.sum()
    return SKResult(
        free_energy=float(top + math.log(total)),
        gibbs_energy=float((weights / total) @ energies),
    )


def _check_table_length(energies, n):
    if np.shape(energies) != (1 << n,):
        raise ShapeError(
            f"need 2^{n} = {1 << n} energies, got shape {np.shape(energies)}"
        )


def _shrink(n, alpha):
    """The factor 1 - alpha/n, for alpha/n in (-1/2, 1/2)."""
    return 1.0 - real(real(alpha, "alpha") / n, "alpha / n", -0.5, 0.5)


def scale_disorder(dis, alpha):
    """Divide every coupling by (1 - alpha/n)."""
    return SKDisorder(dis.n, dis.couplings / _shrink(dis.n, alpha))


def jensen_gap_check(dis, alpha, beta, energies, scaled_energies):
    """Free-energy gap against its Jensen lower bound.

    Returns (lhs, rhs, holds) where lhs is the scaled-minus-base free energy
    difference and rhs = beta * alpha * <H>_beta / (n (1 - alpha/n)).
    ``energies`` and ``scaled_energies`` are the 2^n energy tables of the
    disorder and of its scaled copy, from ``enumerate_energies``.
    """
    alpha, beta = real(alpha, "alpha"), real(beta, "beta")
    shrink = _shrink(dis.n, alpha)
    # these check that each table is a 1-D array of reals, so np.shape works
    base = result_from_energies(energies, beta)
    scaled = result_from_energies(scaled_energies, beta)
    _check_table_length(energies, dis.n)
    _check_table_length(scaled_energies, dis.n)
    lhs = scaled.free_energy - base.free_energy
    rhs = beta * alpha * base.gibbs_energy / (dis.n * shrink)
    return lhs, rhs, bool(lhs >= rhs - 1e-10)
