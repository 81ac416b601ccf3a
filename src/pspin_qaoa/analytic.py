"""Closed-form depth-1 preparation and the parameter-space symmetry group.

For h=0 and odd N the ground state is reachable with a single step: the pair
(pi/4, pi/4) works for odd p, while even p needs gamma = 2 pi / 2^(k+4) with
k from the decomposition p = 2^(k+1) + n 2^k, n a multiple of 4.  That
divisibility condition pins k uniquely: 2^(k+1) must be the largest power of
two dividing p.  The supporting modular identity
m^(2^(k+1)+n 2^k) mod 2^(k+4) = f(m) 2^(k+3) + 1 (m odd, 4 | n) is checked
exhaustively by the test suite rather than re-proved.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, pi
from typing import Optional

import numpy as np

from .engine import QaoaParams


@dataclass(frozen=True)
class EvenPDecomposition:
    k: int
    n: int

    def reconstruct(self) -> int:
        return 2 ** (self.k + 1) + self.n * 2**self.k

    @property
    def gamma(self) -> float:
        return 2.0 * pi / 2 ** (self.k + 4)


@dataclass(frozen=True)
class SymmetryTransform:
    """One row of the symmetry table: negate everything, or shift one angle."""

    kind: str  # "negate_all" | "beta_shift" | "gamma_shift"
    shift: float = 0.0

    def apply(self, params: QaoaParams, component: int = 0) -> QaoaParams:
        if self.kind == "negate_all":
            return QaoaParams(gammas=-params.gammas, betas=-params.betas)
        if self.kind == "beta_shift":
            betas = params.betas.copy()
            betas[component] += self.shift
            return QaoaParams(gammas=params.gammas, betas=betas)
        if self.kind == "gamma_shift":
            gammas = params.gammas.copy()
            gammas[component] += self.shift
            return QaoaParams(gammas=gammas, betas=params.betas)
        raise ValueError(f"unknown transform kind {self.kind!r}")


def f_of_m(m: int) -> int:
    """0 if M = +-1 mod 8, 1 if M = +-3 mod 8; defined for odd M only."""
    if m % 2 == 0:
        raise ValueError(f"M must be odd, got {m}")
    r = m % 8
    return 0 if r in (1, 7) else 1


def even_p_decomposition(p: int) -> EvenPDecomposition:
    """The unique decomposition p = 2^(k+1) + n 2^k with n a multiple of 4.

    Writing p = 2^j q with q odd forces k = j - 1 and n = 2(q - 1): demanding
    4 | n is what makes the power identity (and hence the depth-1 angle) work,
    and no other k satisfies it.
    """
    if p % 2 != 0 or p < 2:
        raise ValueError(f"p must be even and >= 2, got {p}")
    k = 0
    while p % 2 ** (k + 2) == 0:
        k += 1
    n = p // 2**k - 2
    assert n % 4 == 0 and 2 ** (k + 1) + n * 2**k == p
    return EvenPDecomposition(k=k, n=n)


def all_even_p_decompositions(p: int) -> list[EvenPDecomposition]:
    """Every integer representation p = 2^(k+1) + n 2^k, valid or not.

    Only the entry with 4 | n (there is exactly one) gives an exact depth-1
    angle; the rest exist so callers can probe why the condition matters.
    """
    if p % 2 != 0 or p < 2:
        raise ValueError(f"p must be even and >= 2, got {p}")
    out = []
    k = 0
    while 2 ** (k + 1) <= p:
        rem = p - 2 ** (k + 1)
        if rem % 2**k == 0:
            out.append(EvenPDecomposition(k=k, n=rem // 2**k))
        k += 1
    return out


def exact_p1_params(p: int, n_sites: int) -> Optional[tuple[float, float]]:
    """Depth-1 (gamma, beta) reaching the h=0 ground state, or None for even N."""
    if p < 2 or n_sites < 1:
        raise ValueError("need p >= 2 and n_sites >= 1")
    if n_sites % 2 == 0:
        return None
    if p % 2 == 1:
        return (pi / 4.0, pi / 4.0)
    dec = even_p_decomposition(p)
    return (dec.gamma, pi / 4.0)


def verify_power_identity(k: int, n: int, m: int) -> bool:
    """Check m^(2^(k+1)+n 2^k) mod 2^(k+4) == f(m) 2^(k+3) + 1 for odd m.

    Holds for every odd m exactly when n is a multiple of 4 (n = 0 included);
    for other n the left side picks up an extra power of m and the claim fails.
    """
    if m % 2 == 0:
        raise ValueError(f"m must be odd, got {m}")
    if k < 0 or n < 0:
        raise ValueError("k and n must be natural numbers")
    exponent = 2 ** (k + 1) + n * 2**k
    modulus = 2 ** (k + 4)
    return pow(m, exponent, modulus) == f_of_m(m) * 2 ** (k + 3) + 1


def p1_fidelity_closed_form(p: int, n_sites: int, gamma: float) -> float:
    """Magnetization-resolved depth-1 fidelity at beta = pi/4.

    Evaluates the binomial-weighted phase sum directly (O(N) work), giving an
    oracle independent of the circuit simulation.
    """
    if n_sites < 1:
        raise ValueError(f"n_sites must be >= 1, got {n_sites}")
    total = 0.0 + 0.0j
    norm = 2.0**n_sites
    for k in range(n_sites + 1):
        m = n_sites - 2 * k
        mp = m**p
        weight = comb(n_sites, k) / norm
        if p % 2 == 1:
            total += weight * np.exp(1j * (gamma * mp + 0.5 * pi * k))
        else:
            if n_sites % 2 == 0:
                raise ValueError("even-p closed form requires odd N")
            total += weight * np.exp(1j * (gamma * mp - pi * f_of_m(m)))
    return float(abs(total) ** 2)


def symmetry_group(p: int, n_sites: int) -> list[SymmetryTransform]:
    """The energy-preserving transforms for given parities of p and N."""
    beta_shift = pi if p % 2 == 1 else pi / 2.0
    gamma_shift = pi if n_sites % 2 == 1 else pi / 2 ** (p - 1)
    return [
        SymmetryTransform(kind="negate_all"),
        SymmetryTransform(kind="beta_shift", shift=beta_shift),
        SymmetryTransform(kind="gamma_shift", shift=gamma_shift),
    ]


def canonicalize(params: QaoaParams, p: int, n_sites: int) -> QaoaParams:
    """Fold every angle into [0, period) for its symmetry-table period."""
    beta_period = pi if p % 2 == 1 else pi / 2.0
    gamma_period = pi if n_sites % 2 == 1 else pi / 2 ** (p - 1)
    return QaoaParams(
        gammas=np.mod(params.gammas, gamma_period),
        betas=np.mod(params.betas, beta_period),
    )
