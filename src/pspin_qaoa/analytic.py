"""Closed-form depth-1 preparation.

For h=0 and odd N the ground state is reachable with a single step: the pair
(pi/4, pi/4) works for odd p, while even p needs gamma = 2 pi / 2^(k+4) with
k from the decomposition p = 2^(k+1) + n 2^k, n a multiple of 4.  That
divisibility condition pins k uniquely: writing p = 2^j q with q odd forces
k = j - 1 and n = 2(q - 1), so 2^(k+1) is the largest power of two dividing
p and gamma = pi / (4 (p & -p)).  The supporting modular identity
m^(2^(k+1)+n 2^k) mod 2^(k+4) = f(m) 2^(k+3) + 1 (m odd, 4 | n) is checked
exhaustively by the test suite rather than re-proved.
"""

from __future__ import annotations

from math import pi
from typing import Optional

from .sector import ProblemSpec


def exact_p1_params(p: int, n_sites: int) -> Optional[tuple[float, float]]:
    """Depth-1 (gamma, beta) reaching the h=0 ground state, or None for even N."""
    spec = ProblemSpec(n_sites, p)
    p, n_sites = spec.p_exponent, spec.n_sites
    if n_sites % 2 == 0:
        return None
    if p % 2 == 1:
        return (pi / 4.0, pi / 4.0)
    return (pi / (4 * (p & -p)), pi / 4.0)
