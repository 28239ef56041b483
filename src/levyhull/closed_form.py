"""Closed-form expectations for convex hulls of random paths.

Deterministic double-precision evaluations used as analytic targets by the
Monte Carlo layer. Nothing in this module draws random numbers; every
function is pure and fast enough to call inside a test loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, ParameterError, ResourceError, _count, _real

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "gamma_fn",
    "unit_ball_volume",
    "ball_intrinsic_volume",
    "ev_intrinsic_stable",
    "ev_intrinsic_isotropic",
    "dirichlet_constant",
    "lattice_sum_partial",
    "expected_faces_at_origin",
    "prob_origin_outside_walk_hull",
    "walk_ev_intrinsic",
    "ev_sup_brownian_pow",
    "ClosedFormTarget",
]

def gamma_fn(x: float) -> float:
    """Gamma function for real ``x`` with poles rejected.

    Integer and half-integer arguments use the exact recurrences
    (factorials, and the double-factorial ladder from gamma(1/2)), so
    identities like gamma(1.5) = sqrt(pi)/2 hold bit-for-bit; ``math.gamma``
    does not give that. Other arguments go to ``math.gamma``. Non-positive
    integers raise ``DomainError``.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"gamma_fn needs a finite argument, got {x!r}")
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"gamma_fn has a pole at {x!r}")
    if x >= 0.5 and x <= 171.0 and 2.0 * x == math.floor(2.0 * x):
        if x == math.floor(x):
            return float(math.factorial(int(x) - 1))
        acc = math.sqrt(math.pi)
        for i in range(int(x - 0.5)):
            acc *= i + 0.5
        return acc
    return math.gamma(x)


def unit_ball_volume(d: int) -> float:
    """Volume of the d-dimensional unit ball, pi^(d/2) / gamma(d/2 + 1).

    d = 0 counts the point and gives 1, which keeps quotient formulas
    valid at j = d.
    """
    d = _count("d", d, 0)
    return math.pi ** (d / 2.0) / gamma_fn(d / 2.0 + 1.0)


def ball_intrinsic_volume(d: int, j: int, r: float) -> float:
    """Intrinsic volume V_j of a radius-r ball in R^d.

    binom(d, j) * kappa_d / kappa_{d-j} * r^j, so V_0 = 1 and V_d is the
    ordinary volume.
    """
    d, j = _count("d", d), _count("j", j, 0)
    if j > d:
        raise ParameterError(f"j must lie in 0..{d}, got {j}")
    r = _real("r", r, ge=0)
    return (
        math.comb(d, j)
        * unit_ball_volume(d)
        / unit_ball_volume(d - j)
        * r**j
    )


def ev_intrinsic_stable(alpha: float, j: int, vj_zonoid: float) -> float:
    """Expected V_j of the time-one path hull of a strictly stable process.

    The hull expectation equals a ratio of gamma factors times the same
    intrinsic volume of the process's associated zonoid:

        gamma(1 - 1/alpha)^j gamma(1/alpha)^j
        ------------------------------------- * vj_zonoid
              pi^j gamma(j/alpha + 1)

    ``vj_zonoid`` is V_j of the zonoid, supplied by the caller.
    """
    alpha = _real("alpha", alpha, gt=1, le=2, error=DomainError)
    j = _count("j", j)
    vj_zonoid = _real("vj_zonoid", vj_zonoid, ge=0)
    num = (gamma_fn(1.0 - 1.0 / alpha) * gamma_fn(1.0 / alpha)) ** j
    return num / (math.pi**j * gamma_fn(j / alpha + 1.0)) * vj_zonoid


def ev_intrinsic_isotropic(alpha: float, c: float, d: int, j: int) -> float:
    """Expected V_j for the isotropic stable process with exponent c |u|^alpha.

    The associated zonoid is the ball of radius c^(1/alpha), so this is
    ``ev_intrinsic_stable`` fed with the matching ball intrinsic volume.
    """
    alpha = _real("alpha", alpha, gt=1, le=2, error=DomainError)
    c = _real("c", c, gt=0)
    vj = ball_intrinsic_volume(d, j, c ** (1.0 / alpha))
    return ev_intrinsic_stable(alpha, j, vj)


def dirichlet_constant(alpha: float, j: int) -> float:
    """gamma(1/alpha)^j / gamma(j/alpha + 1), the limit of the lattice sums."""
    alpha = _real("alpha", alpha, gt=0, le=2, error=DomainError)
    j = _count("j", j)
    return gamma_fn(1.0 / alpha) ** j / gamma_fn(j / alpha + 1.0)


_LATTICE_MAX_N = {1: 10**7, 2: 10**6, 3: 4000}


def lattice_sum_partial(alpha: float, j: int, n: int) -> float:
    """Normalised partial lattice sum

        n^(-j/alpha) * sum_{i_1 + ... + i_j <= n, i_k >= 1}
                       (i_1 ... i_j)^(1/alpha - 1)

    for j in {1, 2, 3}. Converges to ``dirichlet_constant(alpha, j)`` as n
    grows. Uses prefix sums (j = 2) and exact discrete convolution (j = 3),
    never a brute-force j-fold loop.
    """
    alpha = _real("alpha", alpha, gt=0, le=2, error=DomainError)
    j = _count("j", j)
    if j > 3:
        raise ParameterError(f"j must be 1, 2 or 3, got {j}")
    n = _count("n", n, j)
    if n > _LATTICE_MAX_N[j]:
        raise ResourceError(
            f"lattice sum with j={j} capped at n={_LATTICE_MAX_N[j]}, got {n}"
        )
    expo = 1.0 / alpha - 1.0
    i = np.arange(1, n + 1, dtype=np.float64)
    w = i**expo
    if j == 1:
        total = float(w.sum())
    elif j == 2:
        # sum over i1 of w[i1] * (prefix sum of w up to n - i1)
        prefix = np.cumsum(w)
        total = float(w[: n - 1] @ prefix[n - 2 :: -1])
    else:
        # Pair weights by total s = i1 + i2 via convolution, then close
        # the triple sum with a prefix over the remaining budget.
        pair = np.convolve(w, w)[: n - 1]  # index s-2 holds sum over i1+i2=s
        pair_prefix = np.cumsum(pair)
        # for i3 = k the pair budget is n - k, i.e. s in [2, n-k]
        total = float(w[: n - 2] @ pair_prefix[n - 3 :: -1])
    return n ** (-j / alpha) * total


def _double_factorial_ratios(m: int) -> np.ndarray:
    """r[k] = (2k-1)!! / (2k)!! for k = 0..m, computed by recurrence."""
    r = np.empty(m + 1, dtype=np.float64)
    r[0] = 1.0
    for k in range(1, m + 1):
        r[k] = r[k - 1] * (2 * k - 1) / (2 * k)
    return r


def expected_faces_at_origin(n: int, d: int) -> float:
    """Expected number of hull facets containing the starting point of an
    n-step Gaussian random walk in R^d, for d in {2, 3}.

    Evaluates the exact combinatorial sum

        2 * sum_{1 <= i_2 < ... < i_d <= n}
            (2n - 2 i_d - 1)!! / (i_2 (2n - 2 i_d)!!)
            * prod_{k=2}^{d-1} 1 / (i_{k+1} - i_k)

    with the convention (-1)!! = 0!! = 1. Double factorials only ever enter
    through the bounded ratio (2k-1)!!/(2k)!!, updated iteratively, so no
    factorial is materialised. For d = 3 the inner index collapses by
    partial fractions, giving an O(n) evaluation.
    """
    n, d = _count("n", n), _count("d", d)
    if d not in (2, 3):
        raise ParameterError(f"d must be 2 or 3, got {d}")
    if n < d - 1:
        return 0.0
    if n > 10**7:
        raise ResourceError(f"face-count sum capped at n=10^7, got {n}")
    r = _double_factorial_ratios(n)
    idx = np.arange(1, n + 1, dtype=np.float64)
    if d == 2:
        # single index i = i_2
        return 2.0 * float((r[n - 1 :: -1] / idx).sum())
    # d == 3: sum over i_3 = t of r[n - t] * sum_{i_2 < t} 1/(i_2 (t - i_2)).
    # Partial fractions give the inner sum as (2/t) * H_{t-1}.
    harmonic = np.concatenate(([0.0], np.cumsum(1.0 / idx)))  # H_0..H_n
    t = np.arange(2, n + 1, dtype=np.float64)
    inner = 2.0 / t * harmonic[1:n]
    return 2.0 * float((r[n - 2 :: -1] * inner).sum())


def prob_origin_outside_walk_hull(n: int, d: int) -> Fraction:
    """Exact probability that the origin lies outside conv(S_1, ..., S_n)
    for an n-step walk in R^d with symmetric exchangeable increments in
    general position, whatever the step law (Kabluchko, Vysotsky &
    Zaporozhets 2017):

        2 (B(n, d-1) + B(n, d-3) + ...) / (2^n n!),

    B(n, k) the coefficient of t^k in (t + 1)(t + 3)...(t + 2n - 1). The
    product is expanded in integers up to t^(d-1), so the result is an
    exact ``Fraction``; it is 1 while n < d."""
    from fractions import Fraction  # here, not at import: it loads decimal

    n, d = _count("n", n), _count("d", d)
    if n > 10**4:
        raise ResourceError(f"integer expansion capped at n=10^4, got {n}")
    coef = [1] + [0] * (d - 1)  # B(i, 0..d-1) for i = 0, 1, ..., n
    for c in range(1, 2 * n, 2):
        for k in range(d - 1, 0, -1):
            coef[k] = c * coef[k] + coef[k - 1]
        coef[0] *= c
    return Fraction(2 * sum(coef[d - 1 :: -2]), 2**n * math.factorial(n))


def walk_ev_intrinsic(n: int, j: int, alpha: float, vj_zonoid: float) -> float:
    """Exact expected V_j of the hull of an n-step stable random walk.

    Combines the gamma prefactor with the finite lattice sum; as n grows
    this converges to ``ev_intrinsic_stable`` with the same arguments.
    """
    alpha = _real("alpha", alpha, gt=1, le=2, error=DomainError)
    vj_zonoid = _real("vj_zonoid", vj_zonoid, ge=0)
    lattice = lattice_sum_partial(alpha, j, n)  # checks j in 1..3 and n >= j
    pref = (gamma_fn(1.0 - 1.0 / alpha) / math.pi) ** j
    return vj_zonoid * pref * lattice


def ev_sup_brownian_pow(p: float) -> float:
    """p-th moment of the time-one running maximum of a variance-2
    one-dimensional Brownian motion.

    The running maximum of sqrt(2) W over [0, 1] has the law of
    sqrt(2) |N(0, 1)| by reflection, giving 2^p gamma((p+1)/2) / sqrt(pi).
    This is the directional support moment of the standard Brownian hull.
    """
    p = _real("p", p, ge=1, error=DomainError)
    return 2.0**p * gamma_fn((p + 1.0) / 2.0) / math.sqrt(math.pi)


@dataclass(frozen=True)
class ClosedFormTarget:
    """An analytic target value with the parameters that produced it."""

    value: float
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ParameterError(f"target value must be finite, got {self.value!r}")
