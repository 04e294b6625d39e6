"""Core certificate algebra: the coupling lemma, Hellinger/TV bounds, and
the Bernoulli mixing coupling with its exact total-variation formula.

The central inequality: for X, Y on one probability space and any interval
[a, b],

    P(a <= X <= b) <= (1 + P(|X - Y| <= b - a) + d_TV(law X, law Y)) / 2.

Everything in this module feeds that bound: analytic TV upper bounds from
affinity products, and Monte-Carlo estimates of the closeness probability
with a distribution-free confidence correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.special import gammaln

from .errors import DomainError, SizeError, real, reals, typed, whole

PLAN_KINDS = ("scale", "mixing", "nonlinear", "edge-graded")
#: a raw word w gives a uniform below 1/2 exactly when w < 2**63
_HALF_WORDS = np.uint64(2**63)


def tv_upper_from_affinity(rho):
    """Total variation is at most sqrt(1 - rho^2) at Hellinger affinity rho."""
    rho = real(rho, "rho", 0, 1, "[]")
    return math.sqrt((1.0 - rho) * (1.0 + rho))


@dataclass(frozen=True)
class PerturbationPlan:
    """Per-coordinate perturbation strengths with affinity lower bounds."""

    kind: str
    eps_values: np.ndarray
    affinity_lower_bounds: np.ndarray

    def __post_init__(self):
        if self.kind not in PLAN_KINDS:
            raise DomainError(f"unknown plan kind {self.kind!r}")
        eps = reals(self.eps_values, "eps", (None,))
        rho = reals(self.affinity_lower_bounds, "rho", eps.shape, 0, 1, "[]")
        if self.kind == "scale" and np.any(np.abs(eps) >= 0.5):
            raise DomainError("scale perturbations need |eps| < 1/2")
        object.__setattr__(self, "eps_values", eps)
        object.__setattr__(self, "affinity_lower_bounds", rho)


def product_tv_bound(plan):
    """TV bound sqrt(1 - prod rho_i^2) over the plan's coordinates."""
    rhos = typed(plan, PerturbationPlan, "plan").affinity_lower_bounds
    if np.any(rhos <= 0.0):
        return 1.0
    # 1 - prod(rho^2) evaluated in log space to keep precision near rho = 1
    log_sq = 2.0 * np.sum(np.log(rhos))
    # 0.0 - x is -x, except that it gives +0.0 rather than -0.0 at x = 0
    return math.sqrt(0.0 - math.expm1(min(log_sq, 0.0)))


@lru_cache(maxsize=None)
def _below_eps_words(eps):
    """The word bound W with (w >> 11) * 2**-53 + 2**-54 < eps exactly when w < W.

    The left side is the double that ``uniform_open`` makes from the raw word
    w, and it does not decrease in k = w >> 11.  So it lies below eps exactly
    when k < K, for K the smallest k whose double reaches eps.  K lies within
    a step of floor(eps * 2**53), and each step evaluates the same double.
    """
    def draw(k):
        return k * 2.0**-53 + 2.0**-54

    k = math.floor(eps * 2.0**53)
    while k > 0 and draw(k - 1) >= eps:
        k -= 1
    while draw(k) < eps:
        k += 1
    return np.uint64(k << 11)


def bernoulli_mixing_coupling(n, alpha, rng):
    """Couple fair coin flips X with the upward mixture X'.

    Each X'_i equals X_i with probability 1 - eps and is forced to 1 with
    probability eps, where eps = alpha / sqrt(n).  The marginal of X' is then
    i.i.d. Bernoulli((1+eps)/2), and X'_i = X_i + 1 exactly when the forcing
    fires on a zero coordinate, which has probability eps / 2.  One draw of
    2n raw 64-bit words gives the coin flips (first half) and the forcing
    events (second half); both vectors are int8.

    The words are the ones ``uniform_open(rng, 2 * n)`` would turn into
    doubles u, and each comparison u < 1/2 or u < eps is made on the word
    instead: u < 1/2 exactly when w < 2**63, and u < eps exactly when w lies
    below the integer bound of ``_below_eps_words``.  That skips the
    conversion to doubles and keeps every draw as it was.  The bounds are
    ``np.uint64`` so that no NumPy version compares through float64.
    """
    n = whole(n, "n")
    eps = real(real(alpha, "alpha") / math.sqrt(n), "alpha / sqrt(n)", 0, 1, "[)")
    w = rng.bit_generator.random_raw(2 * n)
    x = (w[:n] < _HALF_WORDS).view(np.int8)
    x_prime = x | (w[n:] < _below_eps_words(eps))
    return x, x_prime


def bernoulli_exact_tv(n, eps):
    """Exact TV between Bernoulli(1/2)^n and Bernoulli((1+eps)/2)^n.

    Evaluates (1/2) sum_k C(n,k) |2^-n - ((1+eps)/2)^k ((1-eps)/2)^(n-k)|
    with log-space binomials and a correctly rounded sum.
    """
    n = whole(n, "n")
    if n > 100000:
        raise SizeError(f"n = {n} risks overflow; supported up to 100000")
    eps = real(eps, "eps", 0, 1, "[)")
    if eps == 0.0:
        return 0.0
    k = np.arange(n + 1, dtype=float)
    log_choose = gammaln(n + 1.0) - gammaln(k + 1.0) - gammaln(n - k + 1.0)
    log_fair = log_choose - n * math.log(2.0)
    log_tilted = (
        log_choose
        + k * math.log((1.0 + eps) / 2.0)
        + (n - k) * math.log((1.0 - eps) / 2.0)
    )
    diffs = np.abs(np.exp(log_fair) - np.exp(log_tilted))
    # fsum rounds the exact sum, whatever the order; largest first it keeps
    # few partial sums and runs several times faster
    return 0.5 * math.fsum(np.sort(diffs)[::-1].tolist())


def hoeffding_slack(n, confidence):
    """Two-sided Hoeffding deviation for a mean of n indicator samples."""
    n = whole(n, "indicator count")
    confidence = real(confidence, "confidence", 0, 1)
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * n))


@dataclass(frozen=True)
class CouplingCertificate:
    """Certified upper bound on interval probabilities at scale delta.

    The bound combines the estimated closeness probability (inflated by the
    Hoeffding slack) with the analytic TV bound through the coupling lemma.
    """

    delta: float
    p_close_hat: float
    p_close_slack: float
    tv_bound: float
    confidence: float
    bound: float = field(init=False)

    def __post_init__(self):
        for key, high, ends in (
            ("delta", math.inf, "[)"),
            ("p_close_hat", 1, "[]"),
            ("p_close_slack", math.inf, "[]"),
            ("tv_bound", 1, "[]"),
            ("confidence", 1, "()"),
        ):
            object.__setattr__(self, key, real(getattr(self, key), key, 0, high, ends))
        p_upper = min(1.0, self.p_close_hat + self.p_close_slack)
        object.__setattr__(
            self, "bound", min(1.0, 0.5 * (1.0 + p_upper + self.tv_bound))
        )


def certify(samples_close_indicator, tv_bound, confidence, delta=0.0):
    """Assemble a certificate from Monte-Carlo closeness indicators.

    The TV bound must come from the analytic affinity machinery; the only
    stochastic error in the certificate is the closeness estimate, which is
    inflated by a two-sided Hoeffding correction at the given confidence.
    """
    try:
        ind = np.asarray(samples_close_indicator)
    except ValueError:  # numpy refuses a ragged nest
        raise DomainError("indicators must be 0/1") from None
    # a bool array stays accepted: it is how a caller writes gap <= delta
    if ind.dtype.kind not in "biuf" or np.any((ind != 0) & (ind != 1)):
        raise DomainError("indicators must be 0/1")
    slack = hoeffding_slack(ind.size, confidence)
    return CouplingCertificate(delta, ind.mean(), slack, tv_bound, confidence)
