"""Coupling-based anti-concentration certificates for stochastic models.

The package builds couplings between a random system and a small perturbation
of it, bounds the total-variation distance between the two laws analytically
through Hellinger affinities, and turns per-sample gap statistics into
finite-sample certificates of the form "no interval of length delta carries
probability above the certified bound".
"""

__version__ = "0.1.0"

from .coupling import (
    CouplingCertificate,
    PerturbationPlan,
    bernoulli_exact_tv,
    bernoulli_mixing_coupling,
    certify,
    empirical_concentration_function,
    product_tv_bound,
    tv_upper_from_affinity,
)
from .densities import (
    AffinityResult,
    Density1D,
    hellinger_affinity,
    sample_iid,
    scaled_affinity,
    standard_density,
)
from .rng import seed_stream

__all__ = [
    "AffinityResult",
    "CouplingCertificate",
    "Density1D",
    "PerturbationPlan",
    "bernoulli_exact_tv",
    "bernoulli_mixing_coupling",
    "certify",
    "empirical_concentration_function",
    "hellinger_affinity",
    "product_tv_bound",
    "sample_iid",
    "scaled_affinity",
    "seed_stream",
    "standard_density",
    "tv_upper_from_affinity",
    "__version__",
]
