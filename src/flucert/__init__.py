"""Coupling-based anti-concentration certificates for stochastic models.

The package builds couplings between a random system and a small perturbation
of it, bounds the total-variation distance between the two laws analytically
through closed-form Hellinger affinities, and turns per-sample gap statistics
into finite-sample certificates of the form "no interval of length delta
carries probability above the certified bound".

Import the modules, not the package: ``coupling`` (TV bounds and the
certificate), ``densities`` (densities, sampling and closed-form affinities),
``rng`` (seed streams), ``errors`` (typed errors; ``whole``, the one check of
every size, count and index; ``real``, the one check of every scalar real
parameter; ``reals``, the one check of every float array; and ``typed``, the
one check of every argument of a library type), and one module per model:
``assignment``, ``euclidean``, ``fpp``, ``random_matrix``, ``spin_glass``.
"""

__version__ = "0.1.0"
