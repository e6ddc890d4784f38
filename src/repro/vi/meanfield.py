"""Mean-field CAVI for the paper's analytical model (Section 5.1).

The generative model:

* global mean ``mu_w`` with conditional prior ``mu_w | phi_w ~
  N(mu0, 1/(tau0 * phi_w))`` — ``tau0`` acts as a pseudo-observation
  count, which is why the paper's Eq. 9 posterior mean is
  ``(tau0*mu0 + n*g(X,Z)) / (tau0 + n)``;
* global precision ``phi_w ~ Gamma(a0, b0)``;
* per-observation latent distortions ``z_i ~ N(m_i, 1/lambda_z)``,
  independent of the globals (Section 5.1: "no local latent variable
  dependent on the global variable");
* observations ``x_i`` with ``z_i * x_i ~ N(mu_w, 1/phi_w)`` — the
  "reverse linear distortion" of Eq. 6.

Coordinate-ascent VI (CAVI) in the mean-field family
``q(mu) q(phi) prod_i q(z_i)`` has closed-form updates, recovering the
paper's Eq. 8–10: the posterior of ``mu_w`` is Gaussian with mean linear in
``E[z_i] * x_i`` and a credible interval governed by ``E[phi_w]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.vi.distributions import Gamma, Gaussian

__all__ = ["DistortionModelPriors", "MeanFieldPosterior", "cavi"]

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True, slots=True)
class DistortionModelPriors:
    """Priors of the Section 5.1 model.

    Attributes:
        mu0: Prior mean of ``mu_w``.
        tau0: Prior pseudo-count of ``mu_w`` (relative precision).
        phi_shape, phi_rate: Gamma prior on ``phi_w``.
        z_precision: Prior precision ``lambda_z`` of each distortion
            ``z_i`` about its prior mean.
    """

    mu0: float = 0.0
    tau0: float = 1.0
    phi_shape: float = 2.0
    phi_rate: float = 2.0
    z_precision: float = 25.0

    def __post_init__(self) -> None:
        if self.tau0 <= 0 or self.phi_shape <= 0 or self.phi_rate <= 0 or self.z_precision <= 0:
            raise ValueError("prior strengths must be positive")

    def phi_prior(self) -> Gamma:
        """The Gamma prior placed on the noise precision ``phi``."""
        return Gamma(self.phi_shape, self.phi_rate)


@dataclass
class MeanFieldPosterior:
    """The factored posterior after CAVI.

    ``q_mu`` and ``q_phi`` are the global factors (paper's ``U``); ``q_z``
    holds one Gaussian per observation.  ``elbo_trace`` records the ELBO
    after every full CAVI sweep so callers (and tests) can check
    convergence and monotonicity.
    """

    q_mu: Gaussian
    q_phi: Gamma
    q_z: list[Gaussian] = field(default_factory=list)
    elbo_trace: list[float] = field(default_factory=list)

    @property
    def mu_mean(self) -> float:
        """The paper's estimated value ``mu_w^bar = E[mu_w]`` (Eq. 9)."""
        return self.q_mu.mean

    def mu_credible_interval(self, quantile_z: float = 1.96) -> tuple[float, float]:
        """Credible interval of ``mu_w`` (paper Eq. 10)."""
        return self.q_mu.interval(quantile_z)


def _expected_sq_residual(x: float, q_z: Gaussian, q_mu: Gaussian) -> float:
    """``E[(z*x - mu)^2]`` under independent ``q(z) q(mu)``."""
    ez2 = q_z.second_moment()
    return (
        x * x * ez2
        - 2.0 * x * q_z.mean * q_mu.mean
        + q_mu.second_moment()
    )


def _elbo(
    xs: Sequence[float],
    z_means: Sequence[float],
    priors: DistortionModelPriors,
    q_mu: Gaussian,
    q_phi: Gamma,
    q_z: Sequence[Gaussian],
) -> float:
    n = len(xs)
    e_phi = q_phi.mean
    e_log_phi = q_phi.mean_log()

    # E[log p(X | mu, phi, Z)]
    like = 0.0
    for x, qz in zip(xs, q_z):
        like += 0.5 * (e_log_phi - _LOG_2PI) - 0.5 * e_phi * _expected_sq_residual(x, qz, q_mu)

    # E[log p(mu | phi)] with prior N(mu0, 1/(tau0 * phi))
    sq_mu = (q_mu.mean - priors.mu0) ** 2 + q_mu.variance
    log_p_mu = 0.5 * (math.log(priors.tau0) + e_log_phi - _LOG_2PI) - 0.5 * priors.tau0 * e_phi * sq_mu

    # E[log p(phi)]
    prior_phi = priors.phi_prior()
    log_p_phi = (
        prior_phi.shape * math.log(prior_phi.rate)
        - math.lgamma(prior_phi.shape)
        + (prior_phi.shape - 1.0) * e_log_phi
        - prior_phi.rate * e_phi
    )

    # E[log p(Z)]
    log_p_z = 0.0
    for m_prior, qz in zip(z_means, q_z):
        sq_z = (qz.mean - m_prior) ** 2 + qz.variance
        log_p_z += 0.5 * (math.log(priors.z_precision) - _LOG_2PI) - 0.5 * priors.z_precision * sq_z

    entropy = q_mu.entropy() + q_phi.entropy() + sum(qz.entropy() for qz in q_z)
    return like + log_p_mu + log_p_phi + log_p_z + entropy


def cavi(
    observations: Sequence[float],
    priors: DistortionModelPriors | None = None,
    z_prior_means: Sequence[float] | None = None,
    max_iters: int = 50,
    tol: float = 1e-8,
) -> MeanFieldPosterior:
    """Run coordinate-ascent VI on the distortion model.

    Args:
        observations: The ``x_i`` values (e.g. per-interval observed rates).
        priors: Model priors; defaults centre ``mu_w`` at 0 with weight 1.
        z_prior_means: Prior mean of each ``z_i``; defaults to 1 (no
            distortion expected).  PECJ supplies here its learned
            distortion expectation per observation age.
        max_iters: Maximum full CAVI sweeps.
        tol: Absolute ELBO-improvement threshold to stop early.

    Returns:
        The factored posterior with its ELBO trace.  The ELBO is
        non-decreasing across sweeps (exact coordinate ascent).
    """
    xs = [float(x) for x in observations]
    n = len(xs)
    priors = priors or DistortionModelPriors()
    if z_prior_means is None:
        z_means = [1.0] * n
    else:
        z_means = [float(m) for m in z_prior_means]
        if len(z_means) != n:
            raise ValueError("z_prior_means length must match observations")

    q_phi = priors.phi_prior()
    q_mu = Gaussian(priors.mu0, priors.tau0 * q_phi.mean)
    q_z = [Gaussian(m, priors.z_precision) for m in z_means]

    posterior = MeanFieldPosterior(q_mu, q_phi, q_z)
    if n == 0:
        posterior.elbo_trace.append(_elbo(xs, z_means, priors, q_mu, q_phi, q_z))
        return posterior

    for _ in range(max_iters):
        e_phi = q_phi.mean

        # q(z_i): Gaussian with precision lambda_z + E[phi] x_i^2.
        q_z = [
            Gaussian(
                (priors.z_precision * m + e_phi * x * q_mu.mean)
                / (priors.z_precision + e_phi * x * x),
                priors.z_precision + e_phi * x * x,
            )
            for x, m in zip(xs, z_means)
        ]

        # q(mu): paper Eq. 9 — mean (tau0*mu0 + n*g)/(tau0 + n),
        # precision (tau0 + n) * E[phi].
        g_sum = sum(qz.mean * x for x, qz in zip(xs, q_z))
        mu_mean = (priors.tau0 * priors.mu0 + g_sum) / (priors.tau0 + n)
        q_mu = Gaussian(mu_mean, (priors.tau0 + n) * e_phi)

        # q(phi): Gamma conjugate update including the mu-prior residual.
        resid = sum(_expected_sq_residual(x, qz, q_mu) for x, qz in zip(xs, q_z))
        resid += priors.tau0 * ((q_mu.mean - priors.mu0) ** 2 + q_mu.variance)
        q_phi = Gamma(
            priors.phi_shape + 0.5 * (n + 1),
            priors.phi_rate + 0.5 * resid,
        )
        # Refresh q(mu)'s precision with the new E[phi] (it depends on phi).
        q_mu = Gaussian(q_mu.mean, (priors.tau0 + n) * q_phi.mean)

        posterior = MeanFieldPosterior(q_mu, q_phi, q_z, posterior.elbo_trace)
        posterior.elbo_trace.append(_elbo(xs, z_means, priors, q_mu, q_phi, q_z))
        if (
            len(posterior.elbo_trace) >= 2
            and abs(posterior.elbo_trace[-1] - posterior.elbo_trace[-2]) < tol
        ):
            break

    return posterior
