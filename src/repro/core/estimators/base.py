"""Estimator backend interface.

Every window-averaged statistic PECJ compensates with — tuple rates
``r_bar``, join selectivity ``sigma``, joined payload average ``alpha_R``
— is tracked by one :class:`PosteriorEstimator`.  The interface mirrors the
paper's split between

* **continual learning** from *finalized* (complete, unbiased)
  observations — :meth:`observe`, corresponding to Eq. 5's rolling
  prior/posterior; and
* **per-window estimation** from the *current, distorted* observations —
  :meth:`blend`, corresponding to Eq. 9's posterior mean
  ``(tau0*mu0 + n*g(X,Z)) / (tau0 + n)`` where the prior is whatever the
  estimator has learned so far and ``g`` corrects each observation by its
  expected distortion ``E[z_i]``.

The learning-based backend additionally accepts delayed ground truth via
:meth:`feedback` (once a window finalizes, its true statistic becomes
known), which is how it out-adapts the analytical backends under
non-stationary disorder.
"""

from __future__ import annotations

from typing import Hashable, Sequence

__all__ = ["PosteriorEstimator", "check_blend_args"]


def check_blend_args(
    xs: Sequence[float],
    z_means: Sequence[float],
    weights: Sequence[float] | None = None,
) -> None:
    """Validate that Eq. 9 blend inputs align.

    Backends iterate the three sequences in lockstep; a silent ``zip``
    over mismatched lengths would quietly drop observations, so every
    backend calls this at the top of :meth:`PosteriorEstimator.blend`.
    """
    if len(xs) != len(z_means):
        raise ValueError(
            f"xs and z_means must align: got {len(xs)} observations but "
            f"{len(z_means)} distortion means"
        )
    if weights is not None and len(weights) != len(xs):
        raise ValueError(
            f"weights must align with xs: got {len(weights)} weights for "
            f"{len(xs)} observations"
        )


class PosteriorEstimator:
    """Posterior tracker for one scalar window-averaged statistic."""

    def observe(self, x: float, z_mean: float = 1.0) -> None:
        """Absorb one finalized observation.

        Args:
            x: The observed value (possibly distorted).
            z_mean: Expected reverse-linear distortion ``E[z]`` such that
                ``z * x`` is unbiased for the statistic; finalized
                observations normally pass 1.
        """
        raise NotImplementedError

    def observe_many(
        self, xs: Sequence[float], z_means: Sequence[float]
    ) -> None:
        """Absorb a run of finalized observations, in sequence order.

        The fused multi-window PECJ drain hands every due observation of
        one virtual-time advance in a single call instead of one
        :meth:`observe` call per bucket.  The contract is strict
        equivalence: the posterior after ``observe_many(xs, zs)`` must be
        bit-identical to calling ``observe(x, z)`` element by element —
        backends may override only to cut per-call overhead, never to
        change the arithmetic or its order.
        """
        if len(xs) != len(z_means):
            raise ValueError(
                f"xs and z_means must align: got {len(xs)} observations "
                f"but {len(z_means)} distortion means"
            )
        for x, z in zip(xs, z_means):
            self.observe(x, z)

    def estimate(self) -> float:
        """Current posterior mean with no window-local evidence."""
        raise NotImplementedError

    def blend(
        self,
        xs: Sequence[float],
        z_means: Sequence[float],
        tag: Hashable | None = None,
        weights: Sequence[float] | None = None,
    ) -> float:
        """Posterior mean for the current window (paper Eq. 9).

        Args:
            xs: This window's (distorted) observations.
            z_means: Expected distortion per observation.
            tag: Opaque id of the window; backends that learn from delayed
                feedback use it to pair this estimate's inputs with the
                eventual ground truth.
            weights: Pseudo-count of each observation (how many effective
                samples it summarises); defaults to 1 each.
        """
        raise NotImplementedError

    def set_context(self, context: Sequence[float]) -> None:
        """Supply side-channel stream-dynamics features for the next blend.

        The operator passes its current *delay-shape* reading — how the
        delays observed in this window compare against the long-run
        profile — which a learning backend can exploit to detect that the
        supplied ``E[z]`` corrections are off-regime (paper Section 5.2's
        "capture of unobserved data" in complex dynamics).  Analytical
        backends ignore it (default no-op), which is exactly why they
        degrade under non-stationary disorder (paper Section 6.5).

        The operators build the context only when at least one of their
        four estimators overrides this method; with the default no-op on
        all four they skip the delay sample and the quantile ratios
        altogether.  A backend that reads the context must therefore
        override ``set_context`` itself.
        """

    def feedback(self, tag: Hashable, true_value: float) -> None:
        """Deliver delayed ground truth for a previously tagged blend.

        Default: ignored (analytical backends learn via :meth:`observe`).
        """

    def completeness_factor(self) -> float | None:
        """Learned correction to the assumed completeness, or ``None``.

        Learning backends return ``m_hat`` such that the current window's
        actual completeness is ``m_hat`` times what the stationary delay
        profile predicts; analytical backends return ``None`` (they have
        no regime model — the paper's Section 6.5 failure mode).
        """
        return None

    def feedback_completeness(self, tag: Hashable, m_true: float) -> None:
        """Deliver the realised completeness factor for a tagged window.

        Default: ignored.
        """

    def credible_interval(self, quantile_z: float = 1.96) -> tuple[float, float]:
        """Symmetric credible interval around :meth:`estimate` (Eq. 10)."""
        raise NotImplementedError

    @property
    def confidence_weight(self) -> float:
        """Pseudo-count ``tau`` the blend assigns to the prior."""
        raise NotImplementedError

    @property
    def is_warm(self) -> bool:
        """Whether enough history exists for meaningful estimates."""
        raise NotImplementedError
