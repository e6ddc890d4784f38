"""Checkpoint/restore for PECJ's learned state.

A deployed PECJ accumulates knowledge that is expensive to relearn — the
delay profile, the estimators' posteriors, the learning backend's
weights and kernel memory.  Operators migrate, restart and rescale;
this module serialises that knowledge to plain JSON-compatible
dictionaries so a successor can resume compensation immediately instead
of re-warming (paper Eq. 5's rolling prior, made durable).

Top level:

    snapshot = checkpoint_pecj(operator)      # JSON-serialisable dict
    restore_pecj(new_operator, snapshot)      # same backend required

Both the batch :class:`~repro.core.pecj.PECJoin` (after ``prepare``) and
the push-based :class:`~repro.streaming.StreamingPECJ` are supported —
they share estimator and profile types.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.delay_profile import DelayProfile
from repro.core.estimators.aema import AEMAEstimator
from repro.core.estimators.base import PosteriorEstimator
from repro.core.estimators.svi_backend import SVIEstimator

__all__ = [
    "profile_state",
    "restore_profile",
    "estimator_state",
    "restore_estimator",
    "checkpoint_pecj",
    "restore_pecj",
    "pecj_runtime_state",
    "restore_pecj_runtime",
    "checkpoint_operator",
    "restore_operator",
]

_VERSION = 1


# -- delay profile -----------------------------------------------------------


def profile_state(profile: DelayProfile) -> dict[str, Any]:
    """Serialise a delay profile."""
    return {
        "version": _VERSION,
        "span": profile._span,
        "counts": profile._counts.tolist(),
        "total": profile._total,
        "max_seen": profile._max_seen,
    }


def restore_profile(profile: DelayProfile, state: dict[str, Any]) -> None:
    """Restore a delay profile in place (bin count must match, and no
    count may be negative: completeness answers assume none is)."""
    counts = np.asarray(state["counts"], dtype=float)
    if len(counts) != profile.num_bins:
        raise ValueError(
            f"bin count mismatch: snapshot has {len(counts)}, profile has "
            f"{profile.num_bins}"
        )
    if (counts < 0.0).any():
        raise ValueError("negative bin count in delay-profile snapshot")
    profile._span = float(state["span"])
    profile._counts = counts
    profile._total = float(state["total"])
    profile._max_seen = float(state["max_seen"])
    profile._cdf_cache = None


# -- estimators -----------------------------------------------------------------


def _adam_state(opt) -> dict[str, Any]:
    """Serialise an Adam optimizer's moment buffers and step count."""
    return {
        "m": [a.tolist() for a in opt._m],
        "v": [a.tolist() for a in opt._v],
        "t": opt._t,
    }


def _restore_adam(opt, state: dict[str, Any]) -> None:
    """Restore Adam moment buffers in place (shapes must match)."""
    for buf, saved in zip(opt._m, state["m"]):
        buf[...] = np.asarray(saved)
    for buf, saved in zip(opt._v, state["v"]):
        buf[...] = np.asarray(saved)
    opt._t = int(state["t"])


def estimator_state(est: PosteriorEstimator) -> dict[str, Any]:
    """Serialise an estimator backend (AEMA, SVI or MLP)."""
    if isinstance(est, AEMAEstimator):
        return {
            "version": _VERSION,
            "kind": "aema",
            "mean": est._mean,
            "var": est._var,
            "smoothed_err": est._smoothed_err,
            "smoothed_abs_err": est._smoothed_abs_err,
            "alpha": est._alpha,
            "count": est._count,
        }
    if isinstance(est, SVIEstimator):
        state = est._svi._state
        return {
            "version": _VERSION,
            "kind": "svi",
            "tau": state.tau,
            "tau_mu": state.tau_mu,
            "phi_shape": state.phi_shape,
            "phi_rate": state.phi_rate,
            "step_count": est._svi._t,
            "scale": est._scale,
            "count": est._count,
        }
    # Learning backend: avoid a hard import unless needed.
    from repro.core.estimators.mlp_backend import MLPEstimator

    if isinstance(est, MLPEstimator):
        return {
            "version": _VERSION,
            "kind": "mlp",
            "weights": [p.tolist() for p in est.net.params()],
            "hist": list(est._hist),
            "scale": est._scale,
            "ema": est._ema,
            "count": est._count,
            "residual_var": est._residual_var,
            "shrink": {str(k): list(v) for k, v in est._shrink.items()},
            "m_memory": [[c.tolist(), m] for c, m in est._m_memory],
            # In-flight stream state: required for an exact mid-run
            # resume (cadence counters drive the training schedule, the
            # pending map holds emissions awaiting delayed ground truth).
            "context": est._context.tolist(),
            "pending": [
                [tag, feats.tolist(), scale]
                for tag, (feats, scale) in est._pending.items()
            ],
            "blend_calls": est._blend_calls,
            "feedback_count": est._feedback_count,
            "optimizer": _adam_state(est._optimizer),
            "elbo_optimizer": _adam_state(est._elbo_optimizer),
        }
    raise TypeError(f"unsupported estimator type {type(est).__name__}")


def restore_estimator(est: PosteriorEstimator, state: dict[str, Any]) -> None:
    """Restore an estimator backend in place (kinds must match)."""
    kind = state["kind"]
    if isinstance(est, AEMAEstimator):
        if kind != "aema":
            raise ValueError(f"snapshot is {kind!r}, estimator is aema")
        est._mean = state["mean"]
        est._var = state["var"]
        est._smoothed_err = state["smoothed_err"]
        est._smoothed_abs_err = state["smoothed_abs_err"]
        est._alpha = state["alpha"]
        est._count = state["count"]
        return
    if isinstance(est, SVIEstimator):
        if kind != "svi":
            raise ValueError(f"snapshot is {kind!r}, estimator is svi")
        from repro.vi.svi import _GlobalState

        est._svi._state = _GlobalState(
            tau=state["tau"],
            tau_mu=state["tau_mu"],
            phi_shape=state["phi_shape"],
            phi_rate=state["phi_rate"],
        )
        est._svi._t = state["step_count"]
        est._scale = state["scale"]
        est._count = state["count"]
        return
    from repro.core.estimators.mlp_backend import MLPEstimator

    if isinstance(est, MLPEstimator):
        if kind != "mlp":
            raise ValueError(f"snapshot is {kind!r}, estimator is mlp")
        for p, w in zip(est.net.params(), state["weights"]):
            arr = np.asarray(w)
            if arr.shape != p.shape:
                raise ValueError("weight shape mismatch in snapshot")
            p[...] = arr
        est._hist.clear()
        est._hist.extend(state["hist"])
        est._scale = state["scale"]
        est._ema = state["ema"]
        est._count = state["count"]
        est._residual_var = state["residual_var"]
        est._shrink = {k == "True": list(v) for k, v in state["shrink"].items()}
        est._m_memory.clear()
        for ctx, m in state["m_memory"]:
            est._m_memory.append((np.asarray(ctx, dtype=float), float(m)))
        # Runtime fields are absent from snapshots taken before they were
        # serialised; tolerate those (learned-state-only restore).
        if "context" in state:
            est._context = np.asarray(state["context"], dtype=float)
        if "pending" in state:
            est._pending.clear()
            for tag, feats, scale in state["pending"]:
                est._pending[tag] = (np.asarray(feats, dtype=float), float(scale))
        est._blend_calls = int(state.get("blend_calls", est._blend_calls))
        est._feedback_count = int(state.get("feedback_count", est._feedback_count))
        if "optimizer" in state:
            _restore_adam(est._optimizer, state["optimizer"])
        if "elbo_optimizer" in state:
            _restore_adam(est._elbo_optimizer, state["elbo_optimizer"])
        return
    raise TypeError(f"unsupported estimator type {type(est).__name__}")


# -- whole operators ----------------------------------------------------------


def checkpoint_pecj(operator) -> dict[str, Any]:
    """Snapshot a PECJ operator's learned state.

    Works for any object exposing ``profile`` plus the four estimators
    (``rate_r``, ``rate_s``, ``sigma``, ``alpha``) — i.e. a prepared
    :class:`~repro.core.pecj.PECJoin` or a
    :class:`~repro.streaming.StreamingPECJ`.
    """
    return {
        "version": _VERSION,
        "profile": profile_state(operator.profile),
        "estimators": {
            name: estimator_state(getattr(operator, name))
            for name in ("rate_r", "rate_s", "sigma", "alpha")
        },
    }


def restore_pecj(operator, snapshot: dict[str, Any]) -> None:
    """Restore a snapshot into a compatible PECJ operator."""
    restore_profile(operator.profile, snapshot["profile"])
    for name, state in snapshot["estimators"].items():
        restore_estimator(getattr(operator, name), state)


# -- mid-run runtime state ----------------------------------------------------


def pecj_runtime_state(operator) -> dict[str, Any]:
    """Snapshot a prepared :class:`~repro.core.pecj.PECJoin`'s cursors.

    :func:`checkpoint_pecj` covers what is *learned*; this covers where
    the operator *is* — ingest/finalization cursors, emission snapshots
    awaiting delayed ground truth, and the regime-factor EMAs.  Together
    they let a successor resume mid-run and reproduce the uninterrupted
    run exactly (the successor must :meth:`prepare` on the same batch
    first, which rebuilds the derived completion-order caches).
    """
    return {
        "version": _VERSION,
        "ingest_cursor": operator._ingest_cursor,
        "next_bucket": operator._next_bucket,
        "next_window": operator._next_window,
        "matches_ema": operator._matches_ema,
        "m_ema": operator._m_ema,
        "m_rel_var": operator._m_rel_var,
        "last_clamped": operator._last_clamped,
        "last_interval": (
            list(operator.last_interval)
            if operator.last_interval is not None
            else None
        ),
        "emitted": {
            str(widx): [obs_r, obs_s, c_bar, m_hat]
            for widx, (obs_r, obs_s, c_bar, m_hat) in operator._fill_snapshots.items()
        },
    }


def restore_pecj_runtime(operator, state: dict[str, Any]) -> None:
    """Restore runtime cursors into a prepared PECJ operator."""
    operator._ingest_cursor = int(state["ingest_cursor"])
    operator._next_bucket = int(state["next_bucket"])
    operator._next_window = int(state["next_window"])
    operator._matches_ema = float(state["matches_ema"])
    operator._m_ema = None if state["m_ema"] is None else float(state["m_ema"])
    operator._m_rel_var = float(state["m_rel_var"])
    operator._last_clamped = bool(state["last_clamped"])
    operator.last_interval = (
        None if state["last_interval"] is None else tuple(state["last_interval"])
    )
    operator._fill_snapshots = {
        int(widx): (int(v[0]), int(v[1]), float(v[2]), float(v[3]))
        for widx, v in state["emitted"].items()
    }


# -- whole-operator dispatch --------------------------------------------------


def _pecj_core(operator):
    """The PECJ core of an operator, unwrapping guard/saboteur layers."""
    seen = set()
    while id(operator) not in seen:
        seen.add(id(operator))
        inner = getattr(operator, "pecj", None)
        if inner is None or inner is operator:
            break
        operator = inner
    return operator


def checkpoint_operator(operator) -> dict[str, Any]:
    """Snapshot any standalone join operator for a mid-run resume.

    PECJ-style operators (bare, guard-wrapped or saboteur-wrapped) get
    their learned state plus runtime cursors; stateless baselines (WMJ,
    KSJ, the exact oracle) produce a marker-only snapshot — their whole
    behaviour is a pure function of the batch and the window.  Wrapper
    layers contribute their own cursors (the guard's controller state,
    the saboteur's fired count) so a restored stack picks up mid-story.
    """
    core = _pecj_core(operator)
    if not hasattr(core, "profile"):
        return {"version": _VERSION, "kind": "stateless"}
    snapshot: dict[str, Any] = {
        "version": _VERSION,
        "kind": "pecj",
        "learned": checkpoint_pecj(core),
        "runtime": pecj_runtime_state(core),
    }
    controller = getattr(operator, "controller", None)
    if controller is not None:
        snapshot["guard"] = {
            "mode": controller.mode,
            "widen_ms": controller.widen_ms,
            "checkpoint": controller.checkpoint,
            "fallback_windows": controller.fallback_windows,
            "repairs": controller.repairs,
            "widened_windows": controller.widened_windows,
            "shed_windows": controller.shed_windows,
            "healthy_streak": controller._healthy_streak,
            "unhealthy_streak": controller._unhealthy_streak,
            "healthy_since_checkpoint": controller._healthy_since_checkpoint,
        }
    saboteur = operator
    while saboteur is not None and not hasattr(saboteur, "_fired"):
        saboteur = getattr(saboteur, "inner", None)
    if saboteur is not None:
        snapshot["saboteur_fired"] = saboteur._fired
    return snapshot


def restore_operator(operator, snapshot: dict[str, Any]) -> None:
    """Restore a :func:`checkpoint_operator` snapshot into an operator.

    The operator must already be prepared on the same batch (the runner
    does this before applying a resume snapshot) and must have the same
    wrapper stack as the checkpointed one.
    """
    if snapshot["kind"] == "stateless":
        return
    core = _pecj_core(operator)
    restore_pecj(core, snapshot["learned"])
    restore_pecj_runtime(core, snapshot["runtime"])
    guard_state = snapshot.get("guard")
    controller = getattr(operator, "controller", None)
    if guard_state is not None and controller is not None:
        controller.mode = guard_state["mode"]
        controller.widen_ms = float(guard_state["widen_ms"])
        controller.checkpoint = guard_state["checkpoint"]
        controller.fallback_windows = int(guard_state["fallback_windows"])
        controller.repairs = int(guard_state["repairs"])
        controller.widened_windows = int(guard_state["widened_windows"])
        controller.shed_windows = int(guard_state["shed_windows"])
        controller._healthy_streak = int(guard_state["healthy_streak"])
        controller._unhealthy_streak = int(guard_state["unhealthy_streak"])
        controller._healthy_since_checkpoint = int(
            guard_state["healthy_since_checkpoint"]
        )
    if "saboteur_fired" in snapshot:
        saboteur = operator
        while saboteur is not None and not hasattr(saboteur, "_fired"):
            saboteur = getattr(saboteur, "inner", None)
        if saboteur is not None:
            saboteur._fired = int(snapshot["saboteur_fired"])
