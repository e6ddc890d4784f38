"""Tests for the online delay-distribution profile."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.delay_profile import DelayProfile
from repro.core.persistence import profile_state, restore_profile


def warm_profile(delays, **kwargs):
    p = DelayProfile(**kwargs)
    p.update(np.asarray(delays, dtype=float))
    return p


class TestLearning:
    def test_cold_profile_answers_optimistically(self):
        p = DelayProfile(min_weight=50.0)
        assert not p.is_warm
        assert p.completeness(1.0) == 1.0

    def test_learns_uniform_cdf(self):
        rng = np.random.default_rng(0)
        p = warm_profile(rng.uniform(0, 5.0, 20000))
        assert p.completeness(2.5) == pytest.approx(0.5, abs=0.03)
        assert p.completeness(5.0) == pytest.approx(1.0, abs=0.01)
        assert p.completeness(0.0) == 0.0

    def test_completeness_monotone_in_age(self):
        rng = np.random.default_rng(1)
        p = warm_profile(rng.exponential(3.0, 5000))
        ages = np.linspace(0, 30, 50)
        values = [p.completeness(a) for a in ages]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_vectorised_matches_scalar_bitwise(self):
        """completeness_many is the contract the fused estimator path
        relies on: bit-equal to per-element completeness(), edges
        included."""
        rng = np.random.default_rng(2)
        p = warm_profile(rng.exponential(3.0, 5000))
        span = p._span
        ages = np.array(
            [-1.0, 0.0, 0.5, 2.0, 7.7, span - 1e-9, span, span + 5.0, 100.0]
        )
        many = p.completeness_many(ages)
        scalar = np.array([p.completeness(a) for a in ages])
        np.testing.assert_array_equal(many, scalar)

    def test_vectorised_matches_scalar_after_decay_and_growth(self):
        rng = np.random.default_rng(3)
        p = warm_profile(rng.exponential(3.0, 2000))
        p.decay_step()
        p.update(rng.uniform(0.0, 40.0, 500))  # forces span growth
        ages = rng.uniform(-2.0, 50.0, 200)
        many = p.completeness_many(ages)
        scalar = np.array([p.completeness(a) for a in ages])
        np.testing.assert_array_equal(many, scalar)

    def test_span_grows_to_cover_large_delays(self):
        p = DelayProfile(initial_span=8.0)
        p.update(np.array([100.0]))
        assert p.completeness(200.0) == 1.0 or not p.is_warm
        assert p._max_seen == 100.0

    def test_rejects_negative_delays(self):
        p = DelayProfile()
        with pytest.raises(ValueError):
            p.update(np.array([-1.0]))

    def test_rejects_mixed_sign_batch(self):
        """Regression: only ``delays.max()`` used to be validated, so a
        mixed-sign batch slipped through — ``np.histogram(range=(0,
        span))`` silently dropped the negative delays from ``_counts``
        while ``_total`` still counted them, leaving the profile's
        weight permanently ahead of its histogram mass and biasing the
        completeness CDF it feeds compensation."""
        p = DelayProfile(min_weight=10.0)
        with pytest.raises(ValueError):
            p.update(np.array([-3.0, 1.0, 2.0, 4.0]))

    def test_rejected_batch_mutates_nothing(self):
        """A rejected batch must not half-apply: no weight, no counts,
        no max-seen update, no span growth."""
        p = DelayProfile(min_weight=10.0, initial_span=8.0)
        p.update(np.full(20, 2.0))
        before = (p.weight, float(p._counts.sum()), p._max_seen, p._span)
        with pytest.raises(ValueError):
            # 50.0 would have grown the span had validation come second.
            p.update(np.array([-1.0, 50.0]))
        after = (p.weight, float(p._counts.sum()), p._max_seen, p._span)
        assert after == before

    @pytest.mark.parametrize(
        "batch",
        [[np.inf], [1.0, np.nan], [-np.inf, 2.0], [3.0, np.inf, np.nan]],
    )
    def test_rejects_non_finite_delays_without_mutating(self, batch):
        """An infinite delay used to double the span forever; a NaN was
        counted in the weight but landed in no bin.  Both are rejected
        up front and leave the profile exactly as it was."""
        p = DelayProfile(min_weight=10.0, initial_span=8.0)
        p.update(np.full(20, 2.0))
        before = (p.weight, p._counts.tolist(), p._max_seen, p._span)
        with pytest.raises(ValueError, match="finite"):
            p.update(np.array(batch))
        assert (p.weight, p._counts.tolist(), p._max_seen, p._span) == before

    def test_cdf_denominator_equals_weight(self):
        """The invariant the mixed-sign leak broke: every delay the
        profile counted is also in the histogram, so the CDF denominator
        and the profile weight agree (before any forgetting)."""
        rng = np.random.default_rng(7)
        p = warm_profile(rng.uniform(0.0, 5.0, 500))
        p.update(rng.uniform(0.0, 40.0, 250))  # forces span growth too
        cdf, total = p._cdf()
        assert total == pytest.approx(p.weight)
        assert float(cdf[-1]) == pytest.approx(p.weight)

    def test_forgetting_tracks_regime_change(self):
        """After enough decay, old delays stop dominating the CDF."""
        p = DelayProfile(decay=0.9, min_weight=10.0)
        p.update(np.full(1000, 1.0))  # old: fast regime
        for _ in range(100):
            p.decay_step()
            p.update(np.full(10, 50.0))  # new: slow regime
        assert p.completeness(2.0) < 0.3


class TestQueries:
    def test_horizon_brackets_quantile(self):
        rng = np.random.default_rng(3)
        p = warm_profile(rng.uniform(0, 10.0, 20000))
        assert p.horizon(0.5) == pytest.approx(5.0, abs=0.3)
        assert p.horizon(0.999) >= 9.5

    def test_quantile_age_inverts_completeness(self):
        rng = np.random.default_rng(4)
        p = warm_profile(rng.exponential(5.0, 20000))
        for q in (0.25, 0.5, 0.75):
            age = p.quantile_age(q)
            assert p.completeness(age) == pytest.approx(q, abs=0.02)

    def test_quantile_age_validates(self):
        p = DelayProfile()
        with pytest.raises(ValueError):
            p.quantile_age(0.0)
        with pytest.raises(ValueError):
            p.horizon(1.5)

    def test_cold_horizon_is_max_seen(self):
        p = DelayProfile(min_weight=1e9)
        p.update(np.array([3.0, 7.0]))
        assert p.horizon() == 7.0

    def test_rejects_tiny_bins(self):
        with pytest.raises(ValueError):
            DelayProfile(num_bins=4)
        with pytest.raises(ValueError):
            DelayProfile(decay=0.0)


@settings(max_examples=30, deadline=None)
@given(
    delays=st.lists(st.floats(min_value=0, max_value=500), min_size=60, max_size=300),
    age=st.floats(min_value=0, max_value=600),
)
def test_completeness_is_valid_probability(delays, age):
    p = warm_profile(delays, min_weight=50.0)
    c = p.completeness(age)
    assert 0.0 <= c <= 1.0


@settings(max_examples=30, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.1, max_value=100), min_size=60, max_size=300))
def test_horizon_covers_all_but_tail(delays):
    p = warm_profile(delays, min_weight=50.0)
    h = p.horizon(0.999)
    below = np.mean(np.asarray(delays) <= h + 1e-9)
    assert below >= 0.99


# -- equivalence of the fast paths with the numpy expressions they replace --


def histogram_update(p, delays):
    """The ``np.histogram`` update that :meth:`DelayProfile.update` replaced."""
    delays = np.asarray(delays, dtype=float)
    if delays.size == 0:
        return
    p._max_seen = max(p._max_seen, float(delays.max()))
    while float(delays.max()) >= p._span:
        p._grow()
    hist, _ = np.histogram(delays, bins=p.num_bins, range=(0.0, p._span))
    p._counts += hist
    p._total += float(delays.size)
    p._cdf_cache = None


#: One delay, resolved against the profile's span at update time:
#: a bin edge as ``k * width`` or as numpy's ``linspace`` edge, the
#: float just below an edge, a value just below ``span * 2**g``
#: (growing the span ``g`` times first), or a free value up to three
#: spans out.  Edges and their neighbours are where the scaled index
#: lands one bin off and the fix-ups matter.
_delay_specs = st.one_of(
    st.tuples(st.just("edge"), st.integers(0, 300)),
    st.tuples(st.just("below_edge"), st.integers(1, 300)),
    st.tuples(st.just("linspace_edge"), st.integers(0, 300)),
    st.tuples(st.just("below_span"), st.integers(0, 3)),
    st.tuples(st.just("free"), st.floats(0.0, 3.0)),
)


def _resolve(spec, span, num_bins):
    kind, v = spec
    if kind == "edge":
        return (v % (num_bins + 1)) * (span / num_bins)
    if kind == "below_edge":
        return float(np.nextafter((v % num_bins + 1) * (span / num_bins), 0.0))
    if kind == "linspace_edge":
        return float(np.linspace(0.0, span, num_bins + 1)[v % (num_bins + 1)])
    if kind == "below_span":
        return float(np.nextafter(span * 2.0**v, 0.0))
    return v * span


@settings(max_examples=200, deadline=None)
@given(
    num_bins=st.sampled_from([8, 10, 100, 128]),
    initial_span=st.sampled_from([0.7, 3.0, 8.0, 10.0, 12.3]),
    batches=st.lists(st.lists(_delay_specs, min_size=1, max_size=40), min_size=1, max_size=6),
    decay_between=st.booleans(),
)
def test_bincount_update_equals_histogram(num_bins, initial_span, batches, decay_between):
    fast = DelayProfile(num_bins=num_bins, initial_span=initial_span, decay=0.9)
    ref = DelayProfile(num_bins=num_bins, initial_span=initial_span, decay=0.9)
    for specs in batches:
        delays = np.array([_resolve(s, fast._span, num_bins) for s in specs])
        fast.update(delays)
        histogram_update(ref, delays)
        assert fast._span == ref._span
        np.testing.assert_array_equal(fast._counts, ref._counts)
        assert (fast.weight, fast._max_seen) == (ref.weight, ref._max_seen)
        if decay_between:
            fast.decay_step()
            ref.decay_step()


def numpy_mean_completeness(p, ages):
    """The idiom :meth:`DelayProfile.mean_completeness` replaced."""
    with np.errstate(invalid="ignore"):
        return float(np.mean(np.clip(p.completeness_many(np.asarray(ages)), 0.0, 1.0)))


def assert_same_float(got, want):
    if math.isnan(want):
        assert math.isnan(got)
    else:
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (got, want)


_age_fracs = st.one_of(
    st.floats(-2.0, 2.5),
    st.sampled_from([-1.0, 0.0, 1.0, 1.5]),
    st.integers(0, 128).map(lambda k: k / 128.0),
    st.just(math.nan),
)


def poison(p):
    """What ``JoinService._maybe_poison`` does to a shard's profile."""
    p._counts = np.full_like(p._counts, np.nan)
    p._cdf_cache = None


#: Profile changes between two ``mean_completeness`` calls; each must
#: invalidate the list copies the scalar path reads.
_PROFILE_OPS = ("update", "grow", "decay", "restore", "poison")


def apply_op(p, op, rng, snapshot):
    if op == "update":
        p.update(rng.exponential(3.0, 60))
    elif op == "grow":
        p._grow()
    elif op == "decay":
        p.decay_step()
    elif op == "restore":
        restore_profile(p, snapshot)
    else:
        poison(p)


@settings(max_examples=200, deadline=None)
@given(
    state=st.sampled_from(["cold", "warm", "grown", "decayed", "poisoned", "empty"]),
    seed=st.integers(0, 2**16),
    fracs=st.one_of(
        # Eight ages, the serving shard's bucket count, and other lengths
        # on both sides of numpy's eight-accumulator pairwise blocks.
        st.lists(_age_fracs, min_size=8, max_size=8),
        st.lists(_age_fracs, min_size=1, max_size=40),
        st.lists(_age_fracs, min_size=120, max_size=300),
    ),
    ops=st.lists(st.sampled_from(_PROFILE_OPS), max_size=6),
)
def test_mean_completeness_equals_numpy_idiom(state, seed, fracs, ops):
    """Bit-identical for cold, warm and NaN-poisoned profiles, ages at
    or below zero, at or past the span, on bin edges, and NaN — and
    still after every update, grow, decay, restore or poisoning write
    between two calls (the scalar path's list copies follow the CDF
    cache)."""
    rng = np.random.default_rng(seed)
    p = DelayProfile(min_weight=50.0)
    if state == "cold":
        p.update(rng.exponential(3.0, 20))
    elif state != "empty":
        p.update(rng.exponential(3.0, 400))
    if state == "grown":
        p.update(rng.uniform(0.0, 60.0, 100))
    if state == "decayed":
        for _ in range(3):
            p.decay_step()
    if state == "poisoned":
        poison(p)
    snapshot = profile_state(warm_profile(rng.exponential(5.0, 300)))
    for op in (None, *ops):
        if op is not None:
            apply_op(p, op, rng, snapshot)
        ages = [f * p._span for f in fracs]
        want = numpy_mean_completeness(p, ages)
        assert_same_float(p.mean_completeness(ages), want)
        assert_same_float(p.mean_completeness(np.asarray(ages)), want)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    fracs=st.lists(st.floats(0.001, 0.999), min_size=8, max_size=40),
)
def test_mean_completeness_sums_like_numpy(seed, fracs):
    """From eight values on, numpy's pairwise sum rounds differently
    from a left-to-right one; the mean must follow numpy's."""
    p = warm_profile(np.random.default_rng(seed).exponential(3.0, 400))
    ages = [f * p._span for f in fracs]
    assert_same_float(p.mean_completeness(ages), numpy_mean_completeness(p, ages))


def test_mean_completeness_of_poisoned_profile_is_nan():
    """The scalar ``min(1.0, nan)`` would answer 1.0; the serve drill
    relies on NaN getting through."""
    p = warm_profile(np.random.default_rng(0).exponential(3.0, 200))
    poison(p)
    assert math.isnan(p.mean_completeness([1.0, 2.0, 3.0]))
