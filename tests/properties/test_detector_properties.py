"""Property tests for the accrual suspicion estimator.

Two properties carry the detector's whole safety story:

* suspicion is *monotone in silence* — waiting longer without a
  heartbeat can never make a peer look healthier, whatever arrival
  history preceded the silence; and
* *bounded jitter never condemns* — as long as inter-arrival gaps stay
  within a modest factor of the heartbeat interval (far looser than the
  simulated network's jitter), phi stays below the condemnation
  threshold, so a clean run can never lose a rank to a false positive.
"""

import math

from hypothesis import example, given, strategies as st

from repro.faults.detector import _P_FLOOR, AccrualEstimator, DetectorConfig

HB = 5e-4
FLOOR = 1e-4

#: plausible arrival-gap histories: anything from metronomic to sloppy
gap_histories = st.lists(
    st.floats(min_value=HB / 4, max_value=4 * HB,
              allow_nan=False, allow_infinity=False),
    min_size=0, max_size=30)

silences = st.floats(min_value=0.0, max_value=50 * HB,
                     allow_nan=False, allow_infinity=False)


def _estimator(gaps):
    est = AccrualEstimator(0.0, window=20, bootstrap_mean=HB, floor=FLOOR)
    t = 0.0
    for gap in gaps:
        t += gap
        est.heartbeat(t)
    return est, t


@given(gap_histories, silences, silences)
def test_phi_monotone_in_silence(gaps, s1, s2):
    est, t = _estimator(gaps)
    lo, hi = sorted((s1, s2))
    assert est.phi(t + lo) <= est.phi(t + hi)


@given(gap_histories, silences)
def test_phi_never_negative(gaps, silence):
    est, t = _estimator(gaps)
    assert est.phi(t + silence) >= 0.0


@given(gap_histories)
def test_zero_silence_is_zero_phi(gaps):
    est, t = _estimator(gaps)
    assert est.phi(t) == 0.0


#: bounded-jitter heartbeat streams: gaps within [0.6, 1.6] heartbeat
#: intervals — sloppier than any delay the simulated network's jitter
#: stream produces, yet provably below the condemnation silence.  The
#: estimator adapts its mean down to the history, so the envelope must
#: bound the *ratio* of longest gap to shortest history: with all gaps
#: >= 0.6·HB the windowed mean never drops below 0.6·HB, and with the
#: sigma floor at 0.2·HB a 1.6·HB gap peaks at z = 5 -> phi ~ 6.5 < 8
bounded_gaps = st.lists(
    st.floats(min_value=0.6 * HB, max_value=1.6 * HB,
              allow_nan=False, allow_infinity=False),
    min_size=1, max_size=40)


@given(bounded_gaps)
def test_bounded_jitter_never_condemns(gaps):
    cfg = DetectorConfig(enabled=True)
    est = AccrualEstimator(0.0, window=cfg.window,
                           bootstrap_mean=cfg.heartbeat_interval,
                           floor=cfg.floor)
    t = 0.0
    for gap in gaps:
        # evaluate at the instant *before* the beat lands — the worst
        # moment of each interval — then deliver the beat
        assert est.phi(t + gap) < cfg.condemn_phi
        t += gap
        est.heartbeat(t)


@given(bounded_gaps, st.floats(min_value=6 * HB, max_value=50 * HB))
def test_real_silence_still_condemns_after_bounded_jitter(gaps, silence):
    """The tolerance bought by jitter history is itself bounded: a rank
    that actually goes silent is condemned no matter how sloppy its past
    arrivals were.  Within the [0.6, 1.6]-interval envelope the mean
    tops out at 1.6·HB and the spread at 0.5·HB, so phi reaches the
    condemnation threshold before ~4.5 intervals of silence — 6 is
    past the worst case."""
    cfg = DetectorConfig(enabled=True)
    est = AccrualEstimator(0.0, window=cfg.window,
                           bootstrap_mean=cfg.heartbeat_interval,
                           floor=cfg.floor)
    t = 0.0
    for gap in gaps:
        t += gap
        est.heartbeat(t)
    assert est.phi(t + silence) >= cfg.condemn_phi


def _reference_phi(gaps, silence, *, bootstrap_mean=HB, floor=FLOOR):
    """``AccrualEstimator.phi`` as it was before the early exit: sigma is
    always computed, and ``z <= 0`` is tested after it."""
    if gaps:
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / len(gaps)
        sigma = max(math.sqrt(var), floor)
    else:
        mean = bootstrap_mean
        sigma = floor
    z = (silence - mean) / sigma
    if z <= 0:
        return 0.0
    p_later = 0.5 * math.erfc(z / math.sqrt(2.0))
    return -math.log10(max(p_later, _P_FLOOR))


@given(gap_histories, silences)
@example([], HB)                        # empty window, silence == mean
@example([HB, HB, HB], HB)              # silence == mean, sigma at the floor
@example([HB, HB, HB], 1.5 * HB)        # sigma at the floor, z > 0
@example([HB / 2, 2 * HB], 1.25 * HB)   # silence == mean, sigma above it
@example([HB] * 30, 40 * HB)            # past the window; erfc underflows
def test_phi_equals_pre_early_exit_formula(gaps, silence):
    """The early exit is exact: bit-for-bit the old value, not close."""
    est = AccrualEstimator(0.0, window=20, bootstrap_mean=HB, floor=FLOOR)
    t = 0.0
    for gap in gaps:
        t += gap
        est.heartbeat(t)
    now = t + silence
    # the estimator sees the gaps and the silence as differences of
    # arrival times, so the reference gets those, not the inputs
    assert est.phi(now) == _reference_phi(
        list(est._gaps), now - est.last_arrival)
