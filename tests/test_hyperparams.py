import dataclasses
import json
import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from ballsgd.errors import InfeasibleSchedule, InvalidArgument
from ballsgd.hyperparams import (ProblemConstants, Schedule, _json_line,
                                 budget, derive_schedule, exit_round_length,
                                 manual_schedule, round_count,
                                 validate_schedule)

UNIT = ProblemConstants(L=1.0, rho=1.0, sigma=1.0, delta_f=1.0, dim=2)
UNIT_D10 = ProblemConstants(L=1.0, rho=1.0, sigma=1.0, delta_f=1.0, dim=10)


def test_round_count_reference():
    # floor(log(30)/log(1/0.7)) + 1 = floor(9.53...) + 1
    assert round_count(0.1) == 10


def test_constants_reject_negative():
    with pytest.raises(InvalidArgument):
        ProblemConstants(L=-1.0, rho=1.0, sigma=1.0, delta_f=1.0, dim=2)
    with pytest.raises(InvalidArgument):
        ProblemConstants(L=1.0, rho=1.0, sigma=1.0, delta_f=-1.0, dim=2)
    with pytest.raises(InvalidArgument):
        ProblemConstants(L=1.0, rho=1.0, sigma=1.0, delta_f=1.0, dim=0)


def test_derive_trivial_deltas():
    s = derive_schedule(UNIT, 0.01, 0.1)
    assert s.delta == pytest.approx(0.1, abs=1e-15)
    assert s.delta2 == pytest.approx(1.6, abs=1e-15)
    assert s.theoretical


def test_derive_infeasible_large_epsilon():
    with pytest.raises(InfeasibleSchedule):
        derive_schedule(UNIT, 4.0, 0.1)


def test_derive_rejects_bad_inputs():
    for epsilon, p in [(-1.0, 0.1), (0.01, 1.5), (math.nan, 0.1),
                       (math.inf, 0.1), (0.01, math.nan), (0.01, math.inf)]:
        with pytest.raises(InvalidArgument):
            derive_schedule(UNIT, epsilon, p)


def test_derived_schedule_substitution_oracle():
    # re-verify every closed-form inequality by direct substitution,
    # independently of the derivation code
    consts = UNIT_D10
    s = derive_schedule(consts, 0.01, 0.1)
    n = math.floor(math.log(3.0 / s.p) / math.log(1.0 / 0.7)) + 1
    c1 = 2.0 * n * math.log(24.0 * math.sqrt(consts.dim) / s.eta)
    assert s.c1 == pytest.approx(c1, rel=1e-12)
    assert s.delta == pytest.approx(math.sqrt(consts.rho * 0.01), rel=1e-12)
    assert s.delta2 == pytest.approx(16.0 * s.delta, rel=1e-12)
    assert s.ball_radius == pytest.approx(s.delta / (consts.rho * c1),
                                          rel=1e-12)
    assert s.k0 == math.ceil(c1 / (s.eta * s.delta2))
    s2 = max(consts.sigma ** 2, 1.0)
    bound = (s.ball_radius ** 2 * s.delta
             / (64.0 * s2 * c1 * math.log(48.0 * s.k0 / s.p))
             / (3.0 + math.log(s.k0)))
    assert s.eta <= bound
    assert s.eta * consts.L <= 1.0 / 16.0
    assert s.ball_radius <= min(1.0, consts.sigma / consts.L,
                                1.0 / consts.L)
    assert s.delta <= 1.0
    assert s.t1 == math.ceil(7.0 * consts.delta_f * s.eta * s.k0
                             / s.ball_radius ** 2) + 1
    assert s.t0 == s.t1 * s.k0


def test_derive_is_deterministic():
    a = derive_schedule(UNIT_D10, 0.01, 0.1)
    b = derive_schedule(UNIT_D10, 0.01, 0.1)
    assert a == b


def test_derived_schedule_validates():
    for consts, eps in [(UNIT, 0.01), (UNIT_D10, 0.01), (UNIT, 0.9)]:
        s = derive_schedule(consts, eps, 0.1)
        verdicts = validate_schedule(s, consts)
        assert all(v.passed for v in verdicts), \
            [v for v in verdicts if not v.passed]


@given(st.floats(min_value=1e-6, max_value=0.9),
       st.floats(min_value=0.01, max_value=0.5))
@settings(max_examples=20, deadline=None)
def test_quartering_epsilon_halves_delta(epsilon, p):
    a = derive_schedule(UNIT, epsilon, p)
    b = derive_schedule(UNIT, epsilon / 4.0, p)
    assert b.delta == pytest.approx(a.delta / 2.0, rel=1e-12)


def test_exit_round_length_reference():
    # ceil(2 log(2400) / (0.01 * 1.6)) = ceil(972.90...) = 973
    assert exit_round_length(0.01, 1.6, 1) == 973


def test_exit_round_length_cross_checked_with_mpmath():
    with mpmath.workdps(60):
        exact = mpmath.ceil(2 * mpmath.log(2400) / (mpmath.mpf("0.01")
                                                    * mpmath.mpf("1.6")))
        assert exit_round_length(0.01, 1.6, 1) == int(exact) == 973


def test_exit_round_length_boundary():
    with pytest.raises(InvalidArgument):
        exit_round_length(24.0 * math.sqrt(4), 1.6, 4)
    with pytest.raises(InvalidArgument):
        exit_round_length(-1.0, 1.6, 4)


@given(st.floats(min_value=1e-6, max_value=1.0),
       st.floats(min_value=1e-3, max_value=16.0),
       st.integers(min_value=1, max_value=100))
@settings(max_examples=200, deadline=None)
def test_exit_round_length_dominates_lower_bound(eta, delta2, dim):
    if eta * delta2 > 2.0:
        # outside the schedule regime the chain 2 log(1+x) >= x breaks
        return
    ko = exit_round_length(eta, delta2, dim)
    q0 = eta / (4.0 * math.sqrt(dim))
    lower = math.ceil(math.log(6.0 / q0) / math.log1p(eta * delta2))
    assert ko >= lower


def test_budget_zero_gap():
    assert budget(0.0, 0.001, 1000, 0.1) == (1, 1000)


def test_budget_reference():
    # ceil(7 * 1 * 0.001 * 1000 / 0.01) + 1 = 701
    assert budget(1.0, 0.001, 1000, 0.1) == (701, 701000)


@given(st.floats(min_value=0.0, max_value=100.0))
@settings(max_examples=50, deadline=None)
def test_budget_monotone_in_gap(delta_f):
    t1, _ = budget(delta_f, 0.001, 1000, 0.1)
    t1_doubled, _ = budget(2.0 * delta_f, 0.001, 1000, 0.1)
    assert t1_doubled >= t1


def test_validate_flags_forced_eta_violation():
    s = derive_schedule(UNIT, 0.01, 0.1)
    bad = dataclasses.replace(s, eta=s.eta * 1e6)
    verdicts = {v.name: v for v in validate_schedule(bad, UNIT)}
    assert not verdicts["eta-bound"].passed
    assert verdicts["eta-bound"].slack < 0


def test_validate_flags_forced_ball_violation():
    s = derive_schedule(UNIT, 0.01, 0.1)
    bad = dataclasses.replace(s, ball_radius=2.0)
    verdicts = {v.name: v for v in validate_schedule(bad, UNIT)}
    assert not verdicts["ball-radius cap"].passed


def test_schedule_json_round_trip():
    s = derive_schedule(UNIT, 0.01, 0.1)
    # the text that run_config writes to schedule.json
    text = _json_line(dataclasses.asdict(s))
    assert Schedule.from_json(text) == s
    payload = json.loads(text)
    assert set(payload) == {"epsilon", "p", "c1", "delta", "delta2",
                            "ball_radius", "k0", "ko", "eta", "t1", "t0",
                            "theoretical"}


def test_schedule_table_has_two_columns():
    s = derive_schedule(UNIT, 0.01, 0.1)
    for line in s.as_table().splitlines():
        assert len(line.split(None, 1)) == 2


def test_manual_schedule_basics():
    consts = ProblemConstants(L=299.0, rho=60.0, sigma=1.0, delta_f=2500.25,
                              dim=2)
    s = manual_schedule(consts, eta=0.01, ball_radius=0.5, k0=3000, ko=400,
                        epsilon=6e-5, p=0.1)
    assert not s.theoretical
    assert s.delta == pytest.approx(math.sqrt(60.0 * 6e-5))
    assert s.t0 == s.t1 * s.k0
    with pytest.raises(InvalidArgument):
        manual_schedule(consts, eta=-1.0, ball_radius=0.5, k0=10, ko=10,
                        epsilon=6e-5)
    # the same accuracy and probability checks as derive_schedule
    for epsilon, p in [(6e-5, 1.5), (6e-5, 0.0), (-1.0, 0.1), (0.0, 0.1),
                       (math.nan, 0.1), (math.inf, 0.1), (6e-5, math.nan),
                       (6e-5, math.inf)]:
        with pytest.raises(InvalidArgument):
            manual_schedule(consts, eta=0.01, ball_radius=0.5, k0=3000,
                            ko=400, epsilon=epsilon, p=p)


@pytest.mark.parametrize("field, value", [
    ("eta", math.nan), ("eta", math.inf), ("ball_radius", math.inf),
    ("ball_radius", math.nan), ("k0", True), ("k0", 3000.0), ("ko", 400.5)])
def test_manual_schedule_rejects_a_value_no_run_can_use(field, value):
    # an infinite ball never exits, a fractional ko cannot index the
    # injection steps, a bool is not a count, and the budget has no ceil
    # at a NaN or infinite eta
    consts = ProblemConstants(L=299.0, rho=60.0, sigma=1.0, delta_f=2500.25,
                              dim=2)
    args = dict(eta=0.01, ball_radius=0.5, k0=3000, ko=400, epsilon=6e-5)
    args[field] = value
    with pytest.raises(InvalidArgument, match=field):
        manual_schedule(consts, **args)
