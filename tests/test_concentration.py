import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ballsgd import concentration, noise
from ballsgd.concentration import (_head_length, bernstein_tail_experiment,
                                   bernstein_threshold,
                                   pinelis_tail_experiment)
from ballsgd.errors import InvalidArgument
from ballsgd.noise import NarrowSet, NoiseSampler, estimate_set_probability


def test_pinelis_zero_threshold_is_vacuous():
    report = pinelis_tail_experiment(dim=3, K=8, step_bound=1.0,
                                     lambda_grid=[0.0], n_trials=10_000)
    assert report.empirical_tail == (1.0,)
    assert report.bound == (4.0,)
    assert report.passed


def test_pinelis_bound_is_dimension_free():
    grid = [8.0, 16.0, 24.0]
    low = pinelis_tail_experiment(dim=5, K=64, step_bound=1.0,
                                  lambda_grid=grid, n_trials=20_000)
    high = pinelis_tail_experiment(dim=50, K=64, step_bound=1.0,
                                   lambda_grid=grid, n_trials=20_000)
    assert low.bound == high.bound
    assert low.passed and high.passed


def test_pinelis_tail_nonincreasing_in_lambda():
    report = pinelis_tail_experiment(dim=4, K=32, step_bound=1.0,
                                     lambda_grid=[2.0, 4.0, 8.0, 12.0],
                                     n_trials=20_000)
    assert report.lambda_grid == (2.0, 4.0, 8.0, 12.0)
    tails = report.empirical_tail
    assert all(b <= a for a, b in zip(tails, tails[1:]))


def test_pinelis_bound_formula():
    report = pinelis_tail_experiment(dim=3, K=16, step_bound=0.5,
                                     lambda_grid=[3.0], n_trials=10_000)
    assert report.bound[0] == pytest.approx(
        4.0 * math.exp(-9.0 / (4.0 * 16 * 0.25)))


def test_pinelis_deterministic_given_seed():
    a = pinelis_tail_experiment(dim=4, K=8, step_bound=1.0,
                                lambda_grid=[4.0], n_trials=10_000, seed=7)
    b = pinelis_tail_experiment(dim=4, K=8, step_bound=1.0,
                                lambda_grid=[4.0], n_trials=10_000, seed=7)
    assert a.to_dict() == b.to_dict()


def test_pinelis_report_does_not_depend_on_chunk_size(monkeypatch):
    # every Monte-Carlo check runs its trials through noise._trial_counts;
    # each report equals the one-thread report at the default chunk budget,
    # for chunks of one trial, of a count that does not divide the trials
    # and of every trial, and for 1, 2 or 3 threads, whether or not there
    # are that many cores
    slab = NarrowSet.centered(np.array([1.0, 0.0, 0.0]), 0.2)

    def pinelis():
        return pinelis_tail_experiment(dim=5, K=64, step_bound=1.0,
                                       lambda_grid=[4.0, 8.0, 12.0, 16.0],
                                       n_trials=10_000, seed=3).to_dict()

    def pinelis_decided_early():
        # lambda_min = 10 > (16 - 14) + 2 sqrt(14): the screen reads each
        # trial's first 14 rows, and only the trials it leaves open draw
        # their 16 exact rows; chunks are sized by the 14 screened rows
        return pinelis_tail_experiment(dim=1, K=16, step_bound=1.0,
                                       lambda_grid=[10.0, 12.0],
                                       n_trials=10_000, seed=3).to_dict()

    def bernstein():
        return bernstein_tail_experiment(K=4, step_bound=1.0, variance=0.1,
                                         delta=0.3, n_trials=10_000,
                                         seed=3).to_dict()

    def estimate():
        # truncated rows, which a 5-sigma bound at d = 3 all but never
        # redraws, are covered by test_noise's forced-redraw chunk test
        sampler = NoiseSampler("scaled-gaussian", 1.0, 3)
        return estimate_set_probability(sampler, slab, 10_000, 3)

    # (report, stream words per trial, whether it is a tail report)
    cases = [(pinelis, 64 * 6, True), (pinelis_decided_early, 14 * 2, True),
             (bernstein, 4, True), (estimate, 4, False)]
    default = noise._CHUNK_WORDS
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for report, words, tails in cases:
            monkeypatch.setattr(noise, "_workers", lambda: 1)
            monkeypatch.setattr(noise, "_CHUNK_WORDS", default)
            reference = report()
            if tails:
                assert any(0.0 < t < 1.0
                           for t in reference["empirical_tail"])
            else:
                assert 0.0 < reference.frequency < 1.0
            # 1 trial (a budget below one trial's words), 999 trials, all
            # 10^4 trials in one chunk, and the default budget
            budgets = (1, 999 * words + words - 1, 10_000 * words, default)
            for workers in (1, 2, 3):
                monkeypatch.setattr(noise, "_workers", lambda: workers)
                for budget in budgets:
                    monkeypatch.setattr(noise, "_CHUNK_WORDS", budget)
                    assert report() == reference, (report, workers, budget)
    finally:
        sys.setswitchinterval(interval)


def test_pinelis_validation():
    with pytest.raises(InvalidArgument):
        pinelis_tail_experiment(dim=3, K=8, step_bound=1.0,
                                lambda_grid=[1.0], n_trials=5000)
    with pytest.raises(InvalidArgument):
        pinelis_tail_experiment(dim=0, K=8, step_bound=1.0,
                                lambda_grid=[1.0], n_trials=10_000)
    with pytest.raises(InvalidArgument):
        pinelis_tail_experiment(dim=3, K=8, step_bound=0.0,
                                lambda_grid=[1.0], n_trials=10_000)
    for grid in ([1.0, -5.0], []):
        with pytest.raises(InvalidArgument):
            pinelis_tail_experiment(dim=3, K=8, step_bound=1.0,
                                    lambda_grid=grid, n_trials=10_000)
    for step_bound in (math.nan, math.inf):
        with pytest.raises(InvalidArgument):
            pinelis_tail_experiment(dim=3, K=8, step_bound=step_bound,
                                    lambda_grid=[1.0], n_trials=10_000)


def test_pinelis_draws_nothing_past_k_step_bounds(monkeypatch):
    # no sum of K = 8 steps of norm 0.5 reaches lambda_min = 4.5 > 8 * 0.5,
    # so J = 0 and no trial draws a word or a row; a lambda whose square
    # overflows has bound 0
    words, rows = _recorded_draws(monkeypatch)
    report = pinelis_tail_experiment(dim=3, K=8, step_bound=0.5,
                                     lambda_grid=[1e308, 4.5],
                                     n_trials=10_000)
    assert words == [] and rows == []
    assert report.empirical_tail == (0.0, 0.0)
    assert report.bound[0] > 0.0 and report.bound[1] == 0.0
    assert report.passed


def test_head_length_meets_its_definition():
    # J is the least j in 0..K whose predicate holds, else K.  For j >= 1
    # the left side falls by at least (3 - 2 sqrt(2)) b per step, as
    # c <= 2, so a predicate false at J - 1 is false at every j in
    # 1..J - 1, and 0 is checked on its own
    seen = set()
    for dim in (1, 2, 5, 50, 10 ** 6):
        c = 1.0 + 1.0 / math.sqrt(dim)
        for K in (1, 2, 3, 4, 7, 16, 64, 1000, 4096):
            for b in (0.3, 1.0, 7.0):
                top = (K + 1) * b
                lambdas = [0.0, K * b, math.nextafter(K * b, math.inf),
                           math.sqrt(K) * b]
                lambdas += [top * i / 97 for i in range(98)]
                for lam in lambdas:
                    def holds(j):
                        return (K - j) * b + c * b * math.sqrt(j) < lam

                    J = _head_length(dim, K, b, lam)
                    case = (dim, K, b, lam)
                    assert 0 <= J <= K and (holds(J) or J == K), case
                    assert J == 0 or not holds(0), case
                    assert J < 2 or not holds(J - 1), case
                    seen.add("0" if J == 0 else "K" if J == K else "mid")
    assert seen == {"0", "K", "mid"}
    # the bench's K = 64 at lambda = 32 with b = 1
    assert [_head_length(d, 64, 1.0, 32.0) for d in (1, 5, 50)] == \
        [46, 42, 40]


def _recorded_draws(monkeypatch):
    """Two lists that fill as pinelis draws: (trials, words per trial) of
    each call of concentration's random_words, which only the screen
    makes, and (count, trial starts) of each NoiseSampler.rows call."""
    words, rows = [], []
    random_words = concentration.random_words
    sampler_rows = NoiseSampler.rows

    def recording_words(seeds, starts, count, work=None):
        words.append((np.size(starts), count))
        return random_words(seeds, starts, count, work)

    def recording_rows(self, seeds, starts, count, work=None):
        rows.append((count, np.asarray(starts).tolist()))
        return sampler_rows(self, seeds, starts, count, work)

    monkeypatch.setattr(concentration, "random_words", recording_words)
    monkeypatch.setattr(NoiseSampler, "rows", recording_rows)
    return words, rows


def _drawn_trials(rows, K, w):
    """The trials whose K exact rows were drawn, each at most once."""
    assert {count for count, _ in rows} <= {K}
    trials = [start // (K * w) for _, starts in rows for start in starts]
    assert len(set(trials)) == len(trials)
    return set(trials)


def _reachable(sampler, seed, n, K, J, lam):
    """The trials whose exact first J rows leave lam within reach of their
    last K - J."""
    starts = K * sampler.words_per_row * np.arange(n, dtype=np.uint64)
    heads = np.linalg.norm(sampler.rows(seed, starts, J).sum(axis=1),
                           axis=1)
    return set(np.flatnonzero(heads + (K - J) * sampler.sigma >= lam)
               .tolist())


@pytest.mark.parametrize("dim, K, lam, J", [(50, 64, 32.0, 40),
                                            (1, 16, 10.0, 14)])
def test_pinelis_head_is_set_by_the_law_spread(monkeypatch, dim, K, lam, J):
    # J is the smallest j with (K - j) + (1 + 1/sqrt(dim)) sqrt(j) < lam:
    # the screen reads the first J rows of every trial, and only the
    # trials it leaves open draw their K exact rows: every trial that can
    # still reach lam, and few others
    monkeypatch.setattr(noise, "_workers", lambda: 1)
    n, seed = 10_000, 1000
    sampler = NoiseSampler("uniform-sphere", 1.0, dim)
    w = sampler.words_per_row
    reachable = _reachable(sampler, seed, n, K, J, lam)
    words, rows = _recorded_draws(monkeypatch)
    report = pinelis_tail_experiment(dim=dim, K=K, step_bound=1.0,
                                     lambda_grid=[lam], n_trials=n,
                                     seed=seed)
    assert {per_trial for _, per_trial in words} == {J * w}
    assert sum(trials for trials, _ in words) == n
    drawn = _drawn_trials(rows, K, w)
    assert reachable <= drawn
    assert len(drawn) < 1.05 * len(reachable) < n / 10
    assert report.passed


def test_pinelis_counts_match_the_brute_force_sums(monkeypatch):
    # at d = 2 the screen reads 14 of the 16 rows (it was 15 with the
    # d = 1 factor 2); the counts are those of every trial's full sum of K
    # rows
    n, K, dim, seed, grid = 10_000, 16, 2, 5, (9.0, 10.0, 12.0)
    sampler = NoiseSampler("uniform-sphere", 1.0, dim)
    starts = K * sampler.words_per_row * np.arange(n, dtype=np.uint64)
    norms = np.linalg.norm(sampler.rows(seed, starts, K).sum(axis=1),
                           axis=1)
    words, rows = _recorded_draws(monkeypatch)
    report = pinelis_tail_experiment(dim, K, 1.0, grid, n, seed)
    assert {per_trial for _, per_trial in words} == \
        {14 * sampler.words_per_row}
    assert {count for count, _ in rows} == {K}
    assert [t.hits for t in report.tails] == \
        [int(np.count_nonzero(norms >= lam)) for lam in grid] == [39, 12, 1]


def test_pinelis_draws_every_trial_once_when_no_row_is_screened(
        monkeypatch):
    # at lambda_min = 4 <= (1 + 1/sqrt(5)) sqrt(64), J = K = 64: no row is
    # screened, and every trial draws its 64 exact rows once
    words, rows = _recorded_draws(monkeypatch)
    report = pinelis_tail_experiment(5, 64, 1.0, [4.0, 12.0], 10_000, 3)
    assert words == []
    assert _drawn_trials(rows, 64, 6) == set(range(10_000))
    assert 0.0 < report.empirical_tail[1] < report.empirical_tail[0] < 1.0


_J_CASES = ("J = 0", "0 < J < K", "J = K")


@given(st.sampled_from([1, 2, 3, 5]), st.integers(1, 12),
       st.sampled_from([0.5, 1.0, 3.0]), st.integers(0, 2 ** 64 - 1),
       st.sampled_from(_J_CASES), st.data())
@settings(max_examples=60, deadline=None)
def test_pinelis_counts_are_the_full_sums_counts(dim, K, step_bound, seed,
                                                 case, data):
    # every report's hits are the brute-force counts of every trial's sum
    # of K rows, whether no row, some rows or all K are screened.  The
    # thresholds are trial norms themselves, or a few ULPs off one, so
    # ties occur and the tails lie strictly between 0 and 1
    if case == "0 < J < K":
        K = max(K, 6)  # then 1 + c sqrt(K - 1) < K, c <= 2
    n, b = 10_000, step_bound
    sampler = NoiseSampler("uniform-sphere", b, dim)
    starts = K * sampler.words_per_row * np.arange(n, dtype=np.uint64)
    norms = np.sort(np.linalg.norm(
        sampler.rows(seed, starts, K).sum(axis=1), axis=1))
    # the lambda_min of each case, inward of the edges that the rounding of
    # _head_length's predicate could move by 10^-9; J = 0 from the first
    # double past K b, where the cut is below 0 and every trial is open
    c = 1.0 + 1.0 / math.sqrt(dim)
    lo, hi = {"J = 0": (math.nextafter(K * b, math.inf), 1.05 * K * b),
              "0 < J < K": (b + c * b * math.sqrt(K - 1), K * b),
              "J = K": (0.0, min(K, c * math.sqrt(K)) * b)}[case]
    if case != "J = 0":
        lo, hi = lo * (1.0 + 1e-9), hi * (1.0 - 1e-9)
    inside = norms[(norms >= lo) & (norms <= hi)]
    if inside.size:
        lam = float(inside[data.draw(st.integers(0, inside.size - 1))])
        for _ in range(data.draw(st.integers(0, 2))):
            lam = math.nextafter(lam, data.draw(st.sampled_from(
                [-math.inf, math.inf])))
    else:
        lam = data.draw(st.floats(lo, hi))
    lam = min(max(lam, lo), hi)
    picks = data.draw(st.lists(st.integers(0, n - 1), max_size=2))
    grid = [lam] + [float(norms[i]) for i in picks if norms[i] >= lam]
    J = _head_length(dim, K, b, lam)
    assert {"J = 0": J == 0, "0 < J < K": 0 < J < K,
            "J = K": J == K}[case]
    report = pinelis_tail_experiment(dim, K, b, grid, n, seed)
    assert [t.hits for t in report.tails] == \
        [int(np.count_nonzero(norms >= lam)) for lam in report.lambda_grid]


def test_open_trials_finish_in_groups_within_the_chunk_budget(monkeypatch):
    # at lambda = 127.5 over K = 128 steps in d = 1, J = 5: a chunk holds
    # 6553 trials, and the 1 in 16 with |S_5| = 5 stay open, more than the
    # 256 trials whose 128 rows of 2 words fit in the 2^16-word budget
    n, K, seed = 10_000, 128, 4
    sampler = NoiseSampler("uniform-sphere", 1.0, 1)
    starts = K * sampler.words_per_row * np.arange(n, dtype=np.uint64)
    steps = sampler.rows(seed, starts, K)
    monkeypatch.setattr(noise, "_workers", lambda: 1)
    words, rows = _recorded_draws(monkeypatch)
    report = pinelis_tail_experiment(1, K, 1.0, [127.5], n, seed)
    assert words == [(6553, 5 * 2), (3447, 5 * 2)]
    groups = [len(trials) for _, trials in rows]
    assert {count for count, _ in rows} == {K}
    assert len(groups) > len(words) and max(groups) <= 256
    assert sum(groups) == np.count_nonzero(
        np.abs(steps[:, :5].sum(axis=1)) == 5.0)
    assert report.tails[0].hits == np.count_nonzero(
        np.abs(steps.sum(axis=1)) >= 127.5) == 0


def test_a_trial_past_2_24_words_is_rejected_before_drawing(monkeypatch):
    # pinelis reads K w words a trial (w = 50 at dim 50), bernstein K;
    # neither may draw a word once a trial would read more than 2^24
    def no_draw(*args, **kwargs):
        raise AssertionError("drew stream words")

    monkeypatch.setattr(NoiseSampler, "rows", no_draw)
    monkeypatch.setattr(concentration, "random_words", no_draw)
    for K in (10 ** 7, 2 ** 24 // 50 + 1):
        with pytest.raises(InvalidArgument, match="2\\^24"):
            pinelis_tail_experiment(dim=50, K=K, step_bound=1e-6,
                                    lambda_grid=[1.0], n_trials=10_000)
    for K in (10 ** 9, 2 ** 24 + 1):
        with pytest.raises(InvalidArgument, match="2\\^24"):
            bernstein_tail_experiment(K=K, step_bound=1.0, variance=0.1,
                                      delta=0.01, n_trials=10_000)


def test_step_bounds_whose_sums_overflow_are_rejected():
    for K, step_bound in [(64, 1e200), (2, 2.0 ** 500)]:
        with pytest.raises(InvalidArgument, match="step_bound"):
            pinelis_tail_experiment(dim=3, K=K, step_bound=step_bound,
                                    lambda_grid=[1.0], n_trials=10_000)
        with pytest.raises(InvalidArgument, match="step_bound"):
            bernstein_tail_experiment(K=max(K, 4), step_bound=step_bound,
                                      variance=0.1, delta=0.01,
                                      n_trials=10_000)
    # K * step_bound = 2^500 exactly is accepted
    report = pinelis_tail_experiment(dim=3, K=2, step_bound=2.0 ** 499,
                                     lambda_grid=[2.0 ** 500],
                                     n_trials=10_000)
    assert report.bound[0] == pytest.approx(4.0 * math.exp(-0.5))


def test_bernstein_threshold_formula():
    # 2 * max(2 sqrt(K var), b sqrt(log(1/delta))) * sqrt(log(1/delta))
    root = math.sqrt(math.log(100.0))
    assert bernstein_threshold(100, 1.0, 0.09, 0.01) == pytest.approx(
        2.0 * max(2.0 * math.sqrt(9.0), root) * root)
    # small-variance regime where the step_bound term dominates
    assert bernstein_threshold(4, 1.0, 0.0, 0.01) == pytest.approx(
        2.0 * math.log(100.0))


def test_bernstein_reference_case_passes():
    report = bernstein_tail_experiment(K=100, step_bound=1.0, variance=0.09,
                                       delta=0.01, n_trials=20_000)
    assert report.bound[0] == pytest.approx(math.log(100.0) * 0.01)
    assert report.passed


def test_bernstein_extremal_variance_passes():
    # variance = step_bound^2 forces +-b increments with probability 1
    report = bernstein_tail_experiment(K=64, step_bound=1.0, variance=1.0,
                                       delta=0.05, n_trials=10_000)
    assert report.passed


def test_bernstein_deterministic_given_seed():
    a = bernstein_tail_experiment(K=16, step_bound=1.0, variance=0.25,
                                  delta=0.01, n_trials=10_000, seed=3)
    b = bernstein_tail_experiment(K=16, step_bound=1.0, variance=0.25,
                                  delta=0.01, n_trials=10_000, seed=3)
    assert a.to_dict() == b.to_dict()


def test_bernstein_validation():
    with pytest.raises(InvalidArgument):
        bernstein_tail_experiment(K=3, step_bound=1.0, variance=0.1,
                                  delta=0.01, n_trials=10_000)
    with pytest.raises(InvalidArgument):
        bernstein_tail_experiment(K=10, step_bound=1.0, variance=0.1,
                                  delta=0.5, n_trials=10_000)
    with pytest.raises(InvalidArgument):
        bernstein_tail_experiment(K=10, step_bound=1.0, variance=0.1,
                                  delta=0.01, n_trials=100)
    with pytest.raises(InvalidArgument):
        bernstein_tail_experiment(K=10, step_bound=1.0, variance=2.0,
                                  delta=0.01, n_trials=10_000)
    # a non-finite input degenerates the threshold or the increments into
    # a check that cannot fail
    for step_bound, variance, delta in [(math.inf, 0.1, 0.01),
                                        (math.nan, 0.1, 0.01),
                                        (1.0, math.nan, 0.01),
                                        (1.0, 0.1, math.nan)]:
        with pytest.raises(InvalidArgument):
            bernstein_tail_experiment(K=10, step_bound=step_bound,
                                      variance=variance, delta=delta,
                                      n_trials=10_000)


def test_report_to_dict_is_json_native():
    import json
    report = pinelis_tail_experiment(dim=2, K=4, step_bound=1.0,
                                     lambda_grid=[1.0, 2.0],
                                     n_trials=10_000)
    round_trip = json.loads(json.dumps(report.to_dict()))
    assert round_trip["n_trials"] == 10_000
    assert round_trip["pass"] == report.passed
