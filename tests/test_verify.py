import itertools
import math
import random
from dataclasses import replace

import pytest

from singmod import cmcycles, modular, numerics, verify
from singmod.cmcycles import build_cycle
from singmod.greens import G_k_m, TailBudgetError
from singmod.numerics import PrecisionContext, PrecisionError, _q_int
from singmod.quadforms import QuadFormError
from singmod.verify import (
    Factorization,
    factor_norm,
    fundamental_discriminants,
    isogeny_witness,
    summarize,
    sweep,
    sweep_instances,
    verify_chain,
    verify_lower_bound,
    verify_nonunit,
)

CTX = PrecisionContext()


def test_factor_norm_examples():
    f = factor_norm(2 ** 24 * 3 ** 12)
    assert f.factors == ((2, 24), (3, 12)) and f.complete
    f = factor_norm(3 ** 12 * 5 ** 12)
    assert f.factors == ((3, 12), (5, 12))
    f = factor_norm(7919)
    assert f.factors == ((7919, 1),)
    assert str(factor_norm(12)) == "2^2 * 3"
    with pytest.raises(ValueError):
        factor_norm(1)


def test_factor_norm_reassembles():
    def is_prime(p):
        return p >= 2 and all(p % q for q in range(2, math.isqrt(p) + 1))

    for n in [2, 97, 1 << 40, 5103 ** 4, 10 ** 18 + 9, 2 ** 61 - 1]:
        f = factor_norm(n)
        assert f.reassemble() == n
        if f.complete:
            prod = 1
            for p, e in f.factors:
                assert is_prime(p)
                prod *= p ** e
            assert prod == n


def test_factor_norm_trial_division_rule():
    # a leftover below the square of the next trial divisor is prime
    f = factor_norm(999983 * 1000003)
    assert f.complete and f.factors == ((999983, 1), (1000003, 1))
    # above it the leftover stays a cofactor, prime or not
    for n in (1000003 ** 2, 2 ** 61 - 1):
        f = factor_norm(n)
        assert f.factors == () and f.cofactor == n and not f.complete
    assert "unfactored" in str(factor_norm(2 ** 61 - 1))


def _direct_trial_division(n, bound):
    """Trial division of n itself, with factor_norm's leftover rule."""
    factors, rest, p = {}, n, 2
    while p * p <= rest and p <= bound:
        while rest % p == 0:
            factors[p] = factors.get(p, 0) + 1
            rest //= p
        p += 1 if p == 2 else 2
    if 1 < rest < p * p:
        factors[rest] = 1
        rest = 1
    return tuple(sorted(factors.items())), rest


@pytest.mark.parametrize("root", [2, 12, 997, 1009, 2 * 1009, 1009 * 1013, 5103,
                                  2 ** 31 - 1])
def test_factor_norm_of_a_square_divides_the_root(root):
    # a square is divided through its root, with the same result as
    # dividing the square itself
    for power in (2, 4):
        f = factor_norm(root ** power, trial_bound=1000)
        assert (f.factors, f.cofactor) == _direct_trial_division(root ** power, 1000)


def _odd_trial_division(n, trial_bound):
    """factor_norm's rule by trial division by 2 and every odd number up to
    trial_bound, through the square roots of n."""
    rest, power = n, 1
    while math.isqrt(rest) ** 2 == rest:
        rest, power = math.isqrt(rest), 2 * power
    factors, p = {}, 2
    while p * p <= rest and p <= trial_bound:
        while rest % p == 0:
            factors[p] = factors.get(p, 0) + power
            rest //= p
        p += 1 if p == 2 else 2
    if 1 < rest < p * p and (power == 1 or rest <= trial_bound):
        factors[rest] = power
        rest = 1
    return tuple(sorted(factors.items())), rest ** power


def test_factor_norm_by_primes_equals_odd_trial_division():
    # dividing by primes alone leaves the factors and the cofactor of
    # dividing by 2 and the odd numbers: leftovers just past the bound's
    # reach (a prime in [1001^2, 1009^2) at bound 1000), prime squares,
    # fourth powers and bounds below 2
    rng = random.Random(11)
    small = [p for p in range(2, 3000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    window = next(n for n in range(1001 ** 2, 1009 ** 2)
                  if all(n % q for q in range(2, 1001)))
    cases = [window, 2 * window, window ** 2, 1009 ** 2, 1009 * 1013, 999983 * 1000003]
    for _ in range(150):
        n = math.prod(rng.choice(small) ** rng.randint(1, 3) for _ in range(rng.randint(1, 5)))
        cases += [n, n ** 2, n ** 4, n * rng.choice(small) ** 2]
    for n in cases:
        for bound in (0, 1, 2, 3, 9, 10, 30, 1000, 1001, 10 ** 6):
            if n >= 2:
                f = factor_norm(n, trial_bound=bound)
                assert (f.factors, f.cofactor) == _odd_trial_division(n, bound), (n, bound)


def test_primes_sieve_grows_by_doubling_as_read(monkeypatch):
    monkeypatch.setattr(numerics, "_primes", [2, 3])
    monkeypatch.setattr(numerics, "_prime_end", 4)
    # 2^20 3^5 7: the primes 2, 3 and 5 are read, whatever the bound
    assert factor_norm(2 ** 20 * 3 ** 5 * 7, trial_bound=10 ** 12).factors == \
        ((2, 20), (3, 5), (7, 1))
    assert numerics._prime_end == 8
    first = list(itertools.islice(numerics.primes(), 1229))
    assert first == [p for p in range(2, 10 ** 4)
                     if all(p % q for q in range(2, math.isqrt(p) + 1))]
    assert numerics._prime_end == 2 ** 14


def test_verify_nonunit_basic():
    rep = verify_nonunit(-3, -4, 1, CTX)
    assert rep.status == "ok"
    assert rep.cycle_kind == "big" and rep.asserted
    assert rep.norm == 1728 ** 4
    assert rep.non_unit and rep.all_passed
    assert rep.log_norm == pytest.approx(4 * math.log(1728), rel=1e-12)


def test_verify_nonunit_factorized():
    rep = verify_nonunit(-4, -7, 1, CTX, factor=True)
    # 5103 = 3^6 * 7, so the norm is 3^24 * 7^4
    assert rep.norm == 5103 ** 4
    assert rep.factorization.factors == ((3, 24), (7, 4))
    assert rep.witness == 3


def test_verify_nonunit_zero_is_legal():
    rep = verify_nonunit(-4, -4, 2, CTX)
    assert rep.status == "zero"
    assert rep.singular_pair is not None
    assert rep.all_passed  # a legal zero is not a failure


def test_unresolved_cm_factor_is_an_error_not_a_zero(monkeypatch):
    # j-value error bounds too wide at every precision: phi_1(1728, 0) is
    # never resolved, so the norm fails after its retries (exit 2) and is
    # not reported as a legal zero
    monkeypatch.setattr(modular, "_J_ERROR_UNITS", 1 << 65536)
    monkeypatch.setattr(modular, "_jvalue_cache", {})
    rep = verify_nonunit(-3, -4, 1, CTX)
    assert rep.status == "error" and "PrecisionError" in rep.error
    # the failure names the unbounded error, not only the last residual
    assert "error bound inf, short by inf bits" in rep.error


def test_verify_nonunit_diagnostic_mode():
    rep = verify_nonunit(-3, -15, 1, CTX)
    assert rep.cycle_kind == "diagnostic"
    assert not rep.asserted
    assert rep.norm is not None  # still a well-defined integer


def test_verify_nonunit_bad_input():
    rep = verify_nonunit(-5, -4, 1, CTX)
    assert rep.status == "error" and not rep.all_passed


def test_isogeny_witness():
    assert isogeny_witness(-4, -7, 1, CTX) == 3
    assert isogeny_witness(-4, -4, 2, CTX) is None  # zero value: no witness


def test_isogeny_witness_invalid_input_raises_its_own_error():
    # not a PrecisionError: nothing failed to certify
    with pytest.raises(QuadFormError, match="discriminant"):
        isogeny_witness(-5, -4, 1, CTX)
    with pytest.raises(ValueError, match="m must be a positive integer"):
        isogeny_witness(-4, -7, 0, CTX)


def test_isogeny_witness_failed_certification_is_a_precision_error(monkeypatch):
    # as in test_unresolved_cm_factor_is_an_error_not_a_zero: the norm never
    # certifies, which is neither a zero nor invalid input
    monkeypatch.setattr(modular, "_J_ERROR_UNITS", 1 << 65536)
    monkeypatch.setattr(modular, "_jvalue_cache", {})
    with pytest.raises(PrecisionError, match="short by inf bits"):
        isogeny_witness(-3, -4, 1, CTX)


def test_isogeny_witness_raises_without_a_prime(monkeypatch):
    # a norm whose trial division finds no prime is not a zero: no silent None
    monkeypatch.setattr(verify, "factor_norm",
                        lambda n, trial_bound=0: Factorization((), 2 ** 61 - 1))
    with pytest.raises(ValueError, match="no prime factor"):
        isogeny_witness(-4, -7, 1, CTX)


def test_verify_lower_bound():
    rep = verify_nonunit(-3, -4, 1, CTX)
    for eps in (0.25, 1.0, 4.0):
        out = verify_lower_bound(-3, -4, 1, eps, CTX, report=rep)
        assert out.passed
        assert out.lhs == pytest.approx(rep.log_norm)
        assert out.rhs >= 0.0
    assert len(rep.epsilon_bounds) == 3
    # huge epsilon captures every cycle point
    wide = verify_lower_bound(-3, -4, 1, 50.0, CTX)
    assert wide.count == 4
    with pytest.raises(ValueError):
        verify_lower_bound(-3, -4, 1, 0.0, CTX)


def test_verify_lower_bound_at_large_epsilon():
    # Q_2(cosh(sqrt(2) eps)) is tiny and positive here, far below what an
    # mpf upward recurrence without guard bits returns (1e-47 at eps = 30,
    # negative at eps = 40)
    rep = verify_nonunit(-3, -4, 1, CTX)
    for eps in (30.0, 40.0, 70.5, 100.0):
        out = verify_lower_bound(-3, -4, 1, eps, CTX, report=rep)
        q2 = _q_int(2, math.cosh(math.sqrt(2.0) * eps))
        assert 0.0 < q2 < 1e-55
        assert out.rhs == 2.0 * out.count * q2 and out.count == 4
        assert out.passed
    # cosh overflows: Q_2 < t^-3 is below every float
    huge = verify_lower_bound(-3, -4, 1, 1e308, CTX, report=rep)
    assert huge.rhs == 0.0 and huge.passed
    for eps in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="positive and finite"):
            verify_lower_bound(-3, -4, 1, eps, CTX, report=rep)
    # cosh(sqrt(2) eps) rounds to 1: refused, not a traceback or a pass
    with pytest.raises(ValueError, match="too small"):
        verify_lower_bound(-3, -4, 1, 1e-12, CTX, report=rep)


def test_verify_chain():
    rep = verify_nonunit(-3, -4, 2, CTX)
    bounds = verify_chain(-3, -4, 2, CTX, tail_target=1e-4, report=rep)
    assert [b.k for b in bounds] == [3, 5, 7]
    for b in bounds:
        assert b.passed
        assert b.neg_gkm > 0  # each Green's value is negative off the graph
        assert b.bound == pytest.approx(b.mk * b.neg_gkm)
    assert rep.chain == bounds and rep.all_passed


def test_verify_chain_folding_matches_every_pair():
    # each conjugate pair is evaluated once; summing every pair of the
    # unfolded cycle gives the same bound within the tails
    d1, d2, m, tail = -15, -23, 2, 1e-3
    rep = verify_nonunit(d1, d2, m, CTX)
    bounds = verify_chain(d1, d2, m, CTX, tail_target=tail, report=rep)
    neg = [0.0, 0.0, 0.0]
    slack = [0.0, 0.0, 0.0]
    for pair in build_cycle(d1, d2).pairs:
        for i, k in enumerate((3, 5, 7)):
            part = G_k_m(k, m, pair.z1, pair.z2, CTX, tail_target=tail)
            neg[i] += pair.multiplicity * (-part.value + part.tail_bound)
            slack[i] += pair.multiplicity * part.tail_bound
    for b, want, tol in zip(bounds, neg, slack):
        assert b.neg_gkm == pytest.approx(want, abs=tol)


@pytest.mark.parametrize("d1, d2, m, pair", [
    (-11, -11, 1, (1, 1, 1, 1)),
    (-23, -23, 1, (1, 1, 1, 1)),
    (-4, -4, 2, (1, 0, 1, 0)),
])
def test_zero_reported_at_the_first_singular_pair(d1, d2, m, pair):
    rep = verify_nonunit(d1, d2, m, CTX)
    assert rep.status == "zero" and rep.singular_pair == pair


def test_fundamental_discriminants():
    out = fundamental_discriminants(24)
    assert out == [-3, -4, -7, -8, -11, -15, -19, -20, -23, -24]


def test_sweep_instances_policies():
    exact = sweep_instances([-3, -4, -15], [-3, -4, -15], [1, 2], "exact")
    # (-3, -15) shares the factor 3 and is not a square product: excluded
    assert (-3, -15, 1) not in exact
    assert (-3, -4, 1) in exact and (-4, -15, 2) in exact
    assert (-3, -3, 1) in exact  # same field: small case stays
    every = sweep_instances([-3, -4, -15], [-3, -4, -15], [1], "all")
    assert (-3, -15, 1) in every
    # unordered pairs appear once
    assert (-4, -3, 1) not in exact
    with pytest.raises(ValueError):
        sweep_instances([-3], [-3], [1], "bogus")


def test_sweep_rejects_an_invalid_discriminant(monkeypatch):
    # -5 is no discriminant: the sweep raises before any work instead of
    # dropping its instances in silence
    def no_plan(*args):
        raise AssertionError("the plan stage ran")

    monkeypatch.setattr(verify, "plan_jvalues", no_plan)
    with pytest.raises(QuadFormError):
        sweep([-3, -5, 2], [-4], [1], CTX)
    with pytest.raises(QuadFormError):
        sweep_instances([-3, -4], [-4, -5], [1])


def test_sweep_and_summary():
    reports = sweep([-3, -4, -7], [-3, -4, -7], [1, 2], CTX)
    assert len(reports) == len(
        sweep_instances([-3, -4, -7], [-3, -4, -7], [1, 2], "exact"))
    stats = summarize(reports)
    assert stats["total"] == len(reports)
    assert stats["ok"] + stats["zero"] + stats["error"] == stats["total"]
    assert stats["error"] == 0
    assert stats["assert_failures"] == 0
    # the (-4, -4, 2) instance is the known legal zero in this grid
    zero_keys = {(r.d1, r.d2, r.m) for r in reports if r.status == "zero"}
    assert (-4, -4, 2) in zero_keys


def test_sweep_parallel_matches_serial():
    grid = ([-3, -4], [-3, -4], [1, 2])
    serial = sweep(*grid, CTX, workers=1)
    parallel = sweep(*grid, CTX, workers=2)
    assert [(r.d1, r.d2, r.m, r.status, r.norm) for r in serial] == \
        [(r.d1, r.d2, r.m, r.status, r.norm) for r in parallel]


def _sweep_grid_15():
    ds = fundamental_discriminants(15)
    return ds, ds, [1, 2, 3]


def test_sweep_pooled_reports_equal_serial():
    # small cycles (d1 = d2), legal zeros, epsilon counts and factorizations
    kwargs = {"epsilons": (0.5,), "factor": True}
    serial = sweep(*_sweep_grid_15(), CTX, workers=1, **kwargs)
    pooled = sweep(*_sweep_grid_15(), CTX, workers=2, **kwargs)
    assert {r.status for r in serial} == {"ok", "zero"}
    assert any(r.cycle_kind == "small" and r.status == "ok" for r in serial)
    assert [replace(r, elapsed=0.0) for r in serial] == \
        [replace(r, elapsed=0.0) for r in pooled]


def test_serial_sweep_evaluates_each_planned_form_once(monkeypatch):
    grid = _sweep_grid_15()
    plan = verify.plan_jvalues(sweep_instances(*grid), CTX)
    monkeypatch.setattr(modular, "_jvalue_cache", {})
    series = []
    original_series = modular._j_series

    def counted_series(*args):
        series.append(args)
        return original_series(*args)

    during = []
    original_nonunit = verify.verify_nonunit

    def watched_nonunit(*args, **kwargs):
        before = len(series)
        try:
            return original_nonunit(*args, **kwargs)
        finally:
            during.append(len(series) - before)

    monkeypatch.setattr(modular, "_j_series", counted_series)
    monkeypatch.setattr(verify, "verify_nonunit", watched_nonunit)
    reports = sweep(*grid, CTX, epsilons=(0.5,), factor=True)
    # one series per class pair: a class and its inverse share one
    pairs = {(form.a, abs(form.b), form.c) for form in plan}
    assert len(pairs) > 20 and len(series) == len(pairs) < len(plan)
    assert len(during) == len(reports) and not any(during)


def test_sweep_builds_each_cycle_once(monkeypatch):
    # the plan stage and every m's norm, epsilon count and chain bound read
    # one memoised cycle, so its conjugate orbits are folded once
    builds, folds = [], []
    build, fold = cmcycles.big_cm_cycle, cmcycles._folded

    def build_spy(d1, d2):
        builds.append((d1, d2))
        return build(d1, d2)

    def fold_spy(points):
        folds.append(points)
        return fold(points)

    build_cycle.cache_clear()
    monkeypatch.setattr(cmcycles, "big_cm_cycle", build_spy)
    monkeypatch.setattr(cmcycles, "_folded", fold_spy)
    reports = sweep([-7], [-8], range(1, 5), CTX, epsilons=(0.5,), chain=True)
    assert [r.m for r in reports] == [1, 2, 3, 4]
    assert all(r.status == "ok" and r.chain and r.epsilon_bounds for r in reports)
    assert len(builds) == 1 and len(folds) == 1


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, mp_context
    and chunksize, runs the tasks inline."""

    sizes = []
    contexts = []
    chunks = []

    def __init__(self, max_workers, mp_context=None):
        self.sizes.append(max_workers)
        self.contexts.append(mp_context)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        self.chunks.append(chunksize)
        return map(fn, *iterables)


@pytest.mark.parametrize("cpus, expect", [(64, 3), (2, 2), (None, 1)])
def test_sweep_pool_is_capped(monkeypatch, cpus, expect):
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    _RecordingPool.sizes = []
    _RecordingPool.contexts = []
    _RecordingPool.chunks = []
    grid = ([-3, -4], [-3, -4], [1])
    assert len(sweep_instances(*grid)) == 3
    reports = sweep(*grid, CTX, workers=500)
    pooled = expect > 1  # a cap of one runs serially, with no pool
    assert _RecordingPool.sizes == [expect] * pooled
    # workers fork from the planned process, whatever the default start method
    assert [c.get_start_method() for c in _RecordingPool.contexts] == ["fork"] * pooled
    assert _RecordingPool.chunks == [1] * pooled  # 3 instances in at most 4 chunks a worker
    assert [replace(r, elapsed=0.0) for r in reports] == \
        [replace(r, elapsed=0.0) for r in sweep(*grid, CTX)]


def _unreachable_tail(*args, **kwargs):
    raise TailBudgetError("tail target out of reach")


def test_sweep_chain_failure_is_an_error(monkeypatch):
    monkeypatch.setattr(verify, "G_ks_m_cycle", _unreachable_tail)
    # every instance reaches the chain; none aborts the sweep or passes
    reports = sweep([-3, -4], [-7, -8], [1], CTX, chain=True)
    assert reports and all(r.status == "error" for r in reports)
    assert all("TailBudgetError" in r.error for r in reports)
    assert not any(r.all_passed for r in reports)
    assert summarize(reports)["error"] == len(reports)


def test_sweep_epsilon_failure_is_an_error(monkeypatch):
    def lost(*args, **kwargs):
        raise PrecisionError("did not stabilize")

    monkeypatch.setattr(verify, "tm_count", lost)
    reports = sweep([-3, -4], [-7, -8], [1], CTX, epsilons=(0.5,))
    assert reports and all(r.status == "error" for r in reports)
    assert all(r.error.startswith("epsilon: PrecisionError") for r in reports)
