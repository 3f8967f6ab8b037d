"""End-to-end certification: exact norms, non-unit checks, bound inequalities.

Pulls the pipeline together for one (d1, d2, m) instance: build the Galois
cycle, compute the exact integer norm of the modular-polynomial value, check
it is at least 2, compare its logarithm against the Green's-function lower
bounds, factor it, and exhibit the smallest prime factor as the residue
characteristic witnessing an m-isogeny between the reduced curves.

Factoring is deterministic trial division.  By Gross-Zagier (On singular
moduli, 1985) every prime dividing the norm of a coprime fundamental pair is
at most m^2 |d1 d2| / 4, and verify_nonunit trial-divides up to
max(10^6, m^2 |d1 d2|), so a cofactor left over marks a norm outside that
theorem's reach or a wrong norm.

A "zero" outcome (the modular polynomial vanishes somewhere on the cycle) is
a legal result, not a failure; it is reported with the singular pair.
Diagnostic cycles (big case with gcd(d1, d2) > 1) get their product computed
but no norm assertion.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field
from functools import partial

from .numerics import MK_FLOAT, PrecisionContext, PrecisionError, _q_int
from .quadforms import Discriminant, QuadForm, QuadFormError
from .cmcycles import (
    SingularCycleError,
    build_cycle,
    cycle_case,
    cycle_norm_integer,
    norm_plan,
)
from .modular import j_eval
from .greens import G_ks_m_cycle, SingularityError, TailBudgetError, tm_count


# ---------------------------------------------------------------------------
# integer factorization


@dataclass(frozen=True)
class Factorization:
    """prime-power factors plus an unfactored cofactor (1 if complete)."""

    factors: tuple[tuple[int, int], ...]
    cofactor: int

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def reassemble(self) -> int:
        out = self.cofactor
        for p, e in self.factors:
            out *= p ** e
        return out

    def __str__(self):
        parts = [f"{p}^{e}" if e > 1 else str(p) for p, e in self.factors]
        if self.cofactor != 1:
            parts.append(f"[unfactored {self.cofactor}]")
        return " * ".join(parts) if parts else "1"


def factor_norm(n: int, trial_bound: int = 10 ** 6) -> Factorization:
    """Factor n >= 2 by trial division up to trial_bound.

    Divides by 2 and by odd p up to min(isqrt(rest), trial_bound).  What is
    left is prime when it is below p^2 for the next trial divisor p, since
    every smaller prime has been divided out; otherwise it is returned as
    the cofactor, which may itself be prime.  A cofactor is legal output: the
    non-unit verdict never depends on completing the factorization.

    While n is a perfect square r^2 it is replaced by r, and the exponents
    and cofactor found for the last root are raised back by the same power,
    so a big-cycle norm n0^4 is divided through n0 alone.  The result is
    that of dividing n itself: a prime leftover of the root counts as a
    factor only up to trial_bound, as far as n's own loop reaches.
    """
    if n < 2:
        raise ValueError("factor_norm expects n >= 2")
    rest, power = n, 1
    root = math.isqrt(rest)
    while root * root == rest:
        rest, power = root, 2 * power
        root = math.isqrt(rest)
    factors: dict[int, int] = {}
    p = 2
    while p * p <= rest and p <= trial_bound:
        while rest % p == 0:
            factors[p] = factors.get(p, 0) + power
            rest //= p
        p += 1 if p == 2 else 2
    if 1 < rest < p * p and (power == 1 or rest <= trial_bound):
        factors[rest] = power
        rest = 1
    out = Factorization(factors=tuple(sorted(factors.items())),
                        cofactor=rest ** power)
    assert out.reassemble() == n
    return out


# ---------------------------------------------------------------------------
# verification reports


@dataclass
class ChainBound:
    k: int
    mk: float
    neg_gkm: float          # upper bound of -G_k^m(Z(W)) incl. tails
    bound: float            # mk * neg_gkm
    passed: bool


@dataclass
class EpsilonBound:
    epsilon: float
    count: int
    rhs: float
    lhs: float
    passed: bool


@dataclass
class VerificationReport:
    d1: int
    d2: int
    m: int
    cycle_kind: str = ""
    group_order: int = 0
    status: str = "pending"   # "ok", "zero", "error"
    norm: int | None = None
    log_norm: float | None = None
    non_unit: bool | None = None
    asserted: bool = False    # whether the norm interpretation is exact-mode
    factorization: Factorization | None = None
    witness: int | None = None
    chain: list[ChainBound] = field(default_factory=list)
    epsilon_bounds: list[EpsilonBound] = field(default_factory=list)
    singular_pair: tuple | None = None
    error: str | None = None
    elapsed: float = 0.0

    @property
    def all_passed(self) -> bool:
        if self.status == "zero":
            return True
        if self.status != "ok":
            return False
        checks = [b.passed for b in self.chain] + [b.passed for b in self.epsilon_bounds]
        if self.asserted:
            checks.append(bool(self.non_unit))
        return all(checks)


def _certify_nonunit(rep: VerificationReport, ctx: PrecisionContext, factor: bool) -> None:
    """verify_nonunit's work on rep, raising whatever stops it."""
    cycle = build_cycle(rep.d1, rep.d2)
    rep.cycle_kind = cycle.kind
    rep.group_order = cycle.group_order
    n = cycle_norm_integer(cycle, rep.m, ctx)
    rep.norm = n
    rep.log_norm = float(math.log(n)) if n > 0 else float("-inf")
    rep.non_unit = n >= 2
    rep.asserted = cycle.is_exact
    rep.status = "ok"
    if factor and n >= 2:
        trial = max(10 ** 6, abs(rep.d1 * rep.d2) * rep.m * rep.m)
        rep.factorization = factor_norm(n, trial_bound=trial)
        if rep.factorization.factors:
            rep.witness = rep.factorization.factors[0][0]


def verify_nonunit(d1, d2, m: int, ctx: PrecisionContext,
                   factor: bool = False) -> VerificationReport:
    """Exact norm of the cycle product and the N >= 2 check.

    status "zero" with the singular pair identified is a legal outcome; in
    diagnostic mode (big cycle, gcd > 1) the product is computed but the
    non-unit claim is not asserted.
    """
    rep = VerificationReport(d1=int(d1), d2=int(d2), m=int(m))
    t0 = time.monotonic()
    try:
        _certify_nonunit(rep, ctx, factor)
    except SingularCycleError as err:
        rep.status = "zero"
        rep.singular_pair = err.pair.key if err.pair else None
        rep.error = str(err)
    except (PrecisionError, QuadFormError, ValueError) as err:
        rep.status = "error"
        rep.error = f"{type(err).__name__}: {err}"
    rep.elapsed = time.monotonic() - t0
    return rep


def isogeny_witness(d1, d2, m: int, ctx: PrecisionContext) -> int | None:
    """Smallest prime dividing the norm: a residue characteristic at which
    the reductions of the two CM curves admit an m-isogeny.  None only when
    the value is zero.  Raises QuadFormError or ValueError on invalid input or
    a norm with no prime factor found, PrecisionError when it fails to certify."""
    rep = VerificationReport(d1=int(d1), d2=int(d2), m=int(m))
    try:
        _certify_nonunit(rep, ctx, factor=True)
    except SingularCycleError:
        return None
    if rep.witness is None:
        raise ValueError(f"no prime factor found in the norm {rep.norm}")
    return rep.witness


def check_epsilons(epsilons) -> None:
    """Raise ValueError unless every epsilon is positive and finite."""
    if not all(0 < eps < math.inf for eps in epsilons):
        raise ValueError("epsilon must be positive and finite")


def verify_lower_bound(d1, d2, m: int, epsilon: float,
                       ctx: PrecisionContext,
                       report: VerificationReport | None = None) -> EpsilonBound:
    """log N >= 2 * |Z(W) cap T_{m,eps}| * Q_2(cosh(sqrt(2) eps)).

    The right side counts cycle points within epsilon of the degree-m Hecke
    graph and weights them by the k = 3 kernel at the rescaled distance,
    Q_2 in float by numerics._q_int.  Where cosh overflows, Q_2 < t^-3 lies
    below every float and rounds to 0; an epsilon so small that the cosh
    rounds to 1 raises SingularityError.
    """
    check_epsilons((epsilon,))
    base = report or verify_nonunit(d1, d2, m, ctx)
    if base.status != "ok":
        raise SingularityError(
            f"lower bound undefined: status {base.status} ({base.error})")
    cycle = build_cycle(base.d1, base.d2)
    count = tm_count(cycle, m, epsilon)
    try:
        t = math.cosh(math.sqrt(2.0) * epsilon)
    except OverflowError:
        t = math.inf
    if not t > 1:
        raise SingularityError(
            f"epsilon {epsilon:g} is too small: cosh(sqrt(2) epsilon) rounds to 1")
    rhs = 2.0 * count * _q_int(2, t)
    lhs = base.log_norm
    out = EpsilonBound(epsilon=float(epsilon), count=count,
                       rhs=rhs, lhs=lhs, passed=lhs >= rhs)
    if report is not None:
        report.epsilon_bounds.append(out)
    return out


def verify_chain(d1, d2, m: int, ctx: PrecisionContext,
                 ks=(3, 5, 7), tail_target: float | None = None,
                 report: VerificationReport | None = None) -> list[ChainBound]:
    """2 log N >= m_k * (-G_k^m(Z(W))) for k in {3, 5, 7}.

    -G_k^m over the cycle is summed from lattice sums by G_ks_m_cycle: one
    sum per class-pair key of the (pair, Hecke coset) terms, all k from one
    row enumeration, weighted by the key's summed multiplicity.  The proven
    error bounds are added on the right, so the inequality tested implies
    the true one (see greens._lattice_sums).
    """
    base = report or verify_nonunit(d1, d2, m, ctx)
    if base.status != "ok":
        raise SingularityError(
            f"chain bound undefined: status {base.status} ({base.error})")
    cycle = build_cycle(base.d1, base.d2)
    totals = G_ks_m_cycle(ks, m, cycle.pairs, tail_target=tail_target)
    neg = [-total.value + total.tail_bound for total in totals]
    out = []
    for k, neg_k in zip(ks, neg):
        mk = MK_FLOAT[k]
        bound = mk * neg_k
        passed = 2.0 * base.log_norm >= bound
        out.append(ChainBound(k=k, mk=mk, neg_gkm=neg_k, bound=bound, passed=passed))
    if report is not None:
        report.chain.extend(out)
    return out


def verify_instance(d1, d2, m: int, ctx: PrecisionContext, epsilons=(),
                    chain: bool = False, factor: bool = False) -> VerificationReport:
    """verify_nonunit plus each requested epsilon and chain bound.

    A non-positive epsilon raises ValueError before any work.  A requested
    bound that cannot be checked turns the report into status "error", its
    message prefixed "epsilon:" or "chain:"; nothing is raised.  elapsed
    times verify_nonunit only.
    """
    check_epsilons(epsilons)
    rep = verify_nonunit(d1, d2, m, ctx, factor=factor)
    if rep.status != "ok":
        return rep
    stage = "epsilon"
    try:
        for eps in epsilons:
            verify_lower_bound(d1, d2, m, eps, ctx, report=rep)
        stage = "chain"
        if chain:
            verify_chain(d1, d2, m, ctx, report=rep)
    except (SingularityError, PrecisionError, TailBudgetError) as err:
        rep.status = "error"
        rep.error = f"{stage}: {type(err).__name__}: {err}"
    return rep


# ---------------------------------------------------------------------------
# sweeps


def fundamental_discriminants(limit: int) -> list[int]:
    """All fundamental d with 0 > d >= -limit."""
    out = []
    for d in range(-3, -limit - 1, -1):
        if d % 4 not in (0, 1):
            continue
        disc = Discriminant.of(d)
        if disc.is_fundamental:
            out.append(d)
    return out


def sweep_instances(d1_values, d2_values, m_values, policy: str = "exact"):
    """The (d1, d2, m) grid a sweep will visit, after policy filtering.

    policy "exact" keeps only exact-mode instances (coprime big, or small);
    "all" includes diagnostic ones.  Unordered pairs are visited once.  An
    invalid discriminant raises QuadFormError.
    """
    if policy not in ("exact", "all"):
        raise ValueError("policy must be 'exact' or 'all'")
    out = []
    seen = set()
    for d1 in d1_values:
        for d2 in d2_values:
            key = (min(d1, d2), max(d1, d2))
            if key in seen:
                continue
            seen.add(key)
            kind = cycle_case(d1, d2)
            if policy == "exact" and kind == "big" and math.gcd(-d1, -d2) > 1:
                continue
            for m in m_values:
                out.append((d1, d2, m))
    return out


def plan_jvalues(grid, ctx: PrecisionContext) -> dict[QuadForm, int]:
    """The reduced forms the norms of a (d1, d2, m) grid read
    (cmcycles.norm_plan), each with the most mantissa bits any instance
    starts at.  An instance whose cycle cannot be built is left out; it
    reports its own error.
    """
    need: dict[QuadForm, int] = {}
    for d1, d2, m in grid:
        try:
            start, forms = norm_plan(build_cycle(d1, d2), m, ctx)
        except ValueError:
            continue
        for form in forms:
            need[form] = max(need.get(form, 0), start.mantissa_bits)
    return need


# a pooled sweep sends each worker about this many chunks of instances
_CHUNKS_PER_WORKER = 4


def sweep(d1_values, d2_values, m_values, ctx: PrecisionContext,
          policy: str = "exact", epsilons=(), chain: bool = False,
          factor: bool = False, workers: int = 1) -> list[VerificationReport]:
    """verify_instance over a grid, after one plan stage for its j-values.

    The plan stage evaluates through j_eval each form the grid's first norm
    passes read (plan_jvalues), at the most bits any instance asks of it,
    highest first so that a class and its inverse share one series; no
    instance then evaluates one unless its norm retries.  Each report's
    elapsed times its verify_nonunit alone.  A non-positive epsilon raises
    ValueError first; per-instance errors are recorded, never raised.  When
    min(workers, instances, CPUs) is at least 2, instances run in a pool of
    that many processes forked from this one, whatever the default start
    method, so each inherits every cache the plan filled, and each is sent
    about four chunks; otherwise serially here.  Reports keep grid order.
    """
    check_epsilons(epsilons)
    grid = sweep_instances(d1_values, d2_values, m_values, policy)
    plan = plan_jvalues(grid, ctx)
    for form in sorted(plan, key=plan.get, reverse=True):
        j_eval(form, ctx.with_bits(plan[form]))
    run = partial(verify_instance, ctx=ctx, epsilons=tuple(epsilons),
                  chain=chain, factor=factor)
    # the pool forks all its workers at once: no more than can be busy
    cap = min(workers, len(grid), os.cpu_count() or 1)
    if cap < 2:
        return [run(*task) for task in grid]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    chunk = -(-len(grid) // (cap * _CHUNKS_PER_WORKER))
    with ProcessPoolExecutor(max_workers=cap,
                             mp_context=multiprocessing.get_context("fork")) as pool:
        return list(pool.map(run, *zip(*grid), chunksize=chunk))


def summarize(reports) -> dict:
    """Pass/zero/error tallies for a sweep."""
    out = {"total": len(reports), "ok": 0, "zero": 0, "error": 0,
           "assert_failures": 0}
    for rep in reports:
        if rep.status == "zero":
            out["zero"] += 1
        elif rep.status == "error":
            out["error"] += 1
        else:
            out["ok"] += 1
            if not rep.all_passed:
                out["assert_failures"] += 1
    return out
