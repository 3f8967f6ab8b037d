"""End-to-end acceptance checks for the whole pipeline.

Each test states the guarantee it certifies; the heavyweight sweep over
coprime fundamental discriminant pairs is computed once and shared by the
non-unit, lower-bound and chain-inequality checks.
"""

import itertools
import math
import random
import time

import mpmath as mp
import pytest
from scipy.optimize import minimize, minimize_scalar

from singmod.numerics import (
    PrecisionContext,
    legendre_P,
    legendre_Q,
    legendre_Q_num,
    mk_constant,
)
from singmod.quadforms import compose, enumerate_reduced, inverse
from singmod.modular import classpoly, coset_apply, hecke_cosets, j_eval, y1_distance
from singmod.cmcycles import big_cm_cycle, cycle_norm_integer
from singmod.greens import G_k_m, gamma_orbit, g_s_truncated, graph_distance
from singmod.verify import (
    factor_norm,
    fundamental_discriminants,
    verify_chain,
    verify_lower_bound,
    verify_nonunit,
)

CTX = PrecisionContext()

_sweep_cache = {}


def sweep_results():
    """Reports for all coprime fundamental pairs |d_i| <= 50, m <= 4 (shared)."""
    if "reports" not in _sweep_cache:
        discs = fundamental_discriminants(50)
        t0 = time.monotonic()
        reports = []
        for i, d1 in enumerate(discs):
            for d2 in discs[i:]:
                if math.gcd(-d1, -d2) != 1:
                    continue
                for m in (1, 2, 3, 4):
                    reports.append(verify_nonunit(d1, d2, m, CTX))
        _sweep_cache["reports"] = reports
        _sweep_cache["elapsed"] = time.monotonic() - t0
    return _sweep_cache["reports"], _sweep_cache["elapsed"]


# -- 1: class group correctness and axioms ----------------------------------


def test_criterion_1_class_groups():
    t0 = time.monotonic()

    def oracle_h(d):
        count = 0
        bound = math.isqrt(-d // 3)
        for a in range(1, bound + 1):
            for b in range(-a + 1, a + 1):
                if (b * b - d) % (4 * a):
                    continue
                c = (b * b - d) // (4 * a)
                if c < a or (b < 0 and c == a):
                    continue
                if math.gcd(math.gcd(a, abs(b)), c) == 1:
                    count += 1
        return count

    for d, h in [(-23, 3), (-47, 5), (-71, 7)]:
        assert enumerate_reduced(d).h == h == oracle_h(d)

    rng = random.Random(1)
    for d in range(-3, -501, -1):
        if d % 4 not in (0, 1):
            continue
        group = enumerate_reduced(d)
        forms = group.reduced_forms
        ident = group.identity
        for f in forms:
            assert compose(ident, f) == f
            assert compose(f, inverse(f)) == ident
        for f, g in itertools.combinations_with_replacement(forms, 2):
            fg = compose(f, g)
            assert fg in forms
            assert fg == compose(g, f)
        triples = (itertools.product(forms, repeat=3) if group.h <= 6
                   else [tuple(rng.choice(forms) for _ in range(3))
                         for _ in range(50)])
        for f, g, k in triples:
            assert compose(compose(f, g), k) == compose(f, compose(g, k))
    assert time.monotonic() - t0 < 10.0


# -- 2: class polynomials with pre-rounding residuals -----------------------


def test_criterion_2_class_polynomials():
    t0 = time.monotonic()
    expected = {-4: [-1728, 1], -15: [-121287375, 191025, 1]}
    for d, coeffs in expected.items():
        assert classpoly(d, CTX) == coeffs
        # re-expand the product and inspect the raw coefficients pre-rounding
        with CTX.workprec():
            raw = [mp.mpc(1)]
            for form in enumerate_reduced(d).reduced_forms:
                root = j_eval(form, CTX).value
                raw = [mp.mpc(0)] + raw
                for i in range(len(raw) - 1):
                    raw[i] -= root * raw[i + 1]
            for c, n in zip(raw, coeffs):
                rel = abs(c - n) / max(1, abs(n))
                assert rel < 1e-20
    assert time.monotonic() - t0 < 5.0


# -- 3: exact norm reproduction ---------------------------------------------


@pytest.mark.parametrize("d1,d2,expected", [(-3, -4, 1728 ** 4),
                                            (-3, -7, 3375 ** 4)])
def test_criterion_3_exact_norms(d1, d2, expected):
    t0 = time.monotonic()
    cycle = big_cm_cycle(d1, d2)
    assert cycle_norm_integer(cycle, 1, CTX) == expected
    assert cycle_norm_integer(cycle, 1, CTX.with_bits(2 * CTX.mantissa_bits)) == expected
    assert time.monotonic() - t0 < 10.0


# -- 4: non-unit sweep ------------------------------------------------------


def test_criterion_4_nonunit_sweep():
    reports, elapsed = sweep_results()
    assert reports
    for rep in reports:
        assert rep.status in ("ok", "zero"), (rep.d1, rep.d2, rep.m, rep.error)
        if rep.status == "ok":
            assert rep.non_unit, (rep.d1, rep.d2, rep.m, rep.norm)
            assert rep.norm >= 2
    assert elapsed < 600.0


def test_criterion_4_norm_primes_within_gross_zagier_bound():
    # every prime dividing N is at most m^2 |d1 d2| / 4 (Gross-Zagier), so
    # trial division up to that bound factors N completely
    reports, _ = sweep_results()
    for rep in reports:
        if rep.status != "ok":
            continue
        bound = rep.m * rep.m * abs(rep.d1 * rep.d2) // 4
        f = factor_norm(rep.norm, trial_bound=bound)
        assert f.complete, (rep.d1, rep.d2, rep.m, f.cofactor)


# -- 5: epsilon-neighborhood lower bound ------------------------------------


def test_criterion_5_lower_bound():
    reports, _ = sweep_results()
    for rep in reports:
        if rep.status != "ok":
            continue
        for eps in (0.25, 0.5, 1.0, 2.0, 4.0):
            out = verify_lower_bound(rep.d1, rep.d2, rep.m, eps, CTX,
                                     report=rep)
            assert out.passed, (rep.d1, rep.d2, rep.m, eps, out)


# -- 6: chain inequality with the k-dependent constants ---------------------


def test_criterion_6_mk_constants():
    # independently re-derive m_k = 1 / max(-P_{k-1}) by 1-D minimization,
    # splitting [-1, 1] into subintervals so every local basin is searched
    for k in (3, 5, 7):
        best = math.inf
        edges = [-1.0 + i / 20 for i in range(41)]
        for lo, hi in zip(edges, edges[1:]):
            res = minimize_scalar(lambda r: legendre_P(k - 1, r),
                                  bounds=(lo, hi), method="bounded",
                                  options={"xatol": 1e-14})
            best = min(best, res.fun, legendre_P(k - 1, lo))
        assert float(mk_constant(k)) == pytest.approx(-1.0 / best, rel=1e-12)
    assert float(mk_constant(3)) == pytest.approx(2.0, rel=1e-12)
    assert float(mk_constant(5)) == pytest.approx(7.0 / 3.0, rel=1e-12)
    assert float(mk_constant(7)) == pytest.approx(
        (7.0 * math.sqrt(15.0) - 3.0) / 10.0, rel=1e-12)


def test_criterion_6_chain_inequality():
    reports, _ = sweep_results()
    for rep in reports:
        if rep.status != "ok":
            continue
        bounds = verify_chain(rep.d1, rep.d2, rep.m, CTX,
                              tail_target=1e-3, report=rep)
        for b in bounds:
            assert b.passed, (rep.d1, rep.d2, rep.m, b)


# -- 7: special function cross-checks ---------------------------------------


def test_criterion_7_special_functions():
    grid = [(k, t) for k in (1, 3, 5, 7) for t in (1.01, 1.1, 2.0, 5.0, 10.0)]
    assert len(grid) == 20
    for k, t in grid:
        closed = legendre_Q(k, t, CTX)
        quad = legendre_Q_num(k, t, CTX)
        assert abs(closed - quad) <= 10 * 2.0 ** -CTX.mantissa_bits
    # ODE residual is pure finite-difference truncation error: it is tiny
    # and shrinks like h^2 when the stencil is refined
    with CTX.workprec():
        for k in (1, 3, 5, 7):
            for t in (1.5, 4.0):
                t = mp.mpf(t)
                q = lambda x: legendre_Q(k, x, CTX)

                def residual(h):
                    d1 = (q(t + h) - q(t - h)) / (2 * h)
                    d2 = (q(t + h) - 2 * q(t) + q(t - h)) / h ** 2
                    return (1 - t * t) * d2 - 2 * t * d1 + k * (k - 1) * q(t)

                coarse = residual(mp.mpf(2) / 10 ** 6)
                fine = residual(mp.mpf(1) / 10 ** 6)
                assert abs(coarse) < 1e-10
                if abs(coarse) > 1e-16:  # above rounding noise: check h^2 rate
                    ratio = abs(coarse) / abs(fine)
                    assert 3.0 < ratio < 5.0
    # positivity and monotonic decrease
    ts = [1.01, 1.2, 2.0, 4.0, 16.0, 256.0]
    for k in (1, 3, 5, 7):
        vals = [legendre_Q(k, t, CTX) for t in ts]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


# -- 8: geometry against a 2-D minimization oracle --------------------------


def _brute_graph_distance(m, z1, z2):
    """Distance to the degree-m correspondence by direct 2-D minimization."""
    best = math.inf
    for a, b, d in hecke_cosets(m):
        def objective(xy):
            z = complex(xy[0], math.exp(xy[1]))  # log-height keeps y > 0
            w = (a * z + b) / d
            return y1_distance(z1, z) ** 2 + y1_distance(z2, w) ** 2
        # starts: both endpoints pulled onto the graph parameter, plus their
        # midpoint (geometric mean in height); restart once from the optimum
        adj = (d * z2 - b) / a
        mid = complex((z1.real + adj.real) / 2,
                      math.sqrt(z1.imag * adj.imag))
        for start in (z1, adj, mid):
            x = [start.real, math.log(start.imag)]
            for _ in range(2):
                res = minimize(objective, x, method="Nelder-Mead",
                               options={"xatol": 1e-10, "fatol": 1e-16,
                                        "maxiter": 2000})
                x = res.x
            best = min(best, res.fun)
    return math.sqrt(best)


def test_criterion_8_graph_distance_oracle():
    rng = random.Random(2024)
    checked = 0
    while checked < 100:
        m = rng.choice([1, 2, 3])
        z1 = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.0))
        z2 = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.0))
        fast = graph_distance(m, z1, z2)
        if fast < 1e-3:
            continue  # relative comparison needs a nonzero distance
        brute = _brute_graph_distance(m, z1, z2)
        assert abs(fast - brute) <= 1e-6 * max(fast, brute), (m, z1, z2)
        checked += 1


def test_criterion_8_midpoint_identity():
    # min over the graph slice of d1^2 + d2^2 equals L^2 / 2 with L the
    # orbit distance of the two endpoints
    rng = random.Random(7)
    for _ in range(10):
        z1 = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.0))
        z2 = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.0))
        big_l = y1_distance(z1, z2)

        def objective(xy):
            z = complex(xy[0], math.exp(xy[1]))
            return y1_distance(z1, z) ** 2 + y1_distance(z2, z) ** 2

        best = math.inf
        for start in (z1, z2):
            res = minimize(objective, [start.real, math.log(start.imag)],
                           method="Nelder-Mead",
                           options={"xatol": 1e-9, "fatol": 1e-14,
                                    "maxiter": 600})
            best = min(best, res.fun)
        assert best == pytest.approx(big_l ** 2 / 2, rel=1e-6)


# -- 9: Laplacian eigenfunction property ------------------------------------


def test_criterion_9_eigenfunction():
    rng = random.Random(9)
    pairs = []
    while len(pairs) < 10:
        z1 = complex(rng.uniform(-0.45, 0.45), rng.uniform(1.0, 1.8))
        z2 = complex(rng.uniform(-0.45, 0.45), rng.uniform(1.0, 1.8))
        if y1_distance(z1, z2) > 0.2:
            pairs.append((z1, z2))
    with CTX.workprec():
        h = mp.mpf(1) / 10 ** 5
        for z1, z2 in pairs:
            gammas = gamma_orbit(z1, z2, 100.0)
            for s in (1.5, 2.0, 3.0):
                f = lambda x, y: g_s_truncated(s, mp.mpc(x, y), z2, gammas, CTX)
                x0, y0 = mp.mpf(z1.real), mp.mpf(z1.imag)
                fxx = (f(x0 + h, y0) - 2 * f(x0, y0) + f(x0 - h, y0)) / h ** 2
                fyy = (f(x0, y0 + h) - 2 * f(x0, y0) + f(x0, y0 - h)) / h ** 2
                lap = -(y0 ** 2) * (fxx + fyy)
                expect = s * (1 - s) * f(x0, y0)
                assert abs(lap - expect) < 1e-3 * abs(expect), (z1, z2, s)


# -- 10: vanishing on the self-pair ------------------------------------------
# The polynomial phi_m(X, X) vanishes identically iff m is a perfect square.
# At a single CM self-pair (z, z) of discriminant d, phi_m vanishes iff m is
# a norm from the order: an endomorphism of norm m fixes z, e.g. 1+i (the
# determinant-2 matrix [[1, -1], [1, 1]]) fixes i, so phi_2(1728, 1728) = 0.


def _is_norm(m, d):
    """m = x^2 + y^2 (d = -4) or m = x^2 + xy + y^2 (d = -3), by brute force."""
    cross = {-4: 0, -3: 1}[d]
    r = math.isqrt(4 * m) + 1
    return any(x * x + cross * x * y + y * y == m
               for x in range(-r, r + 1) for y in range(-r, r + 1))


def test_criterion_10_square_vanishes():
    rep = verify_nonunit(-4, -4, 4, CTX)
    assert rep.status == "zero"


@pytest.mark.parametrize("m", [2, 3, 5, 6, 7, 8, 10])
def test_criterion_10_nonsquare_nonzero(m):
    assert math.isqrt(m) ** 2 != m
    nonzero = []
    for d in (-4, -3):
        rep = verify_nonunit(d, d, m, CTX)
        if _is_norm(m, d):
            assert rep.status == "zero", (d, m, rep.status, rep.error)
            assert rep.singular_pair is not None and rep.all_passed
        else:
            assert rep.status == "ok", (d, m, rep.status, rep.error)
            assert rep.non_unit and rep.norm >= 2
            nonzero.append(d)
    # phi_m(X, X) is not identically zero for nonsquare m
    assert nonzero, m


# -- 11: two independent paths to the cycle logarithm -----------------------


def test_criterion_11_greens_vs_cycle_product():
    reports, _ = sweep_results()
    checked = 0
    for rep in reports:
        if rep.status != "ok" or checked >= 20:
            continue
        cycle = big_cm_cycle(rep.d1, rep.d2)
        norm = cycle_norm_integer(cycle, rep.m, CTX)
        total = mp.mpf(0)
        err = 0.0
        for pair in cycle.pairs:
            part = G_k_m(1, rep.m, pair.z1, pair.z2, CTX)
            total += pair.multiplicity * part.value
            err += pair.multiplicity * part.tail_bound
        with CTX.workprec():
            log = mp.log(norm)
        budget = err + 1e-20 * max(1.0, abs(float(total)))
        assert abs(float(total - 2 * log)) <= budget, (rep.d1, rep.d2, rep.m)
        checked += 1
    assert checked == 20
