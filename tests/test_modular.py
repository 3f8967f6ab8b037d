import hashlib
import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from singmod import modular, numerics
from singmod.numerics import PrecisionContext
from singmod.quadforms import Discriminant, QuadForm, enumerate_reduced, reduce_form
from singmod.modular import (
    classpoly,
    cosh_dist,
    coset_apply,
    fd_reduce,
    gamma_translates,
    hecke_cosets,
    j_eval,
    j_q_coefficients,
    modpoly_eval,
    y1_distance,
)

CTX = PrecisionContext()

# classical degree-2 modular polynomial, used as an independent oracle
PHI2 = lambda x, y: (
    x ** 3 + y ** 3 - x * x * y * y + 1488 * (x * x * y + x * y * y)
    - 162000 * (x * x + y * y) + 40773375 * x * y
    + 8748000000 * (x + y) - 157464000000000
)


def sigma1(m):
    return sum(d for d in range(1, m + 1) if m % d == 0)


def test_j_coefficients_known_prefix():
    assert j_q_coefficients(6) == [1, 744, 196884, 21493760, 864299970,
                                   20245856256]


def _series_jcoeffs(count):
    """Oracle: E_4^3 / (Delta/q) by dense products of truncated series."""
    def mul(a, b):
        return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(count)]

    eta3 = [0] * count
    k = 0
    while k * (k + 1) // 2 < count:
        eta3[k * (k + 1) // 2] = (-1) ** k * (2 * k + 1)
        k += 1
    delta = mul(eta3, eta3)
    delta = mul(delta, delta)
    delta = mul(delta, delta)
    e4 = [1] + [240 * sum(d ** 3 for d in range(1, n + 1) if n % d == 0)
                for n in range(1, count)]
    num = mul(mul(e4, e4), e4)
    out = []
    for n in range(count):
        out.append(num[n] - sum(out[i] * delta[n - i] for i in range(n)))
    return out


def test_j_coefficients_grow_in_place(monkeypatch):
    # a table grown in steps equals the series oracle
    monkeypatch.setattr(modular, "_jcoeffs", [])
    monkeypatch.setattr(modular, "_jseries", ([], [], []))
    table = modular._jcoeffs
    for count in (1, 5, 64, 65, 130, 240):
        grown = j_q_coefficients(count)
        assert len(table) == count
        assert all(len(series) == count for series in modular._jseries)
    assert grown == _series_jcoeffs(240)
    assert j_q_coefficients(100) == grown[:100] and len(table) == 240


def test_j_special_values():
    tol = mp.mpf(10) ** -60
    assert abs(j_eval(QuadForm(1, 1, 1), CTX).value) < tol
    assert abs(j_eval(QuadForm(1, 0, 1), CTX).value - 1728) < tol
    assert abs(j_eval(QuadForm(1, 1, 2), CTX).value + 3375) < tol
    assert abs(j_eval(2j, CTX).value - 287496) < tol  # 66^3
    assert abs(j_eval(QuadForm(1, 0, 4), CTX).value - 287496) < tol


def exact_j(z):
    """Oracle: mpmath's Klein invariant, at the caller's precision."""
    return 1728 * mp.kleinj(z)


def points_met_by_modpoly(dmax, mmax):
    """Every reduced form with |d| <= dmax and its Hecke translates for
    m <= mmax, each as its reduced form."""
    points = set()
    for d in range(-3, -dmax - 1, -1):
        if d % 4 not in (0, 1):
            continue
        for form in enumerate_reduced(d).reduced_forms:
            for m in range(1, mmax + 1):
                for coset in hecke_cosets(m):
                    points.add(reduce_form(coset_apply(coset, form)))
    return sorted(points)


def assert_j_within_its_error(z, ctx, oracle_bits=None):
    """j_eval(z, ctx) against the kleinj oracle at oracle_bits (4 prec by
    default), whose own error is far below 2^(32 - oracle_bits) max(1, |j|)."""
    value = j_eval(z, ctx)
    prec = ctx.mantissa_bits + numerics.GUARD_BITS
    bits = oracle_bits or 4 * prec
    with mp.workprec(bits):
        point = z.mpc(mp) if isinstance(z, QuadForm) else mp.mpc(z)
        exact = exact_j(point)
        slack = mp.mpf(2) ** (32 - bits) * max(1, abs(exact))
        assert abs(value.value - exact) <= value.error + slack, (z, ctx.mantissa_bits)
    return value


def test_j_absolute_error_holds_on_the_points_modpoly_meets():
    points = points_met_by_modpoly(100, 4)
    assert len(points) > 1000
    for z in points:
        assert_j_within_its_error(z, CTX)


@pytest.mark.parametrize("bits", [64, 256, 1024])
@pytest.mark.parametrize("d, exact", [(-3, 0), (-4, 1728)])
def test_j_absolute_error_at_the_elliptic_points(d, exact, bits):
    # j(zeta_3) = 0, where no relative error bound can hold, and j(i) = 1728
    z = enumerate_reduced(d).reduced_forms[0]
    modular._jvalue_cache.pop(z, None)  # evaluate at these bits
    value = assert_j_within_its_error(z, CTX.with_bits(bits))
    assert value.scale == bits + numerics.GUARD_BITS
    assert abs(value.re - (exact << value.scale)) <= value.err and value.im == 0


def _kernel_sample():
    """About 40 reduced points modpoly meets at |d| <= 200, m <= 4: the one
    with the smallest lam = pi sqrt|d| / a, real-q forms (b = 0 and b = a)
    and a fixed random draw."""
    points = points_met_by_modpoly(200, 4)
    lowest = max(points, key=lambda f: f.a / math.sqrt(-f.disc))
    real = [f for f in points if f.b in (0, f.a)]
    rng = random.Random(33)
    return [lowest] + rng.sample(real, 6) + rng.sample(points, 33)


@pytest.mark.parametrize("bits", [512, 2048, 4096])
def test_j_kernel_within_its_error_at_high_precision(bits, monkeypatch):
    # every value is evaluated at these bits, against an oracle at prec + 64
    # bits past |j|, so that the slack 2^(32 - oracle) |j| is under 2^(-prec - 32)
    monkeypatch.setattr(modular, "_jvalue_cache", {})
    ctx = CTX.with_bits(bits)
    prec = bits + numerics.GUARD_BITS
    sample = _kernel_sample()
    assert len(sample) == 40 and any(f.b == 0 for f in sample)
    assert any(f.b == f.a for f in sample)
    for form in sample:
        size = math.ceil(modular.log_j_size(form) / math.log(2)) + 1
        value = assert_j_within_its_error(form, ctx, prec + size + 64)
        assert value.scale == prec
    rng = random.Random(bits)
    for _ in range(10):  # other points, with the oracle at 2 prec + 64 bits
        z = complex(rng.uniform(-1, 1), rng.uniform(0.45, 3))
        assert_j_within_its_error(z, ctx, 2 * prec + 64)


def test_j_series_derivative_bound():
    # the constants _j_series and _cm_q cite: |q| <= e^(-pi sqrt 3) < 0.00434
    # on F, c_k <= e^(4 pi sqrt k), sum_k k c_k r^k < 2^11 at r = 0.00434
    # (so sum_k k c_k r^(k-1) < 2^19), and the margins of q and 1/q
    r = Fraction(434, 100000)
    assert math.exp(-math.pi * math.sqrt(3)) < r
    coeffs = j_q_coefficients(402)[2:]  # c_1 .. c_400
    for k, c in enumerate(coeffs, start=1):
        assert math.log(c) <= 4 * math.pi * math.sqrt(k)
    head = sum(k * c * r ** k for k, c in enumerate(coeffs[:40], start=1))
    # past k = 40 the terms k e^(4 pi sqrt k) r^k fall by over e^-4 a step
    tail = 2 * 41 * math.exp(4 * math.pi * math.sqrt(41)) * float(r) ** 41
    assert head + Fraction(tail) < 2 ** 11
    assert (head + Fraction(tail)) / r < 2 ** 19
    # the worst powers, 1.001 e^(m lam) (sqrt 2 + 3) 2^11 against the guard
    assert 1.001 * (math.sqrt(2) + 3) * 2 ** 11 < 2 ** 14
    # _cm_q: e^-x (sqrt|d| + 5) / |d| < 0.01 for |d| >= 3 (x = pi sqrt|d| / a
    # >= pi sqrt 3); mpmath's q, relative error (8 lam + 32) 2^-w, is within
    # 0.33 units before its floor, and 1/q within 7 e^(2 lam)
    lams = [math.pi * math.sqrt(3) + i / 10 for i in range(2000)]
    assert all(math.exp(-lam) * (8 * lam + 32) < 0.33 for lam in lams)
    assert all(8 * lam + 32 + 2 < 7 * math.exp(lam) for lam in lams)
    assert max(float(r) * (s + 5) / (s * s) for s in (math.sqrt(n) for n in range(3, 10 ** 4))) < 0.01


def test_j_gamma_invariance():
    rng = random.Random(3)
    with CTX.workprec():
        for _ in range(10):
            z = mp.mpc(rng.uniform(-2, 2), rng.uniform(0.3, 2.0))
            a, b, c = rng.randint(-3, 3), rng.randint(-3, 3), rng.randint(-3, 3)
            # complete (c, d) to det 1
            d, found = None, False
            for dd in range(-9, 10):
                if a * dd - b * c == 1:
                    d, found = dd, True
                    break
            if not found:
                continue
            w = (a * z + b) / (c * z + d)
            diff = abs(j_eval(z, CTX).value - j_eval(w, CTX).value)
            assert diff <= 1e-50 * max(1, abs(j_eval(z, CTX).value))


def test_fd_reduce():
    z, gamma = fd_reduce(mp.mpc(0, 1))
    assert gamma == (1, 0, 0, 1)
    z, gamma = fd_reduce(mp.mpc(5, 1))
    assert gamma == (1, -5, 0, 1) and abs(z - mp.mpc(0, 1)) < 1e-70
    rng = random.Random(5)
    with CTX.workprec():
        for _ in range(50):
            w = mp.mpc(rng.uniform(-8, 8), rng.uniform(0.01, 4.0))
            z, (a, b, c, d) = fd_reduce(w)
            assert a * d - b * c == 1
            assert abs(mp.re(z)) <= 0.5 + 1e-60
            assert abs(z) >= 1 - 1e-60
            assert abs((a * w + b) / (c * w + d) - z) < 1e-50


def test_fd_reduce_terminates_on_the_unit_arc():
    # 82 degrees on the arc: the rounded |z|^2 falls just below 1, and an
    # exact "< 1" test inverted the point back and forth forever
    with CTX.workprec():
        w = mp.expjpi(mp.mpf(1) / 3 + mp.mpf(22) / 180)
        z, (a, b, c, d) = fd_reduce(w)
        assert abs(z) >= 1 - 1e-60
        assert abs(mp.re(z)) <= 0.5 + 1e-60
        assert abs((a * w + b) / (c * w + d) - z) < 1e-50
    # j is real on the arc, between j(zeta_3) = 0 and j(i) = 1728
    value = j_eval(w, CTX).value
    assert abs(mp.im(value)) < 1e-50 and 0 < mp.re(value) < 1728


def test_hecke_cosets():
    assert hecke_cosets(1) == ((1, 0, 1),)
    assert set(hecke_cosets(2)) == {(1, 0, 2), (1, 1, 2), (2, 0, 1)}
    assert hecke_cosets(6) is hecke_cosets(6)  # built once per m
    assert len(hecke_cosets(6)) == 12
    for m in range(1, 201):
        assert len(hecke_cosets(m)) == sigma1(m)
    with pytest.raises(ValueError):
        hecke_cosets(0)


def test_coset_apply_exact():
    z = QuadForm(1, 0, 1)  # i
    w = coset_apply((1, 1, 2), z)
    assert w == QuadForm(2, -2, 1)  # primitive and unreduced
    assert w.approx() == pytest.approx((1j + 1) / 2)
    assert coset_apply((2, 1, 3), 1j) == pytest.approx((2j + 1) / 3)


def test_modpoly_m1_is_j_difference():
    z1, z2 = QuadForm(1, 0, 1), QuadForm(1, 1, 1)
    v = modpoly_eval(1, z1, z2, CTX)
    assert abs(v.value - (j_eval(z1, CTX).value - j_eval(z2, CTX).value)) < 1e-50
    same = modpoly_eval(1, 1j, 1j, CTX)
    assert same.is_zero


def test_modpoly_against_classical_phi2():
    rng = random.Random(17)
    with CTX.workprec():
        for _ in range(5):
            z1 = mp.mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.9, 1.6))
            z2 = mp.mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.9, 1.6))
            ours = modpoly_eval(2, z1, z2, CTX).value
            oracle = PHI2(j_eval(z1, CTX).value, j_eval(z2, CTX).value)
            assert abs(ours - oracle) <= 1e-40 * abs(oracle)


def test_modpoly_symmetry():
    # symmetric in the two arguments, except that every degree-1 factor
    # (present when m is a perfect square) flips sign under the swap
    rng = random.Random(23)
    with CTX.workprec():
        for m in range(1, 7):
            z1 = mp.mpc(rng.uniform(-0.4, 0.4), rng.uniform(0.9, 1.5))
            z2 = mp.mpc(rng.uniform(-0.4, 0.4), rng.uniform(1.6, 2.2))
            a = modpoly_eval(m, z1, z2, CTX)
            b = modpoly_eval(m, z2, z1, CTX)
            sign = -1 if m in (1, 4) else 1
            assert abs(a.value - sign * b.value) <= 1e-30 * abs(a.value)


def test_modpoly_zero_detection():
    # i has an endomorphism of degree 2 (1 + i), realized by the coset (1,1,2)
    v = modpoly_eval(2, QuadForm(1, 0, 1), QuadForm(1, 0, 1), CTX)
    assert v.is_zero and v.zero_cosets == ((1, 1, 2),)
    # perfect square m: the scalar coset collapses onto the identity
    v4 = modpoly_eval(4, QuadForm(1, 0, 1), QuadForm(1, 0, 1), CTX)
    assert v4.is_zero and (2, 0, 2) in v4.zero_cosets
    with pytest.raises(ZeroDivisionError):
        v.log_abs()


def test_modpoly_zeros_at_cm_points_are_exact(monkeypatch):
    # error bounds wide enough to cover j(i) - j(zeta_3) = 1728 do not make
    # it a zero: at two forms a zero is a class equality, and a non-zero
    # factor the precision cannot resolve is kept with an unbounded error
    monkeypatch.setattr(modular, "_J_ERROR_UNITS", 1 << 4096)
    monkeypatch.setattr(modular, "_jvalue_cache", {})
    v = modpoly_eval(1, QuadForm(1, 0, 1), QuadForm(1, 1, 1), CTX)
    assert not v.is_zero and v.rel_error == mp.inf
    v = modpoly_eval(2, QuadForm(2, 0, 2), QuadForm(1, 0, 1), CTX)  # i twice
    assert v.zero_cosets == ((1, 1, 2),)


def test_modpoly_legal_zeros_at_principal_points():
    for d, m, coset in [(-3, 1, (1, 0, 1)), (-4, 2, (1, 1, 2))]:
        z = enumerate_reduced(d).reduced_forms[0]
        v = modpoly_eval(m, z, z, CTX)
        assert v.is_zero and v.zero_cosets == (coset,)


def coprime_fundamental_pairs(dmax):
    ds = [d for d in range(-3, -dmax - 1, -1)
          if d % 4 in (0, 1) and Discriminant.of(d).f == 1]
    return [(d1, d2) for i, d1 in enumerate(ds) for d2 in ds[i + 1:]
            if math.gcd(d1, d2) == 1]


def test_modpoly_integer_product_against_an_oracle():
    # every pair of classes of the |d| <= 24 coprime grid, m <= 4, against
    # the coset product of the Klein invariant at 4x the precision
    prec = CTX.mantissa_bits + numerics.GUARD_BITS
    checked = 0
    for d1, d2 in coprime_fundamental_pairs(24):
        for f1 in enumerate_reduced(d1).reduced_forms:
            for f2 in enumerate_reduced(d2).reduced_forms:
                for m in range(1, 5):
                    v = modpoly_eval(m, f1, f2, CTX)
                    assert not v.is_zero and v.rel_error < 2.0 ** (40 - prec)
                    with mp.workprec(4 * prec):
                        j1 = exact_j(f1.mpc(mp))
                        exact = mp.fprod(
                            j1 - exact_j(coset_apply(c, f2).mpc(mp))
                            for c in hecke_cosets(m))
                        assert abs(v.value - exact) <= v.rel_error * abs(exact)
                    checked += 1
    assert checked > 250


def test_classpoly_known():
    assert classpoly(-3, CTX) == [0, 1]
    assert classpoly(-4, CTX) == [-1728, 1]
    assert classpoly(-15, CTX) == [-121287375, 191025, 1]
    assert classpoly(-23, CTX) == [12771880859375, -5151296875, 3491750, 1]


def test_classpoly_certifies_against_an_error_bound(monkeypatch):
    bounds = []
    recognize = numerics.integer_recognize

    def spy(x, ctx, err=0):
        bounds.append(x.err)
        return recognize(x, ctx, err)

    monkeypatch.setattr(numerics, "integer_recognize", spy)
    assert classpoly(-23, CTX) == [12771880859375, -5151296875, 3491750, 1]
    assert len(bounds) == 4
    assert all(err > 0 for err in bounds)


@pytest.mark.parametrize("d, bits", [(-3, 64), (-23, 64), (-431, 600), (-431, 2048)])
def test_classpoly_bounds_cover_the_coefficient_errors(monkeypatch, d, bits):
    # every fixed-point value (man, err, scale) handed to the certifier has
    # |man 2^-scale - C| <= err 2^-scale for the exact C
    seen = []
    recognize = numerics.integer_recognize

    def spy(x, ctx, err=0):
        seen.append(x)
        return recognize(x, ctx, err)

    monkeypatch.setattr(numerics, "integer_recognize", spy)
    coeffs = classpoly(d, PrecisionContext(mantissa_bits=bits))
    assert len(seen) == len(coeffs)
    for (man, err, scale), c in zip(seen, coeffs):
        assert scale >= 0 and abs(man - (c << scale)) <= err


def test_classpoly_first_precision_from_the_forms(monkeypatch):
    # the first pass is sized from sum over forms of pi sqrt|d| / a, not
    # from h times the largest root; for d = -431 (h = 21) that is 544 bits
    seen = []
    inner = modular.recognize_with_retries

    def spy(compute, ctx):
        def counted(current):
            seen.append(current.mantissa_bits)
            return compute(current)
        return inner(counted, ctx)

    monkeypatch.setattr(modular, "recognize_with_retries", spy)
    coeffs = classpoly(-431, CTX)
    assert len(seen) == 1 and seen[0] < 600
    monkeypatch.undo()
    assert coeffs == classpoly(-431, PrecisionContext(mantissa_bits=2048))


def test_classpoly_h431_unchanged():
    # degree h(-431) = 21; the digest is of the coefficients certified by the
    # earlier mpc expansion, which had a relative error model
    coeffs = classpoly(-431, CTX)
    assert len(coeffs) == 22 and coeffs[-1] == 1
    digest = hashlib.sha256(",".join(map(str, coeffs)).encode()).hexdigest()
    assert digest == "35d823579a501caa2f38d9f977edb72faa4a4623d6b6896f4c62abb1ea242ee5"


def test_classpoly_roots():
    with CTX.workprec():
        for d in (-15, -23, -31):
            coeffs = classpoly(d, CTX)
            for form in enumerate_reduced(d).reduced_forms:
                root = j_eval(form, CTX).value
                acc = mp.mpc(0)
                for c in reversed(coeffs):
                    acc = acc * root + c
                scale = max(abs(root), 1) ** (len(coeffs) - 1)
                assert abs(acc) <= 1e-40 * scale


def brute_force_y1(z1, z2, bound):
    best = math.inf
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            for c in range(-bound, bound + 1):
                for d in range(-bound, bound + 1):
                    if a * d - b * c != 1:
                        continue
                    w = (a * z2 + b) / (c * z2 + d)
                    ch = 1 + abs(z1 - w) ** 2 / (2 * z1.imag * w.imag)
                    best = min(best, math.acosh(max(ch, 1.0)))
    return best


def test_y1_distance_examples():
    assert y1_distance(1j, 1j) == pytest.approx(0.0, abs=1e-12)
    assert y1_distance(1j, 1j + 1) == pytest.approx(0.0, abs=1e-12)
    assert y1_distance(1j, 2j) == pytest.approx(math.acosh(1.25), rel=1e-12)
    # zeta_3 in double precision sits on the corner of F, where rounding
    # puts |z|^2 on either side of 1
    zeta3 = complex(0.5, math.sqrt(3) / 2)
    assert y1_distance(zeta3, zeta3 - 1) == pytest.approx(0.0, abs=1e-7)


def test_y1_distance_brute_force():
    rng = random.Random(29)
    for _ in range(30):
        z1 = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.8))
        z2 = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.8))
        ours = y1_distance(z1, z2)
        oracle = brute_force_y1(z1, z2, 4)
        assert ours == pytest.approx(oracle, abs=1e-10)


def test_gamma_translates_complete():
    # every enumerated element is in the group and within the cutoff; the
    # identity orbit point is always present
    z1, z2 = 0.3 + 1.1j, 0.2 + 1.4j
    out = gamma_translates(z1, z2, 10.0)
    assert any(g == (1, 0, 0, 1) for g, _ in out)
    for (a, b, c, d), ch in out:
        assert a * d - b * c == 1
        assert ch <= 10.0 + 1e-9
        w = (a * z2 + b) / (c * z2 + d)
        assert ch == pytest.approx(cosh_dist(z1, w), rel=1e-12)
    # doubling the cutoff only adds elements
    bigger = gamma_translates(z1, z2, 20.0)
    small_set = {g for g, _ in out}
    big_set = {g for g, _ in bigger}
    assert small_set <= big_set


def test_j_value_cache_keyed_by_point():
    # one entry per point, answering any precision at or below its own;
    # a higher precision replaces it
    point = QuadForm(1, 1, 41)
    low, high = PrecisionContext(mantissa_bits=128), PrecisionContext(mantissa_bits=320)
    modular._jvalue_cache.pop(point, None)
    first = j_eval(point, high)
    assert modular._jvalue_cache[point].scale == 320 + numerics.GUARD_BITS
    assert j_eval(point, low) is first
    assert j_eval(QuadForm(41, -1, 1), low) is first  # reduces to the point
    assert j_eval(point, CTX.with_bits(640)) is not first
    assert modular._jvalue_cache[point].scale == 640 + numerics.GUARD_BITS
    assert all(isinstance(k, QuadForm) for k in modular._jvalue_cache)  # no precision in keys


def test_j_eval_serves_the_inverse_class_as_the_conjugate(monkeypatch):
    # (2, -1, 3) is the inverse class of (2, 1, 3), at -conj z: its j-value is
    # the exact conjugate of the cached one, with the same bound, and no
    # series runs; a finer request runs one series, for the pair's key
    form, mirror = QuadForm(2, 1, 3), QuadForm(2, -1, 3)
    monkeypatch.setattr(modular, "_jvalue_cache", {})
    value = j_eval(form, CTX)
    calls = []
    original = modular._j_series

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(modular, "_j_series", counted)
    twin = j_eval(mirror, CTX.with_bits(128))
    assert (twin.re, twin.im, twin.err, twin.scale) == \
        (value.re, -value.im, value.err, value.scale)
    assert not calls
    assert list(modular._jvalue_cache) == [form]  # one entry per class pair
    fresh = j_eval(mirror, CTX.with_bits(2 * CTX.mantissa_bits))
    assert len(calls) == 1 and list(modular._jvalue_cache) == [form]
    cached = modular._jvalue_cache[form]
    assert cached.scale == fresh.scale and fresh == cached._replace(im=-cached.im)
    assert abs(fresh.value - twin.value) <= fresh.error + twin.error
