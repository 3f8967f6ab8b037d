import math
import random

import mpmath as mp
import pytest

from singmod import numerics
from singmod.numerics import (
    MK_FLOAT,
    Fixed,
    IntegerRecognitionError,
    PrecisionContext,
    PrecisionError,
    _q_int,
    _q_table,
    as_fixed,
    integer_recognize,
    legendre_P,
    legendre_Q,
    legendre_Q_num,
    mk_constant,
    recognize_with_retries,
)

CTX = PrecisionContext()


def test_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext(mantissa_bits=32)
    assert CTX.with_bits(2 * CTX.mantissa_bits).mantissa_bits == 512
    assert CTX.with_bits(1000).mantissa_bits == 1000


def test_legendre_P_table():
    # published table for the even degrees used by the closed forms
    assert legendre_P(0, 5.0) == 1
    assert legendre_P(2, 1.0) == 1
    assert legendre_P(4, 0.0) == pytest.approx(3.0 / 8.0, rel=1e-15)
    for t in [-1.0, -0.3, 0.0, 0.7, 1.0, 2.5]:
        assert legendre_P(2, t) == pytest.approx((3 * t * t - 1) / 2, abs=1e-14)
        assert legendre_P(4, t) == pytest.approx(
            (35 * t ** 4 - 30 * t ** 2 + 3) / 8, abs=1e-13)
        assert legendre_P(6, t) == pytest.approx(
            (231 * t ** 6 - 315 * t ** 4 + 105 * t ** 2 - 5) / 16, abs=1e-12)


def test_Q_closed_examples():
    assert float(legendre_Q(1, 2.0, CTX)) == pytest.approx(
        math.log(3) / 2, rel=1e-15)
    # k = 3, t = 3: (13/2) log 2 - 9/2 exactly
    assert float(legendre_Q(3, 3.0, CTX)) == pytest.approx(
        6.5 * math.log(2) - 4.5, rel=1e-12)
    # non-integer order routes through mpmath's general evaluator
    assert float(legendre_Q(1.5, 2.0, CTX)) == pytest.approx(
        float(mp.legenq(0.5, 0, 2.0, type=3).real), rel=1e-12)
    for s in (2, 3, 1.5):
        with pytest.raises(ValueError):
            legendre_Q(s, 1.0, CTX)
    with pytest.raises(ValueError):
        legendre_Q(3, math.inf, CTX)


def test_Q_closed_at_large_t_matches_float_route():
    # the upward mpf recurrence loses about (2n + 1) arccosh(t) / ln 2 bits,
    # more than the whole mantissa here; with no guard bits for them Q_2 at
    # t = cosh(40 sqrt 2) ~ 2e24 comes out near -2e-34
    for eps in (30.0, 40.0, 70.5, 100.0):
        t = math.cosh(math.sqrt(2.0) * eps)
        for k in (1, 3, 5, 7):
            a = legendre_Q(k, t, CTX)
            b = _q_int(k - 1, t)
            assert a > 0
            assert float(a) == pytest.approx(b, rel=1e-13)


def test_Q_closed_vs_quadrature():
    # the quadrature route is the oracle for the integer-order recurrence
    for k in (1, 3, 5, 7):
        for t in (1.01, 1.1, 2.0, 5.0, 10.0):
            a = legendre_Q(k, t, CTX)
            b = legendre_Q_num(k, t, CTX)
            assert abs(a - b) <= 10 * 2.0 ** -CTX.mantissa_bits


def test_Q_float_route_vs_quadrature():
    # the double-precision path the lattice sums run on: below t = 2 the
    # upward recurrence near t = 1 and the backward recurrence elsewhere;
    # from t = 2 on, the Taylor cells and then the top band, at its edge and
    # just either side of it; all held to 1e-13.  The oracle's absolute
    # tail, 2^-256 ~ 1e-77, is far below Q_6(1e4) ~ 1e-31.
    ts = [1.01, 1.1, 1.3, 1.5, 1.7, 1.9, 2.0 - 1e-9, 2.0, 2.0 + 1e-9, 3.0,
          10.0, 1000.0, 1e4, 64.0 - 1e-9, 64.0, 64.0 + 1e-9]
    for n in range(7):
        for t in ts:
            a = _q_int(n, t)
            b = legendre_Q_num(n + 1, t, CTX)
            assert abs(a - b) <= 1e-13 * abs(b)


def _cell_edges(n):
    """t = 2, the t at each Taylor-cell boundary and one float either side,
    and the last float below the top band's edge."""
    top, _, k4, cells = _q_table(n)
    ts = [2.0, math.nextafter(2.0, 3.0), math.nextafter(top, 0.0)]
    for i in range(1, len(cells)):
        t = (i / k4) ** -0.5
        ts += [math.nextafter(t, 0.0), t, math.nextafter(t, 3.0)]
    return [t for t in ts if 2.0 <= t < top]


@pytest.mark.parametrize("n", list(range(9)) + [20, 30])
def test_q_cells_match_legenq(n):
    # every Taylor cell, at its edges, centre and either side of each
    # boundary, against mpmath's general evaluator at 120 bits
    top, _, k4, cells = _q_table(n)
    ts = _cell_edges(n) + [((i + 0.5) / k4) ** -0.5 for i in range(len(cells) - 1)]
    with mp.workprec(120):
        for t in ts:
            if t >= top:
                continue
            want = mp.legenq(n, 0, mp.mpf(t), type=3).real
            assert abs(_q_int(n, t) - want) <= 1e-15 * want, t


def test_q_top_band_has_fixed_degree():
    # _q_int unrolls the top band, so its degree is fixed for every order;
    # its edge rises instead, and the remainder bound still holds there
    # Q_30(128) ~ 7e-76: the oracle's absolute tail needs 2^-300, not 2^-256
    oracle = CTX.with_bits(300)
    for n in range(41):
        top, coeffs, k4, cells = _q_table(n)
        assert len(coeffs) == 5
        assert top >= 64.0
        # K cells cover u = 1/t^2 in [0, 1/4], and a copy of the last serves u = 1/4
        assert len(cells) - 1 == k4 / 4.0 and cells[-1] == cells[-2]
    assert _q_table(20)[0] == 64.0
    assert _q_table(30)[0] == 128.0
    for t in (128.0, 300.0):
        assert _q_int(30, t) == pytest.approx(
            float(legendre_Q_num(31, t, oracle)), rel=1e-13)


def test_Q_positive_decreasing():
    grid = [1.01, 1.1, 2.0, 5.0, 50.0]
    for k in (1, 3, 5, 7):
        values = [legendre_Q(k, t, CTX) for t in grid]
        assert all(v > 0 for v in values)
        assert all(a > b for a, b in zip(values, values[1:]))
    assert legendre_Q_num(3, 2, CTX) >= legendre_Q_num(3, 4, CTX)
    assert legendre_Q_num(1.0001, 5.0, CTX) > 0


def test_Q_ode_residual():
    # (1-t^2) Q'' - 2t Q' + k(k-1) Q = 0 for Q = Q_{k-1}
    # the stencil points must carry the full working precision, otherwise the
    # rounding of t +/- h dominates the divided differences
    with CTX.workprec():
        h = mp.mpf(1) / 10 ** 6
        for k in (1, 3, 5, 7):
            for t in (1.5, 3.0, 7.0):
                t = mp.mpf(t)
                q = lambda x: legendre_Q(k, x, CTX)
                d1 = (q(t + h) - q(t - h)) / (2 * h)
                d2 = (q(t + h) - 2 * q(t) + q(t - h)) / h ** 2
                res = (1 - t * t) * d2 - 2 * t * d1 + k * (k - 1) * q(t)
                assert abs(res) < 1e-10  # O(h^2) stencil error


def test_mk_values():
    assert float(mk_constant(3)) == 2
    assert float(mk_constant(5)) == pytest.approx(7.0 / 3, rel=1e-15)
    assert float(mk_constant(7)) == pytest.approx((7 * math.sqrt(15) - 3) / 10, rel=1e-15)
    with pytest.raises(ValueError):
        mk_constant(9)


def test_mk_floats_are_the_mpmath_values():
    # verify_chain reads the floats; they are the mpf closed forms rounded
    with mp.workprec(53):
        for k in (3, 5, 7):
            assert MK_FLOAT[k] == float(mk_constant(k))
    assert sorted(MK_FLOAT) == [3, 5, 7]


def test_mk_dense_sampling():
    # m_k * (-P_{k-1}(r)) <= 1 across [-1, 1]
    rng = random.Random(7)
    for k in (3, 5, 7):
        mk = float(mk_constant(k))
        for _ in range(10 ** 4):
            r = rng.uniform(-1.0, 1.0)
            assert mk * (-legendre_P(k - 1, r)) <= 1 + 1e-12


def test_integer_recognize():
    assert integer_recognize(1727.999999999997, CTX) == 1728
    assert integer_recognize(1728, CTX) == 1728  # idempotent on exact integers
    with pytest.raises(IntegerRecognitionError) as err:
        integer_recognize(1728.4, CTX)
    assert err.value.residual == pytest.approx(0.4, rel=1e-9)


def test_integer_recognize_window_capped_at_half():
    # 1e-9 * sqrt|x| is about 1e21 here; the window must still stop at 1/2
    with mp.workprec(CTX.mantissa_bits):
        x = mp.mpf(2 ** 200 + 10 ** 20) + mp.mpf(0.5)
    with pytest.raises(IntegerRecognitionError):
        integer_recognize(x, CTX)


def test_integer_recognize_counts_the_error_bound():
    n = 2 ** 100  # large enough that only the 1/2 cap binds
    with mp.workprec(CTX.mantissa_bits):
        x = mp.mpf(n) + mp.mpf(0.3)
    assert integer_recognize(x, CTX) == n
    with pytest.raises(IntegerRecognitionError):
        integer_recognize(x, CTX, err=0.25)
    assert integer_recognize(x, CTX, err=0.1) == n


def test_integer_recognize_keeps_the_sign():
    assert integer_recognize(-1727.999999999997, CTX) == -1728
    assert integer_recognize(-1728, CTX) == -1728
    with mp.workprec(CTX.mantissa_bits):
        x = -mp.mpf(2 ** 100) - mp.mpf(0.3)
    assert integer_recognize(x, CTX) == -2 ** 100
    assert integer_recognize(x, CTX, err=0.1) == -2 ** 100
    with pytest.raises(IntegerRecognitionError):
        integer_recognize(x, CTX, err=0.25)
    with mp.workprec(CTX.mantissa_bits):
        assert integer_recognize(mp.mpf(-5.0000000001), CTX) == -5
    man, err, scale = as_fixed(-0.75, CTX)
    assert man == -3 << scale - 2 and 0 < err


def test_fixed_point_exact_integer_accepted():
    # an exact integer at any scale, with no error, is its own certificate
    assert integer_recognize(Fixed(1728 << 40, 0, 40), CTX) == 1728
    assert integer_recognize(Fixed(-5, 0, 0), CTX) == -5
    assert integer_recognize(Fixed(2 ** 300, 0, 0), CTX) == 2 ** 300
    # a negative scale reads man 2^-scale as an integer
    assert integer_recognize(Fixed(3, 0, -2), CTX) == 12


def test_fixed_point_budget_equal_to_the_window_refused():
    # the window is strict: a budget that reaches it is refused, one unit
    # below it accepted.  At x = 2^100 the 1/2 cap binds: budget = 8/16
    n = 2 ** 100
    assert integer_recognize(Fixed((n << 4) + 4, 3, 4), CTX) == n
    with pytest.raises(IntegerRecognitionError):
        integer_recognize(Fixed((n << 4) + 4, 4, 4), CTX)
    # at x = 4 the tolerance binds: window 2 INTEGER_TOLERANCE = 2p/q, q a
    # power of two, met exactly by err = 2p units of 1/q
    p, q = numerics.INTEGER_TOLERANCE.as_integer_ratio()
    scale = q.bit_length() - 1
    assert integer_recognize(Fixed(4 << scale, 2 * p - 1, scale), CTX) == 4
    with pytest.raises(IntegerRecognitionError):
        integer_recognize(Fixed(4 << scale, 2 * p, scale), CTX)


def test_fixed_point_window_capped_at_half():
    # 2^200 + 10^20 + 1/2 exactly, with no error: 1e-9 sqrt|x| is about 1e21,
    # but the window still stops at 1/2
    x = Fixed(((2 ** 200 + 10 ** 20) << 1) + 1, 0, 1)
    with pytest.raises(IntegerRecognitionError) as err:
        integer_recognize(x, CTX)
    assert err.value.residual == 0.5
    assert integer_recognize(Fixed(x.man - 1, 0, 1), CTX) == 2 ** 200 + 10 ** 20


def test_fixed_point_unbounded_error_refused():
    with pytest.raises(IntegerRecognitionError) as err:
        integer_recognize(Fixed(5, math.inf, 0), CTX)
    assert err.value.short_bits == math.inf and err.value.error_bound == math.inf
    assert recognize_with_retries(lambda ctx: [Fixed(7 << 40, 1, 40)], CTX) == [7]


def test_recognize_with_retries():
    calls = []

    def compute(ctx):
        calls.append(ctx.mantissa_bits)
        # converges to an integer only once precision has doubled twice
        return [as_fixed(mp.mpf(5) + mp.mpf(10) ** (-3 if len(calls) < 3 else -20), ctx)]

    assert recognize_with_retries(compute, CTX) == [5]
    assert calls == [256, 512, 1024]

    with pytest.raises(PrecisionError):
        recognize_with_retries(lambda ctx: [as_fixed(mp.mpf("7.25"), ctx)], CTX)


def test_recognize_with_retries_failure_names_the_error_bound():
    # a value on an integer whose bound never fits: the residual alone
    # (0) would hide why it failed
    with pytest.raises(PrecisionError) as err:
        recognize_with_retries(lambda ctx: [as_fixed(5, ctx, mp.inf)], CTX)
    assert "last residual 0, error bound inf, short by inf bits" in str(err.value)
    with pytest.raises(PrecisionError) as err:
        recognize_with_retries(lambda ctx: [as_fixed(5, ctx, mp.mpf("0.75"))], CTX)
    assert "error bound 0.75, short by 29 bits" in str(err.value)  # 0.75 / 1e-9 sqrt 5


def test_recognize_with_retries_sized_from_the_shortfall():
    calls = []

    def compute(ctx):
        calls.append(ctx.mantissa_bits)
        # the error needs about 1000 + 29 bits to fall inside the window
        return [as_fixed(5, ctx, mp.mpf(2) ** (1000 - ctx.mantissa_bits))]

    assert recognize_with_retries(compute, CTX) == [5]
    assert len(calls) == 2 and calls[1] < 1100


def test_recognize_with_retries_doubles_on_an_infinite_error():
    with pytest.raises(IntegerRecognitionError) as err:
        integer_recognize(5, CTX, err=mp.inf)
    assert err.value.short_bits == math.inf
    calls = []

    def compute(ctx):
        calls.append(ctx.mantissa_bits)
        return [as_fixed(5, ctx, mp.inf)]

    with pytest.raises(PrecisionError):
        recognize_with_retries(compute, CTX)
    assert calls == [256 * 2 ** i for i in range(numerics.MAX_RETRIES + 1)]
