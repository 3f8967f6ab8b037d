"""Binary quadratic forms, class groups of imaginary quadratic orders, CM points.

Forms (a, b, c) with b^2 - 4ac = d < 0, a > 0 are the canonical class
representation throughout, and a CM point is its reduced form: the root
z = (-b + i sqrt|d|) / (2a) of a reduced form lies in the fundamental
domain (approx, mpc).  Both class-group maps are integer formulas
on forms: composition is Dirichlet composition, and the projection between
class groups of nested orders is the ascending isogeny, the one Hecke
image of the right discriminant (hecke_image, which also moves CM points
in modular.coset_apply).  Non-maximal orders are first-class: reduction,
composition and enumeration work for every valid discriminant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache


class QuadFormError(ValueError):
    pass


def _xgcd(a: int, b: int):
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


@dataclass(frozen=True)
class Discriminant:
    """d = f^2 * d_K with d_K fundamental; classifies the order O_d."""

    d: int
    d_K: int
    f: int

    @classmethod
    def of(cls, d: int) -> "Discriminant":
        if d >= 0:
            raise QuadFormError(f"discriminant must be negative, got {d}")
        if d % 4 not in (0, 1):
            raise QuadFormError(f"discriminant must be 0 or 1 mod 4, got {d}")
        rest = -d
        p = 2
        while p * p <= rest:
            while rest % (p * p) == 0:
                rest //= p * p
            p += 1
        d0 = -rest  # squarefree part, negative
        if d0 % 4 == 1:
            d_K = d0
        else:
            d_K = 4 * d0
        f = math.isqrt(d // d_K)
        assert f * f * d_K == d
        return cls(d=d, d_K=d_K, f=f)

    @property
    def is_fundamental(self) -> bool:
        return self.f == 1


@dataclass(frozen=True, order=True)
class QuadForm:
    a: int
    b: int
    c: int

    @property
    def disc(self) -> int:
        return self.b * self.b - 4 * self.a * self.c

    @property
    def content(self) -> int:
        return math.gcd(math.gcd(abs(self.a), abs(self.b)), abs(self.c))

    @property
    def is_primitive(self) -> bool:
        return self.content == 1

    def approx(self) -> complex:
        """The root z = (-b + i sqrt|d|) / (2a) in the upper half plane."""
        return complex(-self.b, math.sqrt(-self.disc)) / (2 * self.a)

    def mpc(self, mp_module):
        """The root z at the caller's current mpmath precision."""
        return mp_module.mpc(-self.b, mp_module.sqrt(-self.disc)) / (2 * self.a)

    def __str__(self):
        return f"({self.a},{self.b},{self.c})"


def reduce_form(form: QuadForm) -> QuadForm:
    """The unique reduced representative of the class of a definite form."""
    a, b, c = form.a, form.b, form.c
    d = b * b - 4 * a * c
    if d >= 0 or a <= 0:
        raise QuadFormError(f"form {form} is not positive definite")
    while True:
        if c < a:
            a, b, c = c, -b, a
            continue
        if b > a or b <= -a:
            # translate b into (-a, a]
            b_new = b - 2 * a * ((b + a) // (2 * a))
            if b_new <= -a:
                b_new += 2 * a
            c = (b_new * b_new - d) // (4 * a)
            b = b_new
            continue
        break
    if (a == c and b < 0) or b == -a:
        b = -b
    return QuadForm(a, b, c)


def identity_form(d: int) -> QuadForm:
    k = abs(d) % 2
    return QuadForm(1, k, (k * k - d) // 4)


def compose(f1: QuadForm, f2: QuadForm) -> QuadForm:
    """Reduced Dirichlet composite (Cox, Primes of the form x^2 + ny^2, 3.A).

    With e = gcd(a1, a2, (b1 + b2)/2) = alpha a1 + beta a2 + gamma (b1 + b2)/2,
    the composite is (a1 a2 / e^2, B, .) with
    B = (alpha a1 b2 + beta a2 b1 + gamma (b1 b2 + d)/2) / e, for every
    discriminant (odd, even, non-fundamental).
    """
    d = f1.disc
    if d != f2.disc:
        raise QuadFormError(f"discriminant mismatch: {f1.disc} vs {f2.disc}")
    if not (f1.is_primitive and f2.is_primitive):
        raise QuadFormError("composition requires primitive forms")
    a1, b1 = f1.a, f1.b
    a2, b2 = f2.a, f2.b
    g, p, q = _xgcd(a1, a2)
    e, r, gamma = _xgcd(g, (b1 + b2) // 2)
    a3 = a1 * a2 // (e * e)
    b3 = (r * p * a1 * b2 + r * q * a2 * b1 + gamma * ((b1 * b2 + d) // 2)) // e
    return reduce_form(QuadForm(a3, b3, (b3 * b3 - d) // (4 * a3)))


@lru_cache(maxsize=4096)
def inverse(form: QuadForm) -> QuadForm:
    """The reduced inverse class; memoised, as conjugate_key keys each walk."""
    return reduce_form(QuadForm(form.a, -form.b, form.c))


def conjugate_key(f1: QuadForm, f2: QuadForm) -> tuple[QuadForm, QuadForm]:
    """The smaller of (f1, f2) and (f1^-1, f2^-1), reduced forms: one key
    per orbit of z -> -conj z on both points, which inverts both classes."""
    return min((f1, f2), (inverse(f1), inverse(f2)))


@dataclass(frozen=True)
class ClassGroup:
    discriminant: Discriminant
    reduced_forms: tuple[QuadForm, ...]

    @property
    def h(self) -> int:
        return len(self.reduced_forms)

    @property
    def identity(self) -> QuadForm:
        """The principal form: the one reduced form with a = 1, so the
        first in sorted order."""
        return self.reduced_forms[0]


@lru_cache(maxsize=None)
def enumerate_reduced(d: int) -> ClassGroup:
    """All primitive reduced forms of discriminant d by exhaustive scan."""
    disc = Discriminant.of(d)
    forms = []
    a_max = math.isqrt(-d // 3)
    for a in range(1, a_max + 1):
        for b in range(-a + 1, a + 1):
            if (b * b - d) % (4 * a) != 0:
                continue
            c = (b * b - d) // (4 * a)
            if c < a:
                continue
            if b < 0 and a == c:
                continue
            f = QuadForm(a, b, c)
            if not f.is_primitive:
                continue
            forms.append(f)
    return ClassGroup(discriminant=disc, reduced_forms=tuple(sorted(forms)))


@lru_cache(maxsize=None)
def hecke_cosets(m: int) -> tuple[tuple[int, int, int], ...]:
    """Upper-triangular coset representatives (a, b, d): a d = m, 0 <= b < d."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return tuple((a, b, m // a) for a in range(1, m + 1) if m % a == 0
                 for b in range(m // a))


def hecke_image(form: QuadForm, coset: tuple[int, int, int]) -> QuadForm:
    """The primitive form of w = (a z + b) / d, z the root of form.

    Substituting z = (d w - b) / a into A z^2 + B z + C = 0 gives the
    integral form below; its primitive part is returned, unreduced.
    """
    a, b, d = coset
    aa, bb, cc = form.a, form.b, form.c
    a2 = aa * d * d
    b2 = (bb * a - 2 * aa * b) * d
    c2 = aa * b * b - bb * a * b + cc * a * a
    g = math.gcd(a2, b2, c2)
    return QuadForm(a2 // g, b2 // g, c2 // g)


@lru_cache(maxsize=4096)
def hecke_images(form: QuadForm, m: int) -> tuple[QuadForm, ...]:
    """The reduced hecke_image of form under each of hecke_cosets(m), in
    that order: the CM points T_m sends the root of form to.  Memoised: on
    the benchmark grids about four in five requests repeat a (form, m)."""
    return tuple(reduce_form(hecke_image(form, c)) for c in hecke_cosets(m))


def project_class(form: QuadForm, target: Discriminant) -> QuadForm:
    """Project a class of discriminant d' to the class group of d_i | d'.

    Both orders share the fundamental discriminant and the target conductor
    divides the source conductor; let g = f' / f_i.  The map is the
    ascending isogeny of degree g: among the images of the class under the
    determinant-g cosets (hecke_cosets), which up to scaling are the
    lattices containing the class's lattice I with index g, exactly one has
    discriminant d_i.  It is unique because every O_(d_i)-lattice that
    contains I contains I O_(d_i), which already has index g.  The map is
    a group homomorphism.
    """
    source = Discriminant.of(form.disc)
    if source.d_K != target.d_K:
        raise QuadFormError(
            f"incompatible fundamental parts: {source.d_K} vs {target.d_K}"
        )
    if source.f % target.f != 0:
        raise QuadFormError(
            f"target conductor {target.f} does not divide source conductor {source.f}"
        )
    images = (hecke_image(form, c) for c in hecke_cosets(source.f // target.f))
    return reduce_form(next(image for image in images if image.disc == target.d))
