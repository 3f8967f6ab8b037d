"""Binary quadratic forms, class groups of imaginary quadratic orders, CM points.

Forms (a, b, c) with b^2 - 4ac = d < 0, a > 0 are the canonical class
representation throughout; ideals only appear inside the projection map
between class groups of nested orders, where the extension ideal is
computed as an explicit Z-module.  Non-maximal orders are first-class:
reduction, composition and enumeration work for every valid discriminant.
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
        n = -d
        square = 1
        rest = n
        p = 2
        while p * p <= rest:
            while rest % (p * p) == 0:
                rest //= p * p
                square *= p
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

    @property
    def is_reduced(self) -> bool:
        a, b, c = self.a, self.b, self.c
        if not (abs(b) <= a <= c):
            return False
        if (abs(b) == a or a == c) and b < 0:
            return False
        return True

    def __call__(self, x: int, y: int) -> int:
        return self.a * x * x + self.b * x * y + self.c * y * y

    def __str__(self):
        return f"({self.a},{self.b},{self.c})"


@dataclass(frozen=True)
class CMPoint:
    """z = (-b + i sqrt(|d|)) / (2a), stored exactly via its form."""

    a: int
    b: int
    d: int  # b^2 - 4ac, negative

    @property
    def form(self) -> QuadForm:
        return QuadForm(self.a, self.b, (self.b * self.b - self.d) // (4 * self.a))

    @property
    def discriminant(self) -> int:
        return self.d

    def approx(self) -> complex:
        return complex(-self.b, math.sqrt(-self.d)) / (2 * self.a)

    def mpc(self, mp_module):
        """Exact point evaluated at the caller's current mpmath precision."""
        return mp_module.mpc(-self.b, mp_module.sqrt(-self.d)) / (2 * self.a)

    def conjugate_negated(self) -> "CMPoint":
        # -conj(z) corresponds to the inverse class
        return CMPoint(self.a, -self.b, self.d)


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
    """Reduced Gauss composite, computed by multiplying the associated ideals.

    Each primitive form (a, b, c) corresponds to the proper O_d-ideal
    [a, (-b + sqrt(d))/2]; the product ideal is assembled as a Z-module from
    the four pairwise generator products and converted back to a form.  This
    route handles every discriminant (odd, even, non-fundamental) uniformly.
    """
    d = f1.disc
    if d != f2.disc:
        raise QuadFormError(f"discriminant mismatch: {f1.disc} vs {f2.disc}")
    if not (f1.is_primitive and f2.is_primitive):
        raise QuadFormError("composition requires primitive forms")
    a1, b1 = f1.a, f1.b
    a2, b2 = f2.a, f2.b
    # elements written (x + y sqrt(d)) / 2; ideal generators are 2a and -b+sqrt(d)
    rows = [
        (2 * a1 * a2, 0),
        (-a1 * b2, a1),
        (-a2 * b1, a2),
        ((b1 * b2 + d) // 2, -(b1 + b2) // 2),
    ]
    x1, (x2, y2) = _module_hnf(rows)
    a3 = x1 // (2 * y2)
    b3 = -x2 // y2
    c3 = (b3 * b3 - d) // (4 * a3)
    return reduce_form(QuadForm(a3, b3, c3))


def inverse(form: QuadForm) -> QuadForm:
    return reduce_form(QuadForm(form.a, -form.b, form.c))


@dataclass(frozen=True)
class ClassGroup:
    discriminant: Discriminant
    reduced_forms: tuple[QuadForm, ...]
    identity_index: int

    @property
    def h(self) -> int:
        return len(self.reduced_forms)

    @property
    def identity(self) -> QuadForm:
        return self.reduced_forms[self.identity_index]


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
    forms.sort()
    ident = identity_form(d)
    return ClassGroup(
        discriminant=disc,
        reduced_forms=tuple(forms),
        identity_index=forms.index(ident),
    )


def cm_point(form: QuadForm) -> CMPoint:
    """The upper-half-plane point of a reduced form; lies in the fundamental domain."""
    if not form.is_reduced:
        raise QuadFormError(f"cm_point expects a reduced form, got {form}")
    return CMPoint(form.a, form.b, form.disc)


def _coprime_representative(form: QuadForm, modulus: int) -> QuadForm:
    """An equivalent form whose leading coefficient is coprime to modulus."""
    if modulus == 1 or math.gcd(form.a, modulus) == 1:
        return form
    bound = 1
    while bound < 64:
        for x in range(-bound, bound + 1):
            for y in range(-bound, bound + 1):
                if math.gcd(x, y) != 1:
                    continue
                value = form(x, y)
                if value > 0 and math.gcd(value, modulus) == 1:
                    # extend (x, y) to a unimodular substitution
                    g, u, v = _xgcd(x, y)
                    assert g == 1
                    # matrix [[x, -v], [y, u]] has det x*u + y*v = 1
                    p, q, r, s = x, -v, y, u
                    a2 = form(p, r)
                    c2 = form(q, s)
                    b2 = 2 * (form.a * p * q + form.c * r * s) + form.b * (p * s + q * r)
                    out = QuadForm(a2, b2, c2)
                    assert out.disc == form.disc
                    return out
        bound *= 2
    raise QuadFormError(
        f"no representative of {form} with leading coefficient coprime to {modulus}"
    )


def _module_hnf(rows: list[tuple[int, int]]) -> tuple[int, tuple[int, int]]:
    """Two-row HNF basis of the Z-module spanned by (x, y) vectors.

    Returns (x1, (x2, y2)) meaning basis {(x1, 0), (x2, y2)} with x1, y2 > 0.
    """
    xg, yg = 0, 0
    leftovers = []
    for x, y in rows:
        if y == 0:
            leftovers.append(x)
            continue
        if yg == 0:
            xg, yg = x, y
            continue
        g, u, v = _xgcd(yg, y)
        # (yg/g)*(x,y) - (y/g)*(xg,yg) kills the y component
        leftovers.append((yg // g) * x - (y // g) * xg)
        xg, yg = u * xg + v * x, g
    if yg < 0:
        xg, yg = -xg, -yg
    if yg == 0:
        raise QuadFormError("degenerate module in projection")
    x1 = 0
    for x in leftovers:
        x1 = math.gcd(x1, abs(x))
    if x1 == 0:
        raise QuadFormError("degenerate module in projection")
    xg %= x1
    return x1, (xg, yg)


def project_class(form: QuadForm, target: Discriminant) -> QuadForm:
    """Project a class of discriminant d' to the class group of d_i | d'.

    Both orders share the fundamental discriminant and the target conductor
    divides the source conductor.  The class is moved to a representative
    whose leading coefficient is prime to the source conductor, the ideal is
    extended to the bigger order as an explicit Z-module, and the module is
    converted back to a reduced form.  The map is a group homomorphism.
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
    if source.d == target.d:
        return reduce_form(form)
    rep = _coprime_representative(reduce_form(form), source.f)
    a, b = rep.a, rep.b
    g = source.f // target.f
    di = target.d
    # Z-module of the extension ideal, elements written (x + y sqrt(di)) / 2.
    # Generators: a, a*omega, beta, beta*omega with omega = (di + sqrt(di))/2
    # and beta = (-b + g sqrt(di)) / 2.
    rows = [
        (2 * a, 0),
        (a * di, a),
        (-b, g),
        ((g - b) * di // 2, (g * di - b) // 2),
    ]
    x1, (x2, y2) = _module_hnf(rows)
    if x1 % (2 * y2) != 0 or x2 % y2 != 0:
        raise QuadFormError("projected module is not a proper ideal of the target order")
    a_new = x1 // (2 * y2)
    b_new = -x2 // y2
    if (b_new * b_new - di) % (4 * a_new) != 0:
        raise QuadFormError("projected form has wrong discriminant")
    c_new = (b_new * b_new - di) // (4 * a_new)
    return reduce_form(QuadForm(a_new, b_new, c_new))
