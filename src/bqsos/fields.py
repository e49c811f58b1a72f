"""Exact arithmetic in totally real quadratic and biquadratic fields.

Elements are stored as integer coordinate vectors over a common positive
denominator in the power basis (1, sqrt(m), sqrt(s), sqrt(t)) for a
biquadratic field, or (1, sqrt(n)) for a quadratic field.  All sign and
comparison questions are settled with integer arithmetic only; no floating
point is involved anywhere in this module.

The field owns everything that depends on which field it is: its Galois
action on coordinate tuples (a sign pattern on the radicals per real
embedding), the exact sign at each embedding, the integer fixed-point
conjugates that the search compares in its inner loop
(`fixed_conjugates`, from the fixed-point square roots `fixed_roots`
that each field stores), the total-nonnegativity predicate built on them
(`tnn_test`), its integral basis (`basis_matrix`; the five biquadratic
shapes B1..B4b are one table, INTEGRAL_BASES) and its JSON form
(`to_json`).  Element and the other modules delegate to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt
from operator import mul


class FieldError(Exception):
    pass


class UsageError(ValueError):
    """An argument that breaks a usage rule, such as a negative max_n, a
    reversed range or an unknown family; the CLI reports it as exit 2,
    with the usage line of the subcommand."""


class NotSquarefree(FieldError):
    pass


class EqualGenerators(FieldError):
    pass


class OutOfRange(FieldError):
    pass


class FieldMismatch(FieldError):
    pass


class ForeignRadical(FieldError):
    """sqrt(k) does not lie in the active field."""

    def __init__(self, radicand):
        self.radicand = radicand
        super().__init__(f"sqrt({radicand}) does not lie in the field")


def sign(x):
    """Sign of a rational or integer as -1, 0 or +1."""
    return (x > 0) - (x < 0)


def fraction_str(num, den):
    """str(Fraction(num, den)) for an integer num and den > 0, reduced by
    their gcd without building the Fraction."""
    g = gcd(num, den)
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


def is_squarefree(n):
    return n >= 1 and squarefree_part(n)[0] == 1


def squarefree_part(n):
    """Return (f, n0) with n = f**2 * n0 and n0 squarefree, n >= 1."""
    if n < 1:
        raise OutOfRange(f"expected a positive integer, got {n}")
    f, n0, d = 1, 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        f *= d ** (e // 2)
        if e % 2:
            n0 *= d
        d += 1
    return f, n0 * n


def quad_sign(u, v, n):
    """Exact sign of u + v*sqrt(n) for rational u, v and non-square n > 1."""
    if v == 0:
        return sign(u)
    if u == 0:
        return sign(v)
    su, sv = sign(u), sign(v)
    if su == sv:
        return su
    return su * sign(u * u - v * v * n)


# Galois action on the coordinates (b, c, d) of b*sqrt(m)+c*sqrt(s)+d*sqrt(t).
SIGN_PATTERNS = ((1, 1, 1), (-1, 1, -1), (1, -1, -1), (-1, -1, 1))


def biquad_sign(a, b, c, d, m, s, t0):
    """Exact sign of a + b*sqrt(m) + c*sqrt(s) + d*sqrt(t), t = m*s/t0**2.

    Writes the value as ((a*t0 + b*t0*sqrt(m)) + (c*t0 + d*sqrt(m))*sqrt(s))/t0
    and resolves the sign by nested quadratic sign tests.
    """
    u1, u2 = a * t0, b * t0
    v1, v2 = c * t0, d
    su = quad_sign(u1, u2, m)
    sv = quad_sign(v1, v2, m)
    if sv == 0:
        return su
    if su == 0:
        return sv
    if su == sv:
        return su
    # sign(U + V*sqrt(s)) = sign(U) * sign(U^2 - V^2*s) when signs differ.
    w1 = u1 * u1 + u2 * u2 * m - s * (v1 * v1 + v2 * v2 * m)
    w2 = 2 * (u1 * u2 - s * v1 * v2)
    return su * quad_sign(w1, w2, m)


# Bits after the binary point of the fixed-point conjugates.
FIX = 64


def _fixed_sqrt(r):
    """R = floor(sqrt(r) * 2**FIX) for a non-square r > 1.  sqrt(r) * 2**FIX
    is irrational, so c*sqrt(r)*2**FIX lies strictly within |c| of c*R for
    every nonzero integer c."""
    return isqrt(r << (2 * FIX))


@dataclass(frozen=True)
class _Field:
    """What the quadratic and biquadratic fields share.

    A subclass is a frozen dataclass with `radicands`, `sign_patterns` (the
    signs that the i-th real embedding puts on the coordinates of the
    radicals), `mul_coords`, `_sign` (the exact sign of a coordinate tuple
    at the identity embedding), `fixed_conjugates` and `basis_matrix` (the
    columns of the integral basis, which maximal_order reads).
    `fixed_roots`, the R_j = _fixed_sqrt(r_j) of the radicands, is set
    once per field; it is plain ints, left out of comparison and repr, so
    fields pickle, compare and hash by their canonical data alone.

    fixed_conjugates(v) maps integer coordinates v = (a, v_1, ..., v_{d-1})
    to (F, slack): one fixed-point conjugate F_k = (a << FIX) +
    sum_j e_kj*v_j*R_j per embedding, e_k the k-th sign pattern, and
    slack = sum_j |v_j|.  Then 2**FIX times the k-th conjugate of v lies
    strictly within slack of F_k, or equals F_k when slack = 0 (see
    _fixed_sqrt), so F_k >= slack makes that conjugate nonnegative and
    F_k < -slack makes it negative.  F is linear in v: the F of v - w is
    F(v) - F(w), and its error is bounded the same way by
    slack(v) + slack(w).
    """

    fixed_roots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "fixed_roots",
                           tuple(map(_fixed_sqrt, self.radicands)))

    @property
    def degree(self):
        return len(self.sign_patterns)

    def element(self, num, den=1):
        return Element.make(self, tuple(num), den)

    def zero(self):
        return self.from_rational(0)

    def one(self):
        return self.from_rational(1)

    def from_rational(self, r):
        r = Fraction(r)
        return self.element((r.numerator,) + (0,) * len(self.radicands), r.denominator)

    def sqrt_of(self, k):
        """sqrt(k) as an element, if k is a square in the field."""
        f, k0 = squarefree_part(k)
        names = (1,) + self.radicands
        if k0 not in names:
            raise ForeignRadical(k)
        return self.element(f * (r == k0) for r in names)

    def conjugate(self, coords, i):
        """The coordinates of the i-th conjugate of the given coordinates."""
        a, *rest = coords
        return (a, *map(mul, self.sign_patterns[i], rest))

    def embedding_sign(self, coords, i):
        """Exact sign, as -1, 0 or +1, of the element with the given
        coordinates (over any positive denominator) at the i-th embedding."""
        return self._sign(self.conjugate(coords, i))

    def tnn_test(self, v):
        """Whether the integer coordinates v are totally nonnegative.

        Each conjugate is decided by its fixed-point bound first (see
        fixed_conjugates): only a bound that straddles 0 runs the exact
        embedding_sign.  Every step is integer arithmetic, so no float
        decides anything."""
        if v[0] < 0:
            return False
        conj, slack = self.fixed_conjugates(v)
        return all(f >= slack or (f >= -slack and self.embedding_sign(v, k) >= 0)
                   for k, f in enumerate(conj))


@dataclass(frozen=True)
class QuadraticField(_Field):
    """The real quadratic field Q(sqrt(n)) for squarefree n > 1."""

    n: int
    sign_patterns = ((1,), (-1,))

    @property
    def radicands(self):
        return (self.n,)

    def __post_init__(self):
        if self.n <= 1:
            raise OutOfRange(f"radicand must exceed 1, got {self.n}")
        if not is_squarefree(self.n):
            raise NotSquarefree(f"{self.n} is not squarefree")
        super().__post_init__()

    def mul_coords(self, x, y):
        a1, b1 = x
        a2, b2 = y
        return (a1 * a2 + b1 * b2 * self.n, a1 * b2 + b1 * a2)

    def _sign(self, coords):
        return quad_sign(*coords, self.n)

    def fixed_conjugates(self, v):
        """The fixed-point conjugates of integer coordinates (a, b): with
        (R,) = fixed_roots, ((a << FIX) + b*R, (a << FIX) - b*R) and the
        slack |b| (see _Field)."""
        a, b = v
        a, x = a << FIX, b * self.fixed_roots[0]
        return (a + x, a - x), abs(b)

    def basis_matrix(self):
        """Columns of the integral basis in (1, sqrt n) coords."""
        if self.n % 4 == 1:
            return ((1, 0), (Fraction(1, 2), Fraction(1, 2)))
        return ((1, 0), (0, 1))

    def to_json(self):
        return {"n": self.n, "degree": 2}

    def __repr__(self):
        return f"Q(sqrt({self.n}))"


# The integral basis of each biquadratic shape: four columns, each written
# as 4 times its coordinates over (1, sqrt p, sqrt q, sqrt r) for the roles
# (p, q, r) that classify_field assigns.
INTEGRAL_BASES = {
    "B1": ((4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 2, 0, 2)),
    "B2": ((4, 0, 0, 0), (0, 4, 0, 0), (2, 0, 2, 0), (0, 2, 0, 2)),
    "B3": ((4, 0, 0, 0), (0, 4, 0, 0), (2, 0, 2, 0), (0, 2, 0, 2)),
    "B4a": ((4, 0, 0, 0), (2, 2, 0, 0), (2, 0, 2, 0), (1, 1, 1, 1)),
    "B4b": ((4, 0, 0, 0), (2, 2, 0, 0), (2, 0, 2, 0), (1, -1, 1, 1)),
}


@dataclass(frozen=True)
class BiquadraticField(_Field):
    """A totally real biquadratic field Q(sqrt(p), sqrt(q)).

    Canonical generators m < s < t are the three squarefree integers whose
    roots lie in the field; m0, s0, t0 are the pairwise gcds.  basis_type is
    one of B1..B4b and role assignment records which of m, s, t play the
    parts of p, q, r in INTEGRAL_BASES.  The requested generators
    p, q are kept for reporting only: equality and hashing use the
    canonical data, so Q(sqrt 3, sqrt 2) == Q(sqrt 2, sqrt 6).
    """

    p: int = field(compare=False)
    q: int = field(compare=False)
    m: int
    s: int
    t: int
    m0: int
    s0: int
    t0: int
    basis_type: str
    roles: tuple  # (p_role, q_role, r_role), a permutation of (m, s, t)
    sign_patterns = SIGN_PATTERNS

    @property
    def radicands(self):
        return (self.m, self.s, self.t)

    def mul_coords(self, x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        m, s, t = self.m, self.s, self.t
        m0, s0, t0 = self.m0, self.s0, self.t0
        return (
            a1 * a2 + b1 * b2 * m + c1 * c2 * s + d1 * d2 * t,
            a1 * b2 + b1 * a2 + m0 * (c1 * d2 + d1 * c2),
            a1 * c2 + c1 * a2 + s0 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + t0 * (b1 * c2 + c1 * b2),
        )

    def _sign(self, coords):
        return biquad_sign(*coords, self.m, self.s, self.t0)

    def fixed_conjugates(self, v):
        """The fixed-point conjugates of integer coordinates (a, b, c, d):
        with x, y, z the coordinates b, c, d times their fixed_roots,
        (a << FIX) + em*x + es*y + et*z for each sign pattern (em, es, et)
        in SIGN_PATTERNS order, and the slack |b| + |c| + |d| (see
        _Field)."""
        a, b, c, d = v
        rm, rs, rt = self.fixed_roots
        a, x, y, z = a << FIX, b * rm, c * rs, d * rt
        return ((a + x + y + z, a - x + y - z, a + x - y - z, a - x - y + z),
                abs(b) + abs(c) + abs(d))

    def basis_matrix(self):
        """Columns of the integral basis in (1, sqrt m, sqrt s, sqrt t)
        coords: each INTEGRAL_BASES column, over 4, with its role
        coordinates moved to the slots of m, s and t."""
        slots = (0, *(self.roles.index(r) + 1 for r in self.radicands))
        return tuple(tuple(Fraction(col[k], 4) for k in slots)
                     for col in INTEGRAL_BASES[self.basis_type])

    def to_json(self):
        return {
            "p": self.p,
            "q": self.q,
            "m": self.m,
            "s": self.s,
            "t": self.t,
            "m0": self.m0,
            "s0": self.s0,
            "t0": self.t0,
            "type": self.basis_type,
            "roles": list(self.roles),
        }

    def __repr__(self):
        return f"Q(sqrt({self.m}),sqrt({self.s}))"


def classify_field(p, q):
    """Canonical descriptor for the totally real biquadratic field Q(sqrt p, sqrt q)."""
    for v in (p, q):
        if v <= 1:
            raise OutOfRange(f"generator must exceed 1, got {v}")
        if not is_squarefree(v):
            raise NotSquarefree(f"{v} is not squarefree")
    if p == q:
        raise EqualGenerators(f"generators must be distinct, got {p} twice")
    g = gcd(p, q)
    r = p * q // (g * g)
    m, s, t = sorted((p, q, r))
    m0, s0, t0 = gcd(s, t), gcd(m, t), gcd(m, s)

    residues = {v: v % 4 for v in (m, s, t)}
    evens = sorted(v for v in (m, s, t) if residues[v] == 2)
    if evens:
        # Exactly two of the radicands are 2 mod 4; they take the p, r roles.
        q_role = next(v for v in (m, s, t) if residues[v] != 2)
        roles = (evens[0], q_role, evens[1])
        basis_type = "B1" if q_role % 4 == 3 else "B2"
    else:
        threes = sorted(v for v in (m, s, t) if residues[v] == 3)
        if threes:
            q_role = next(v for v in (m, s, t) if residues[v] == 1)
            roles = (threes[0], q_role, threes[1])
            basis_type = "B3"
        else:
            roles = (m, s, t)
            basis_type = "B4a" if t0 % 4 == 1 else "B4b"
    return BiquadraticField(
        p=p, q=q, m=m, s=s, t=t, m0=m0, s0=s0, t0=t0,
        basis_type=basis_type, roles=roles,
    )


class Element:
    """An exact field element: integer coordinates over a positive denominator."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field, num, den):
        self.field = field
        self.num = num
        self.den = den

    @staticmethod
    def make(field, num, den=1):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num, den = tuple(-v for v in num), -den
        g = den
        for v in num:
            g = gcd(g, v)
            if g == 1:
                break
        if g > 1:
            num = tuple(v // g for v in num)
            den //= g
        return Element(field, tuple(num), den)

    def _check(self, other):
        if not isinstance(other, Element):
            other = self.field.from_rational(other)
        elif other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        return other

    def __add__(self, other):
        other = self._check(other)
        d1, d2 = self.den, other.den
        num = tuple(a * d2 + b * d1 for a, b in zip(self.num, other.num))
        return Element.make(self.field, num, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        d1, d2 = self.den, other.den
        num = tuple(a * d2 - b * d1 for a, b in zip(self.num, other.num))
        return Element.make(self.field, num, d1 * d2)

    def __rsub__(self, other):
        return self._check(other) - self

    def __neg__(self):
        return Element(self.field, tuple(-v for v in self.num), self.den)

    def __mul__(self, other):
        other = self._check(other)
        num = self.field.mul_coords(self.num, other.num)
        return Element.make(self.field, num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Element):
            if not other.is_rational():
                raise FieldError("division only by nonzero rationals")
            other = other.as_rational()
        other = Fraction(other)
        if other == 0:
            raise ZeroDivisionError("division by zero")
        num = tuple(v * other.denominator for v in self.num)
        return Element.make(self.field, num, self.den * other.numerator)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.field.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def square(self):
        return self * self

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, Element):
            return NotImplemented
        return (
            self.field == other.field
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self):
        return hash((self.num, self.den))

    def is_zero(self):
        return all(v == 0 for v in self.num)

    def is_rational(self):
        return all(v == 0 for v in self.num[1:])

    def as_rational(self):
        if not self.is_rational():
            raise FieldError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def coords(self):
        """Coordinates in the power basis, as Fractions."""
        return tuple(Fraction(v, self.den) for v in self.num)

    def conjugate(self, i):
        return Element(self.field, self.field.conjugate(self.num, i), self.den)

    def conjugates(self):
        return tuple(self.conjugate(i) for i in range(self.field.degree))

    def abs_trace(self):
        """Trace divided by the degree: the rational coordinate."""
        return Fraction(self.num[0], self.den)

    def sign_at_embedding(self, i):
        return self.field.embedding_sign(self.num, i)

    def is_totally_nonnegative(self):
        return self.field.tnn_test(self.num)

    def is_totally_positive(self):
        # a nonzero element has no zero conjugate
        return not self.is_zero() and self.is_totally_nonnegative()

    def dominates(self, other):
        """self >= other in the total (semi-)ordering by all embeddings."""
        return (self - other).is_totally_nonnegative()

    def __str__(self):
        """The pretty form, such as 1 + 1/2*sqrt(2) - 1/2*sqrt(6); each
        coefficient is written as str of its Fraction."""
        names = ("",) + tuple(f"sqrt({r})" for r in self.field.radicands)
        out = ""
        for v, name in zip(self.num, names):
            if v == 0:
                continue
            mag = fraction_str(abs(v), self.den)
            if name == "":
                body = mag
            elif mag == "1":
                body = name
            else:
                body = f"{mag}*{name}"
            if out:
                out += f" {'-' if v < 0 else '+'} {body}"
            else:
                out = "-" + body if v < 0 else body
        return out or "0"

    def to_json(self):
        """The coordinates as the strings str(c) for c in coords(), plus
        the pretty form."""
        return {"coords": [fraction_str(v, self.den) for v in self.num],
                "pretty": str(self)}

    def __repr__(self):
        return f"<{self} in {self.field}>"
