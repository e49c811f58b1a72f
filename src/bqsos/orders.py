"""Orders: full-rank multiplicatively closed lattices in a quadratic or
biquadratic field, with exact membership tests via a Hermite normal form.

This module alone knows how a lattice is stored: integer columns in
Hermite normal form over one common denominator `den`, one canonical form
per lattice (see `_canonical`): `OrderLattice.basis`, which decides
membership, equality and the basis hash.  The square enumeration walks a
second basis of the lattice, `walk_basis`, the HNF with the power
coordinates reversed (see bqsos.decomposition).  An order converts
Elements to and from its scaled coordinates, the power-basis coordinates
times `den` (`OrderLattice.scaled`, `OrderLattice.unscale`), and
multiplies in them (`OrderLattice.mul_scaled`), so the hot paths
elsewhere work on integer tuples without knowing the format.  The maximal
order comes from the field's own integral-basis table (`basis_matrix` in
bqsos.fields).
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import gcd, isqrt, lcm

from .fields import (
    Element,
    FieldError,
    FieldMismatch,
    OutOfRange,
    QuadraticField,
    squarefree_part,
)
from .parser import parse_element


class OrderError(FieldError):
    pass


class NotFullRank(OrderError):
    pass


class NotClosedWithinBudget(OrderError):
    pass


class NotAnOrder(OrderError):
    pass


class SquareN(OrderError):
    pass


class BadCongruence(OrderError):
    pass


CLOSURE_ROUNDS = 16


def hnf_columns(cols, dim):
    """Column-style Hermite normal form of the lattice spanned by integer columns.

    Returns a list of pivot columns (lower triangular, positive pivots,
    entries right of a pivot reduced into [0, pivot)).  Zero columns are
    dropped; the result has one column per pivot row found.
    """
    work = [list(c) for c in cols]
    basis = []
    row = 0
    while row < dim and work:
        work = [c for c in work if any(c[row:])]
        pivots = [c for c in work if c[row] != 0]
        if not pivots:
            row += 1
            continue
        # Reduce all columns with a nonzero entry in this row to a single one.
        while len(pivots) > 1:
            pivots.sort(key=lambda c: abs(c[row]))
            a = pivots[0]
            for c in pivots[1:]:
                qf = c[row] // a[row]
                for i in range(row, dim):
                    c[i] -= qf * a[i]
            pivots = [c for c in work if c[row] != 0]
        piv = pivots[0]
        if piv[row] < 0:
            for i in range(dim):
                piv[i] = -piv[i]
        work.remove(piv)
        basis.append(piv)
        row += 1
    # Reduce earlier columns against later pivots for a canonical form.
    for j in range(len(basis)):
        for k in range(j + 1, len(basis)):
            piv_row = next(i for i in range(dim) if basis[k][i] != 0)
            qf = basis[j][piv_row] // basis[k][piv_row]
            if qf:
                for i in range(dim):
                    basis[j][i] -= qf * basis[k][i]
    return [tuple(c) for c in basis]


def _canonical(columns, dim):
    """(den, basis) of the lattice spanned by rational columns (ints or
    Fractions): the HNF of the integer columns over their common
    denominator, with den and basis divided by their gcd, so that equal
    lattices give equal pairs."""
    den = lcm(*(v.denominator for col in columns for v in col))
    basis = hnf_columns(
        [[v.numerator * (den // v.denominator) for v in col] for col in columns], dim
    )
    g = gcd(den, *(v for col in basis for v in col))
    return den // g, tuple(tuple(v // g for v in col) for col in basis)


class OrderLattice:
    """A subring lattice of full rank, canonically represented.

    The lattice is the set of integer combinations of `basis` columns;
    internally columns are integer vectors over the common denominator `den`.
    A full-rank HNF basis is lower triangular, so column i has its pivot in
    row i.  `basis` is the canonical form, read by membership, equality,
    hashing and `basis_hash` (so the level-cache file names).  `walk_basis`,
    the HNF of the same columns with their coordinates reversed, is the
    basis the square enumeration walks, largest radicand's coordinate
    first.
    """

    def __init__(self, field, columns, label):
        self.field = field
        self.label = label
        dim = field.degree
        self.den, self.basis = _canonical(columns, dim)
        if len(self.basis) != dim:
            raise NotFullRank(f"lattice has rank {len(self.basis)}, expected {dim}")
        self.walk_basis = tuple(hnf_columns([c[::-1] for c in self.basis], dim))
        if not self.contains(field.one()):
            raise NotAnOrder("lattice does not contain 1")
        for i, x in enumerate(self.basis):
            for y in self.basis[i:]:
                if not self.contains_scaled(self.mul_scaled(x, y)):
                    raise NotAnOrder(
                        "lattice not closed under multiplication: "
                        f"{self.unscale(x)} * {self.unscale(y)}"
                    )

    def basis_elements(self):
        return tuple(map(self.unscale, self.basis))

    def scaled(self, x):
        """The coordinates of x times den, or None if x is not in the lattice."""
        if x.field != self.field:
            raise FieldMismatch(f"{x.field} vs {self.field}")
        if self.den % x.den:
            return None
        k = self.den // x.den
        v = tuple(c * k for c in x.num)
        return v if self.contains_scaled(v) else None

    def unscale(self, v):
        """The Element with coordinates v / den."""
        return Element.make(self.field, v, self.den)

    def mul_scaled(self, x, y):
        """Scaled coordinates of the product of the elements with scaled
        coordinates x and y.

        No membership test: the product of two order elements lies in the
        order, and the closure check tests its products itself.  A product
        that is not even integral over den raises NotAnOrder."""
        D = self.den
        out = []
        for c in self.field.mul_coords(x, y):
            if c % D:
                raise NotAnOrder(
                    "lattice not closed under multiplication: "
                    f"{self.unscale(x)} * {self.unscale(y)}"
                )
            out.append(c // D)
        return tuple(out)

    def contains_scaled(self, vec):
        """Membership of the element with coordinates vec / self.den."""
        v = list(vec)
        for i, col in enumerate(self.basis):
            piv = col[i]
            if v[i] % piv:
                return False
            y = v[i] // piv
            if y:
                for k in range(i, len(v)):
                    v[k] -= y * col[k]
        return not any(v)

    def contains(self, x):
        return self.scaled(x) is not None

    def basis_hash(self):
        payload = repr((self.field.radicands, self.den, self.basis)).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def __eq__(self, other):
        return (
            isinstance(other, OrderLattice)
            and self.field == other.field
            and self.den == other.den
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.field, self.den, self.basis))

    def __repr__(self):
        return f"<order {self.label} in {self.field}>"


def maximal_order(field):
    """The ring of integers, from the field's integral-basis table."""
    return OrderLattice(field, field.basis_matrix(), "maximal")


def custom_order(field, generators, label="custom"):
    """Smallest multiplication-closed lattice containing 1 and the generators."""
    for x in generators:
        if x.field != field:
            raise FieldMismatch(f"{x.field} vs {field}")
    dim, mul = field.degree, field.mul_coords
    cols = [x.coords() for x in (field.one(), *generators)]
    current = None
    for _ in range(CLOSURE_ROUNDS):
        den, basis = _canonical(cols, dim)
        cols = [[Fraction(v, den) for v in col] for col in basis]
        if (den, basis) == current:
            if len(basis) != dim:
                raise NotFullRank(
                    f"generators span rank {len(basis)}, expected {dim}"
                )
            return OrderLattice(field, cols, label)
        current = den, basis
        cols += [[Fraction(v, den * den) for v in mul(x, y)]
                 for i, x in enumerate(basis) for y in basis[i:]]
    raise NotClosedWithinBudget(
        f"lattice did not close under multiplication in {CLOSURE_ROUNDS} rounds"
    )


def _conductor_and_radicand(N):
    """(f, n) with N = f**2 * n and n squarefree, for a non-square N > 1."""
    if N <= 1:
        raise OutOfRange(f"N must exceed 1, got {N}")
    if isqrt(N) ** 2 == N:
        raise SquareN(f"N must not be a perfect square, got {N}")
    return squarefree_part(N)


def quadratic_order(N):
    """The order Z[sqrt(N)] for a non-square N > 1."""
    f, n = _conductor_and_radicand(N)
    return OrderLattice(QuadraticField(n), [(1, 0), (0, f)], f"Z[sqrt({N})]")


def quadratic_order_half(N):
    """The order Z[(1+sqrt(N))/2] for N = 1 mod 4, N > 1 non-square."""
    f, n = _conductor_and_radicand(N)
    if N % 4 != 1:
        raise BadCongruence(f"half form needs N = 1 mod 4, got N = {N}")
    cols = [(1, 0), (Fraction(1, 2), Fraction(f, 2))]
    return OrderLattice(QuadraticField(n), cols, f"Z[(1+sqrt({N}))/2]")


def quadratic_maximal_order(n):
    """Ring of integers of Q(sqrt(n)) for squarefree n."""
    return maximal_order(QuadraticField(n))


def parse_order_description(desc, field):
    """Order from its CLI text form: maximal, quad:N, quad-half:N or
    gen:EXPR;EXPR;..., N in ASCII digits and each EXPR an element of
    `field` (see bqsos.parser)."""
    desc = desc.strip()
    if desc == "maximal":
        return maximal_order(field)
    for prefix, make_order in (("quad:", quadratic_order),
                               ("quad-half:", quadratic_order_half)):
        if desc.startswith(prefix):
            N = desc[len(prefix):].strip()
            if not (N.isascii() and N.isdigit()):
                raise OrderError(f"N of {prefix}N must be ASCII digits, got {desc!r}")
            return make_order(int(N))
    if desc.startswith("gen:"):
        gens = [parse_element(part, field)
                for part in desc[4:].split(";") if part.strip()]
        return custom_order(field, gens, label=desc)
    raise OrderError(f"unrecognized order description: {desc!r}")


def root_product_order(field, M0, S0, T0):
    """The sublattice order Z + Z sqrt(S0*T0) + Z sqrt(M0*T0) + Z sqrt(M0*S0)."""
    gens = [field.sqrt_of(S0 * T0), field.sqrt_of(M0 * T0), field.sqrt_of(M0 * S0)]
    return custom_order(field, gens, label=f"Z[sqrt({S0*T0}),sqrt({M0*T0}),sqrt({M0*S0})]")
