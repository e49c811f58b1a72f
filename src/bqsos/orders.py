"""Orders: full-rank multiplicatively closed lattices in a quadratic or
biquadratic field, with exact membership tests via a Hermite normal form."""

from __future__ import annotations

import hashlib
from fractions import Fraction
from math import gcd

from .fields import (
    BadCongruence,
    BiquadraticField,
    Element,
    FieldError,
    FieldMismatch,
    QuadraticField,
    QuadraticOrderDescriptor,
    SquareN,
    squarefree_part,
)


class OrderError(FieldError):
    pass


class NotFullRank(OrderError):
    pass


class NotClosedWithinBudget(OrderError):
    pass


class NotAnOrder(OrderError):
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


class OrderLattice:
    """A subring lattice of full rank, canonically represented.

    The lattice is the set of integer combinations of `basis` columns;
    internally columns are integer vectors over the common denominator `den`.
    """

    def __init__(self, field, columns, label, _skip_checks=False):
        self.field = field
        dim = field.degree
        den = 1
        for col in columns:
            for v in col:
                den = den * Fraction(v).denominator // gcd(den, Fraction(v).denominator)
        int_cols = [
            [int(Fraction(v) * den) for v in col] for col in columns
        ]
        basis = hnf_columns(int_cols, dim)
        if len(basis) != dim:
            raise NotFullRank(
                f"lattice has rank {len(basis)}, expected {dim}"
            )
        # Canonicalize the scale.
        g = den
        for col in basis:
            for v in col:
                g = gcd(g, v)
        if g > 1:
            basis = [tuple(v // g for v in col) for col in basis]
            den //= g
        self.den = den
        self.basis = tuple(basis)
        self.label = label
        self._pivot_rows = tuple(
            next(i for i in range(dim) if col[i] != 0) for col in self.basis
        )
        if not _skip_checks:
            if not self.contains(field.one()):
                raise NotAnOrder("lattice does not contain 1")
            elems = self.basis_elements()
            for x in elems:
                for y in elems:
                    if not self.contains(x * y):
                        raise NotAnOrder(
                            f"lattice not closed under multiplication: {x} * {y}"
                        )

    def basis_elements(self):
        return tuple(
            Element.make(self.field, col, self.den) for col in self.basis
        )

    def contains_scaled(self, vec):
        """Membership of the element with coordinates vec / self.den."""
        v = list(vec)
        for col, row in zip(self.basis, self._pivot_rows):
            piv = col[row]
            if v[row] % piv:
                return False
            y = v[row] // piv
            if y:
                for i in range(row, len(v)):
                    v[i] -= y * col[i]
        return not any(v)

    def contains(self, x):
        if x.field != self.field:
            raise FieldMismatch(f"{x.field} vs {self.field}")
        if self.den % x.den:
            return False
        k = self.den // x.den
        return self.contains_scaled([v * k for v in x.num])

    def element(self, num, den=1):
        return Element.make(self.field, num, den)

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
    """The ring of integers, from the integral-basis table."""
    if isinstance(field, QuadraticField):
        if field.n % 4 == 1:
            cols = [(1, 0), (Fraction(1, 2), Fraction(1, 2))]
        else:
            cols = [(1, 0), (0, 1)]
        return OrderLattice(field, cols, "maximal")
    return OrderLattice(field, field.basis_matrix(), "maximal")


def custom_order(field, generators, label="custom"):
    """Smallest multiplication-closed lattice containing 1 and the generators."""
    elems = [field.one()] + list(generators)
    for x in elems:
        if x.field != field:
            raise FieldMismatch(f"{x.field} vs {field}")
    dim = field.degree
    current = None
    for _ in range(CLOSURE_ROUNDS):
        den = 1
        for x in elems:
            den = den * x.den // gcd(den, x.den)
        cols = [[v * (den // x.den) for v in x.num] for x in elems]
        basis = hnf_columns(cols, dim)
        g = den
        for col in basis:
            for v in col:
                g = gcd(g, v)
        if g > 1:
            basis = [tuple(v // g for v in col) for col in basis]
            den //= g
        key = (den, tuple(basis))
        basis_elems = [Element.make(field, col, den) for col in basis]
        if key == current:
            if len(basis) != dim:
                raise NotFullRank(
                    f"generators span rank {len(basis)}, expected {dim}"
                )
            return OrderLattice(field, [x.coords() for x in basis_elems], label)
        current = key
        products = [x * y for i, x in enumerate(basis_elems)
                    for y in basis_elems[i:]]
        elems = basis_elems + products
    raise NotClosedWithinBudget(
        f"lattice did not close under multiplication in {CLOSURE_ROUNDS} rounds"
    )


def quadratic_order(N):
    """The order Z[sqrt(N)] for a non-square N > 1."""
    desc = QuadraticOrderDescriptor(N=N, half=False)
    field = QuadraticField(desc.n)
    cols = [(1, 0), (0, desc.f)]
    return OrderLattice(field, cols, desc.label())


def quadratic_order_half(N):
    """The order Z[(1+sqrt(N))/2] for N = 1 mod 4, N > 1 non-square."""
    desc = QuadraticOrderDescriptor(N=N, half=True)
    field = QuadraticField(desc.n)
    cols = [(1, 0), (Fraction(1, 2), Fraction(desc.f, 2))]
    return OrderLattice(field, cols, desc.label())


def quadratic_maximal_order(n):
    """Ring of integers of Q(sqrt(n)) for squarefree n."""
    return maximal_order(QuadraticField(n))


def parse_order_description(desc, field, parse_element=None):
    """Order from its CLI text form: maximal, quad:N, quad-half:N or gen:...;...

    `parse_element` is needed only for the gen: form; it maps an expression
    string to an Element of `field`.
    """
    desc = desc.strip()
    if desc == "maximal":
        return maximal_order(field)
    if desc.startswith("quad:"):
        return quadratic_order(int(desc[5:]))
    if desc.startswith("quad-half:"):
        return quadratic_order_half(int(desc[10:]))
    if desc.startswith("gen:"):
        if parse_element is None:
            raise OrderError("no element parser supplied for gen: order")
        gens = [parse_element(part, field)
                for part in desc[4:].split(";") if part.strip()]
        return custom_order(field, gens, label=desc)
    raise OrderError(f"unrecognized order description: {desc!r}")


def root_product_order(field, M0, S0, T0):
    """The sublattice order Z + Z sqrt(S0*T0) + Z sqrt(M0*T0) + Z sqrt(M0*S0)."""
    gens = [field.sqrt_of(S0 * T0), field.sqrt_of(M0 * T0), field.sqrt_of(M0 * S0)]
    return custom_order(field, gens, label=f"Z[sqrt({S0*T0}),sqrt({M0*T0}),sqrt({M0*S0})]")
