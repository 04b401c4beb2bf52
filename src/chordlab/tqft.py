"""Positive-boundary two-dimensional TQFT over exact fields.

A finite-dimensional commutative Frobenius algebra without counit (unital
product m, cocommutative coproduct Delta that is a map of modules) determines
one operation per connected cobordism type: mu_{p,q}(g) : A^{tensor p} ->
A^{tensor q}, computed through the normal form

    mu_{p,q}(g) = Delta^(q-1) o H^g o m^(p-1),   H = m o Delta.

All arithmetic is exact: rationals (fractions.Fraction) or a prime field.
Matrices hold field elements, but the matrix products run on Python ints:
each entry of a product is one integer dot product, reduced once -- by one
% p over F_p, and over Q by one Fraction whose denominator is the lcm of
the denominators in its row of the left factor times the lcm of those in
its column of the right.  A zero entry of the left factor costs nothing,
and a zero sum is the field's shared zero, as _zeros, _identity and _kron
leave it, so over Q no Fraction is built for it.
Operations with q = 0 do not exist in a positive-boundary theory (the counit
is obstructed); counit_solve analyzes whether a counit happens to exist.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, repeat
from math import lcm
from operator import add, attrgetter, mul

from .errors import ChordLabError, NoOutgoing

__all__ = [
    "Rationals",
    "PrimeField",
    "FrobeniusAlgebra",
    "OperationMatrix",
    "AxiomReport",
    "check_axioms",
    "mu",
    "verify_gluing",
    "operation_from_diagram",
    "counit_solve",
    "degree_shift",
    "pd2",
    "st2",
    "zero_coproduct_algebra",
    "builtin_algebra",
]


# ---------------------------------------------------------------------------
# ground fields
# ---------------------------------------------------------------------------

_RATIONAL = re.compile(r"[+-]?(?:[0-9]+(?:/[0-9]+)?|[0-9]*\.[0-9]+|[0-9]+\.)")


@dataclass(frozen=True)
class Rationals:
    """Arbitrary-precision rational field; elements are Fraction."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def of(self, x) -> Fraction:
        return Fraction(x)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def parse(self, text: str) -> Fraction:
        # Fraction alone would also read exponents, and "1e1000000" is a
        # 3.3-Mbit number: only these forms cost in proportion to the text
        if not _RATIONAL.fullmatch(text):
            raise ValueError(f"not [+-]digits[/digits] or a decimal: {text!r}")
        return Fraction(text)

    def serialize(self, a) -> str:
        return str(Fraction(a))


# Miller-Rabin with the first 13 prime bases is deterministic below this
# bound, the least strong pseudoprime to all of them (Sorenson-Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin test, exact for 0 <= p < _MR_LIMIT."""
    if p < 2 or any(p % a == 0 for a in _MR_BASES):
        return p in _MR_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1     # p - 1 = d 2^s with d odd
    d = (p - 1) >> s
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x != 1 and all(pow(x, 1 << r, p) != p - 1 for r in range(s)):
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The field of integers modulo a prime; elements are ints in [0, p)."""

    p: int
    zero = 0
    one = 1

    def __post_init__(self):
        p = self.p
        if p >= _MR_LIMIT:
            raise ValueError(f"{p} is too large: primes below {_MR_LIMIT} only")
        if not _is_prime(p):
            raise ValueError(f"{p} is not prime")

    def __repr__(self):     # the dataclass's own would read PrimeField(p=5)
        return f"PrimeField({self.p})"

    @property
    def name(self) -> str:
        return f"F{self.p}"

    def of(self, x) -> int:
        if isinstance(x, Fraction):
            return self.mul(x.numerator % self.p, self.inv(x.denominator % self.p))
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def parse(self, text: str) -> int:
        return int(text) % self.p

    def serialize(self, a) -> str:
        return str(a % self.p)


# ---------------------------------------------------------------------------
# dense exact matrices (row-major lists of lists)
# ---------------------------------------------------------------------------

def _zeros(F, rows, cols):
    return [[F.zero] * cols for _ in range(rows)]

def _identity(F, n):
    M = _zeros(F, n, n)
    for i in range(n):
        M[i][i] = F.one
    return M

def _matmul(F, A, B):
    """A B.  Each entry is one sum of integer products, reduced once: by one
    % p over F_p; over Q, row i of A is scaled by r_i, the lcm of its
    denominators, and column j of B by c_j, so that entry (i, j) is one
    Fraction(sum, r_i c_j), or F.zero, shared, where the sum is 0."""
    assert len(A[0]) == len(B)
    if isinstance(F, PrimeField):
        reduce = F.p.__rmod__                                # x -> x % p
        return [list(map(reduce, s)) for s in _integer_rows(A, B)]
    r = [lcm(*map(_denominator, row)) for row in A]
    c = [lcm(*map(_denominator, col)) for col in zip(*B)]
    A_int = [list(map(_numerator, row)) if ri == 1 else
             [x.numerator * (ri // x.denominator) for x in row]
             for row, ri in zip(A, r)]
    B_int = ([[x.numerator * (cj // x.denominator) for x, cj in zip(row, c)]
              for row in B] if any(cj != 1 for cj in c) else
             [list(map(_numerator, row)) for row in B])
    zero = F.zero
    return [[(Fraction(n, ri * cj) if ri * cj != 1 else Fraction(n))
             if n else zero for n, cj in zip(s, c)]
            for s, ri in zip(_integer_rows(A_int, B_int), r)]

_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")

def _integer_rows(A, B):
    """The rows of the product of integer matrices A and B: each nonzero
    A[i][k] adds A[i][k] times row k of B, so a zero entry of A costs
    nothing."""
    inner, cols = range(len(B)), len(B[0])
    rows = []
    for row in A:
        s = None
        for k in compress(inner, row):
            terms = map(mul, repeat(row[k]), B[k])
            s = list(terms) if s is None else list(map(add, s, terms))
        rows.append([0] * cols if s is None else s)
    return rows

def _kron(F, A, B):
    """A (x) B, one plain product per pair of nonzero entries."""
    p = F.p if isinstance(F, PrimeField) else None
    cb = len(B[0])
    B_nonzero = [[(l, b) for l, b in enumerate(Bk) if b] for Bk in B]
    C = []
    for Ai in A:
        A_nonzero = [(j * cb, a) for j, a in enumerate(Ai) if a]
        for Bk in B_nonzero:
            row = [F.zero] * (len(Ai) * cb)
            for base, a in A_nonzero:
                for l, b in Bk:
                    row[base + l] = a * b if p is None else a * b % p
            C.append(row)
    return C


def _row_reduce(F, M, cols):
    """Gauss-Jordan elimination of M in place on its first cols columns;
    returns the pivot columns, row i holding the pivot of the i-th."""
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == len(M):
            break
        pivot = next((i for i in range(r, len(M)) if M[i][c] != F.zero), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        inv = F.inv(M[r][c])
        M[r] = [F.mul(inv, x) for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c] != F.zero:
                f = M[i][c]
                M[i] = [F.sub(x, F.mul(f, y)) for x, y in zip(M[i], M[r])]
        pivots.append(c)
    return pivots


def _solve(F, A, b):
    """One solution x of Ax = b over F by Gaussian elimination, or None."""
    cols = len(A[0])
    M = [list(row) + [bi] for row, bi in zip(A, b)]
    pivots = _row_reduce(F, M, cols)
    if any(row[cols] != F.zero for row in M[len(pivots):]):
        return None
    x = [F.zero] * cols
    for i, c in enumerate(pivots):
        x[c] = M[i][cols]
    return x


def _is_invertible(F, A):
    return len(_row_reduce(F, [list(row) for row in A], len(A))) == len(A)


# ---------------------------------------------------------------------------
# algebras
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FrobeniusAlgebra:
    """Commutative Frobenius algebra without counit over an exact field.

    product[i][j][k] is the e_k coefficient of e_i * e_j; coproduct[i][j][k]
    is the e_j (x) e_k coefficient of Delta(e_i); unit is the coefficient
    vector of 1.  degrees/ambient_n are optional grading data, all or none.
    """

    field_: object
    basis: tuple[str, ...]
    product: tuple            # d x d x d structure constants
    coproduct: tuple          # d x d x d structure constants
    unit: tuple
    degrees: tuple | None = None
    ambient_n: int | None = None

    def __post_init__(self):
        if (self.degrees is None) != (self.ambient_n is None) or (
                self.degrees is not None and len(self.degrees) != self.dim):
            raise ChordLabError(
                f"partial grading: degrees {self.degrees!r} and ambient_n "
                f"{self.ambient_n!r} for {self.dim} basis elements")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def m_matrix(self):
        """d x d^2 matrix of the product in the tensor basis."""
        F, d = self.field_, self.dim
        M = _zeros(F, d, d * d)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    M[k][i * d + j] = self.product[i][j][k]
        return M

    def delta_matrix(self):
        """d^2 x d matrix of the coproduct."""
        F, d = self.field_, self.dim
        M = _zeros(F, d * d, d)
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    M[j * d + k][i] = self.coproduct[i][j][k]
        return M

    def unit_matrix(self):
        """d x 1 matrix sending the field generator to the unit."""
        return [[u] for u in self.unit]


def _swap_matrix(F, d):
    M = _zeros(F, d * d, d * d)
    for i in range(d):
        for j in range(d):
            M[j * d + i][i * d + j] = F.one
    return M


@dataclass
class AxiomReport:
    passed: dict[str, bool] = field(default_factory=dict)
    witnesses: dict[str, tuple] = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(self.passed.values())


def _first_mismatch(A, B):
    for i, (ra, rb) in enumerate(zip(A, B)):
        for j, (a, b) in enumerate(zip(ra, rb)):
            if a != b:
                return (i, j, a, b)
    return None


def check_axioms(A: FrobeniusAlgebra) -> AxiomReport:
    """Verify the Frobenius axioms; on failure record a witness entry
    (matrix row, column, left value, right value)."""
    F, d = A.field_, A.dim
    m = A.m_matrix()
    D = A.delta_matrix()
    u = A.unit_matrix()
    I = _identity(F, d)
    swap = _swap_matrix(F, d)
    report = AxiomReport()

    def check(name, L, R):
        ok = L == R
        report.passed[name] = ok
        if not ok:
            report.witnesses[name] = _first_mismatch(L, R)

    check("associativity", _matmul(F, m, _kron(F, m, I)),
          _matmul(F, m, _kron(F, I, m)))
    check("commutativity", _matmul(F, m, swap), m)
    check("unit", _matmul(F, m, _kron(F, u, I)), I)
    check("coassociativity", _matmul(F, _kron(F, D, I), D),
          _matmul(F, _kron(F, I, D), D))
    check("cocommutativity", _matmul(F, swap, D), D)
    # Delta(a*b) = a*Delta(b) and Delta(a*b) = Delta(a)*b, acting on the
    # outer tensor factors
    dm = _matmul(F, D, m)
    check("module_left", dm,
          _matmul(F, _kron(F, m, I), _kron(F, I, D)))
    check("module_right", dm,
          _matmul(F, _kron(F, I, m), _kron(F, D, I)))

    if A.degrees is not None:
        n = A.ambient_n
        ok_m = all(
            A.product[i][j][k] == F.zero
            or A.degrees[i] + A.degrees[j] - n == A.degrees[k]
            for i in range(d) for j in range(d) for k in range(d)
        )
        ok_d = all(
            A.coproduct[i][j][k] == F.zero
            or A.degrees[j] + A.degrees[k] == A.degrees[i] - n
            for i in range(d) for j in range(d) for k in range(d)
        )
        report.passed["graded_product"] = ok_m
        report.passed["graded_coproduct"] = ok_d
    return report


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def degree_shift(p: int, q: int, g: int, n: int) -> int:
    """Degree change of mu_{p,q}(g) on a grading with ambient dimension n."""
    return -(2 * g - 2 + p + q) * n


@dataclass(frozen=True)
class OperationMatrix:
    p: int
    q: int
    genus: int
    matrix: tuple            # d^q rows x d^p columns
    degree_shift: int | None = None

    def rows(self):
        return [list(r) for r in self.matrix]


# the largest (g+1)*d^(p+q) mu accepts: the cells of its d^q x d^p result,
# once more for each of its g handle products (over Q the entries can still
# grow with g)
MU_CELL_BUDGET = 1 << 18

# the largest genus mu accepts over Q, where its entries grow with g: on a
# dense rank-8 algebra with constants drawn from -3..3 by about 6.4 bits per
# handle, so that mu_{0,1}(1000) takes 0.15-0.18 s and mu_{0,1}(64) 0.01 s
# (2-core box, Python 3.11)
MU_GENUS_BUDGET_Q = 64


def mu(A: FrobeniusAlgebra, p: int, q: int, g: int) -> OperationMatrix:
    """The operation of the connected genus-g cobordism from p to q circles.

    Computed as Delta^(q-1) o H^g o m^(p-1) with handle operator H = m o
    Delta.  q = 0 is rejected: a positive-boundary theory has no counit, so
    operations exist only for surfaces with at least one outgoing boundary.
    A call with (g+1)*d^(p+q) over MU_CELL_BUDGET, or over Q with g over
    MU_GENUS_BUDGET_Q, is refused before any matrix is built.
    """
    if q < 1:
        raise NoOutgoing(
            "mu_{p,0}(g) does not exist: every component of the surface must "
            "have a positive number of outgoing boundary components, and the "
            "would-be counit (disk on an outgoing circle) is obstructed"
        )
    if p < 0 or g < 0:
        raise ChordLabError("p and g must be non-negative")
    # d^L > MU_CELL_BUDGET for d >= 2 and L its bit length: no huge power
    if (g + 1) * A.dim ** min(p + q, MU_CELL_BUDGET.bit_length()) > MU_CELL_BUDGET:
        raise ChordLabError(
            f"mu_{{{p},{q}}}({g}): (g+1)*d^(p+q) = {g + 1}*{A.dim}^{p + q} is "
            f"over the matrix budget MU_CELL_BUDGET = {MU_CELL_BUDGET}")
    F = A.field_
    if g > MU_GENUS_BUDGET_Q and isinstance(F, Rationals):
        raise ChordLabError(
            f"mu_{{{p},{q}}}({g}): genus {g} over Q is over the genus budget "
            f"MU_GENUS_BUDGET_Q = {MU_GENUS_BUDGET_Q}")
    # each structure matrix is built once per call
    m, delta, identity = A.m_matrix(), A.delta_matrix(), _identity(F, A.dim)
    M = A.unit_matrix() if p == 0 else identity   # m^(p-1): A^(x)p -> A
    for _ in range(p - 1):
        M = _matmul(F, m, _kron(F, M, identity))
    H = _matmul(F, m, delta)
    for _ in range(g):
        M = _matmul(F, H, M)
    D = identity                                  # Delta^(q-1): A -> A^(x)q
    for _ in range(q - 1):
        D = _matmul(F, _kron(F, D, identity), delta)
    M = _matmul(F, D, M)
    shift = None
    if A.degrees is not None:
        shift = degree_shift(p, q, g, A.ambient_n)
    return OperationMatrix(
        p=p, q=q, genus=g,
        matrix=tuple(tuple(row) for row in M),
        degree_shift=shift,
    )


def verify_gluing(A, p, q, r, g1, g2):
    """Exact check of mu_{q,r}(g2) o mu_{p,q}(g1) = mu_{p,r}(g1+g2+q-1).

    Returns (True, None), or (False, witness): the first entry, in row
    order, where the two sides differ, as (row, column, left value, right
    value), the witness check_axioms records for a failed axiom.
    """
    lhs = _matmul(A.field_, mu(A, q, r, g2).rows(), mu(A, p, q, g1).rows())
    rhs = mu(A, p, r, g1 + g2 + q - 1).rows()
    if lhs == rhs:
        return True, None
    return False, _first_mismatch(lhs, rhs)


def operation_from_diagram(c: ChordDiagram, A: FrobeniusAlgebra) -> OperationMatrix:
    """The operation a chord diagram induces; it depends only on the type."""
    top = c.top_type()
    return mu(A, top.p, top.q, top.genus)


def counit_solve(A: FrobeniusAlgebra):
    """Solve (theta (x) id) o Delta = id for a counit theta.

    Returns (theta, pairing_nondegenerate) when a counit exists, else None.
    The pairing is theta o m.
    """
    F, d = A.field_, A.dim
    # unknowns theta_j; equations: sum_j coproduct[i][j][k] theta_j = delta_ik
    rows, rhs = [], []
    for i in range(d):
        for k in range(d):
            rows.append([A.coproduct[i][j][k] for j in range(d)])
            rhs.append(F.one if i == k else F.zero)
    theta = _solve(F, rows, rhs)
    if theta is None:
        return None
    # pairing[i][j] = sum_k product[i][j][k] theta_k: theta times m_matrix
    flat = _matmul(F, [list(theta)], A.m_matrix())[0]
    pairing = [flat[i * d:(i + 1) * d] for i in range(d)]
    return tuple(theta), _is_invertible(F, pairing)


# ---------------------------------------------------------------------------
# built-in algebras
# ---------------------------------------------------------------------------

def _constants(F, d, entries):
    """Dense d x d x d tuple from {(i,j,k): value}."""
    return tuple(
        tuple(
            tuple(F.of(entries.get((i, j, k), 0)) for k in range(d))
            for j in range(d)
        )
        for i in range(d)
    )


def _dual_numbers(field_, coproduct, **grading) -> FrobeniusAlgebra:
    """k[x]/(x^2) on the basis {1, x}, over field_ (default Q), with the
    coproduct of these {(i,j,k): value} constants and the given grading."""
    F = field_ or Rationals()
    return FrobeniusAlgebra(
        field_=F, basis=("1", "x"),
        product=_constants(F, 2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1}),
        coproduct=_constants(F, 2, coproduct), unit=(F.one, F.zero),
        **grading,
    )


def pd2(field_=None) -> FrobeniusAlgebra:
    """Rank-2 algebra {1, x}, x^2 = 0, Delta(1) = 1(x)x + x(x)1,
    Delta(x) = x(x)x.  Has a counit with nondegenerate pairing."""
    return _dual_numbers(field_, {(0, 0, 1): 1, (0, 1, 0): 1, (1, 1, 1): 1})


def st2(field_=None) -> FrobeniusAlgebra:
    """Graded rank-2 algebra {1 (deg 2), x (deg 0)}, x^2 = 0,
    Delta(1) = x(x)x, Delta(x) = 0, ambient dimension 2.  No counit."""
    return _dual_numbers(field_, {(0, 1, 1): 1}, degrees=(2, 0), ambient_n=2)


def zero_coproduct_algebra(field_=None) -> FrobeniusAlgebra:
    """pd2's algebra with Delta = 0; no counit can exist."""
    return _dual_numbers(field_, {})


# the builtin algebras by name, for builtin_algebra and the CLI
BUILTINS = {"pd2": pd2, "st2": st2, "zero": zero_coproduct_algebra}


def builtin_algebra(name: str, field_=None) -> FrobeniusAlgebra:
    if name not in BUILTINS:
        raise ChordLabError(f"unknown builtin algebra {name!r}")
    return BUILTINS[name](field_)
