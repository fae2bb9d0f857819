"""Exact coefficient arithmetic: rationals, sparse multivariate polynomials,
and small dense matrices over them.

Scalars are `fractions.Fraction`: arbitrary precision, always reduced, with a
positive denominator, so equality of values is equality of representations.

A polynomial is stored against an explicit tuple of variable names, in one
form only, `_Pairs`: a dict mapping each exponent vector to a pair (n, d) of
integers, the coefficient n/d, nonzero, in lowest terms and with d > 0, so
each term has exactly the height of its `Fraction`.  Two polynomials are
mathematically equal exactly when their variables and pairs are equal,
which makes equality and hashing canonical.  `MultiPoly.terms` is the
`Fraction` view, made on first read: the sorted tuple of (exponent vector,
coefficient) pairs in descending graded-lexicographic order (total degree
first, then the exponent vector), which `str` reads; the scenario writer
reads the pairs in that order.

Polynomial matrices are nested tuples of `MultiPoly`, which `PolyMatrix`
wraps; `mat_mul` multiplies their entries' pairs, and it and `transpose`
take the column count, because a matrix with no rows stores none.  A
rational matrix is integer rows over one denominator.  `Fraction`
matrices appear only at the boundary: `det_frac`, `solve_fraction_free` and
`mat_inverse_frac` take them (or ints), and `mat_inverse_frac` returns
them.
The morphisms of `core` and the records of `geomech` check each field with
one grid check, `_check_grid`: the field is nested tuples (or a
`PolyMatrix`) with the lengths its ranks fix, and every entry is over the
expected variables.

Polynomial products and sums run on the pairs as they are stored.  One
kernel, `_sum_products`, forms a1*b1 + a2*b2 + ... in that form: each
exponent's product terms are summed as one integer ratio and reduced once,
and a term with the zero exponent (a unit diagonal, a scaling, a constant
term) multiplies without shifting an exponent.  `MultiPoly`'s arithmetic,
`mat_mul`, the minor tables of `_extend_minors` (so `PolyMatrix.det` and
`unimodular_inverse`), the block algebra of `core` and the generator's
coefficients in `scenario.random_poly` run on it, and read and build the
`_Pairs` of their polynomials directly: no `Fraction` is made between
their inputs and their outputs, and no term list is sorted.  There is
deliberately no shared denominator per polynomial or per block, although
one would make small generator inputs 20-33% faster here: with 32-digit
coefficients the common denominator is the lcm of all of them, and every
numerator grows to its size.  Composing two fully dense rank-3 morphisms with 8-term entries,
32-digit p/q coefficients and exponents up to 16 took 1.2-1.8 s with
per-term pairs (1.5-2.5 s with a `Fraction` per term), 19-23 s with one
denominator per polynomial and 113 s with one per block, on a 2-core host
under Python 3.11 (fraction-free arithmetic in lowest terms: von zur Gathen
& Gerhard, *Modern Computer Algebra*, ch. 9).

Every polynomial value at a rational point comes from one evaluator,
`_EvalPlan`, which gives a list of polynomial matrices at a point as integer
rows over one shared denominator.  `PolyMatrix`, the morphisms of `core` and
the records of `geomech` and `forms` each cache one plan, built on first
use, and hand its rows on without making a `Fraction`; `MultiPoly.eval`
makes a `Fraction` from them.  A plan's integers grow
with the highest exponent of each coordinate.  Polynomials here take any
degree; it is the scenario parser that caps the exponents of outside input.

Polynomial determinants come from one minor table, built row by row over
column bitmasks: level k maps each k-subset S of the columns to the nonzero
minor det(rows[:k] x S), and each new minor is one sum of products over the
level before.  A dense n x n determinant thus takes n 2^(n-1) polynomial
products, not the factorial count of Laplace expansion.  `PolyMatrix.det` is
the full-mask entry.  `unimodular_inverse` inverts a matrix whose
determinant is a nonzero constant as its adjugate over that constant, and
reads each cofactor from the table over the other rows; a determinant whose
values at the origin and at (1, ..., 1) differ is rejected first, by
`_corner_dets`, which clears each row of those values by one lcm and hands
the integer rows to `_bareiss`.  Every other determinant, inverse and
linear solve is done on rationals by that one routine (`det_frac`,
`solve_fraction_free`, `mat_inverse_frac`, the block inverse `_adjugate`,
the one-column solve of `duality`'s dual morphism `apply`, and
`_identically_singular`, the determinant certificate of the scenario
reader's morphism blocks and of `geomech.Metric`, read it), and it alone
turns their rows into integers: it clears each row's denominators, divides
the row by its gcd and eliminates these primitive rows fraction-free
(Bareiss), so the pivots stay within their Hadamard bound (von zur Gathen
& Gerhard, ch. 5 and 9).  A plan's rows share one denominator per record:
on `tools/worst_case.py`'s dense8t3 it has 5,745 digits where no primitive
row entry has more than 755, and eliminating them unreduced made `dvb check
third-dual` 30x slower.

Every random integer the library draws follows the stdlib's `randrange`
rule, so it gives the values and leaves the rng state of `randint`.  Two
loops read `rng.getrandbits` by it: `_draw`, over integer spans, and the one
pair loop `_draw_sample`, which draws a whole sample of rationals p/q in one
call, a chart point of `Fraction`s and then one slot vector per length, and
places each pair, divided by its gcd, on its vector's running lcm as it is
drawn.  `random_tuple`, the scenario generators and the one sampler of
every sampled check, `core._Sampler`, are wrappers over it.

Every number the library reads from text comes through one reader,
`_read_pair`, in the scenario writer's grammar only: an int below
10**_MAX_DIGITS in size, or the ASCII text `-?D` or `-?D/D`, D a run of 1 to
_MAX_DIGITS digits, read with `int` and one gcd.  Any other text (a decimal,
an exponent form, `+`, `_`, whitespace, non-ASCII digits) raises
ValueError, and so does a longer run, before any integer is built from it.
The scenario parser reads coefficients with it, and `parse_number`, its
`Fraction` wrapper, reads the command line's coordinates.  `rat` reads a
string with it, under the same cap, so text given to `Chart.point`, element
slots, `fiber_scale`, `MultiPoly.const` and `scale` or the forms is read as
a scenario coefficient is; it takes ints and `Fraction`s as they are, and
raises TypeError for a bool, as for a float.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm, prod
from operator import add, getitem, mul
from typing import Sequence

Exponent = tuple[int, ...]
Point = tuple[Fraction, ...]
FracMatrix = tuple[tuple[Fraction, ...], ...]


class SingularMatrixError(ArithmeticError):
    """Raised when a linear solve or inversion meets a singular matrix."""


# A number read from text, a scenario coefficient, a --point/--outer
# coordinate or a string given to `rat`, has at most _MAX_DIGITS decimal
# digits in its numerator and in its denominator.  `dvb gen` wrote at most 7
# over 480 sampled files.  At 32, the longest integer that `dvb dualize
# --point` prints for the largest rank-8 file `dvb gen` draws, with every
# coefficient and coordinate at the cap, has about 2700 digits, below the
# interpreter's 4300-digit limit on int-to-text conversion; the count grows
# with the cap.
_MAX_DIGITS = 32
_DIGIT_BOUND = 10**_MAX_DIGITS
_TOO_LONG = f"more than {_MAX_DIGITS} digits in the numerator or denominator"
_NOT_A_NUMBER = "not an integer n or a fraction n/d"
# The form the writer gives a coefficient, `n` or `n/d`: its runs are below
# the digit cap, so a match needs no cap check.  The uncapped form only picks
# the message of a text the capped one misses.
_PLAIN_NUMBER = re.compile(f"(-?[0-9]{{1,{_MAX_DIGITS}}})(?:/([0-9]{{1,{_MAX_DIGITS}}}))?")
_LONG_NUMBER = re.compile("-?[0-9]+(?:/[0-9]+)?")


def _read_pair(raw: int | str) -> tuple[int, int]:
    """The reduced pair (n, d), d > 0, of the number `parse_number` reads.

    Raises ValueError when `raw` is not in the writer's grammar or has more
    than _MAX_DIGITS digits in a run, and ZeroDivisionError for a zero
    denominator.
    """
    if type(raw) is str:
        match = _PLAIN_NUMBER.fullmatch(raw)
        if not match:
            raise ValueError(_TOO_LONG if _LONG_NUMBER.fullmatch(raw) else _NOT_A_NUMBER)
        num, den = match.groups()
        if den is None:
            return int(num), 1
        n, d = int(num), int(den)
        if not d:
            raise ZeroDivisionError(f"Fraction({n}, 0)")
        g = gcd(n, d)
        return n // g, d // g
    if type(raw) is int and -_DIGIT_BOUND < raw < _DIGIT_BOUND:
        return raw, 1
    raise ValueError(_TOO_LONG if type(raw) is int else _NOT_A_NUMBER)


def parse_number(raw: int | str) -> Fraction:
    """The exact value of an integer, or of the text `n` or `n/d`, under the
    digit cap; `_read_pair` says what it raises."""
    return _fraction(*_read_pair(raw))


def rat(value: int | str | Fraction) -> Fraction:
    """An int or a `Fraction` as an exact rational, and text as
    `parse_number` reads it; a bool, a float or any other value raises
    TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and type(value) is not bool:
        return Fraction(value)
    if isinstance(value, str):
        return parse_number(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def _span(lo: int, hi: int) -> tuple[int, int, int]:
    """The draw span of [lo, hi]: its lower end, width and width in bits."""
    width = hi - lo + 1
    return lo, width, width.bit_length()


def _draw(rng: random.Random, spans) -> list[int]:
    """One integer per `_span` in `spans`, drawn in order.

    This is the stdlib's own rule for `randrange`: take k = width.bit_length()
    bits from `rng.getrandbits`, redraw while the value is at least the
    width, then add the lower end.  So the values, and the state of `rng`
    afterwards, are exactly those of `rng.randint(lo, hi)` for each span in
    turn, without its four Python frames per integer.
    """
    getrandbits = rng.getrandbits
    out = []
    append = out.append
    for lo, width, k in spans:
        r = getrandbits(k)
        while r >= width:
            r = getrandbits(k)
        append(lo + r)
    return out


def _randint(rng: random.Random, lo: int, hi: int) -> int:
    """`rng.randint(lo, hi)`, through `_draw`."""
    return _draw(rng, (_span(lo, hi),))[0]


def _fraction(n: int, d: int) -> Fraction:
    """n/d as a `Fraction`, for n and d already in lowest terms with d > 0:
    its two slots are set as `Fraction` itself sets them, without a second
    gcd, which costs as much as the kernel's own on a long coefficient."""
    f = object.__new__(Fraction)
    f._numerator, f._denominator = n, d
    return f


def _draw_sample(rng: random.Random, bound: int, dim: int, lengths) -> list:
    """A chart point of `dim` rationals p/q as `Fraction`s, then one slot
    vector per length.  Each p is drawn from [-bound, bound] and then its q
    from [1, bound] by `_draw`'s rule, and the pair is divided by its gcd.  A
    slot vector (nums, den) places each pair on the running lcm den of its
    denominators, so it ends in lowest terms, a zero vector over 1: for each
    prime of den, the q holding its full power has a numerator p (den / q)
    that the prime does not divide."""
    getrandbits, width = rng.getrandbits, 2 * bound + 1
    kp, kq = width.bit_length(), bound.bit_length()
    # an empty `out` marks the point, the first vector; a point chart has ()
    out = [] if dim else [()]
    for n in (dim, *lengths) if dim else lengths:
        vec, den = [], 1
        for _ in range(n):
            r = getrandbits(kp)
            while r >= width:
                r = getrandbits(kp)
            p = r - bound
            q = getrandbits(kq) + 1
            while q > bound:
                q = getrandbits(kq) + 1
            g = gcd(p, q)
            p, q = p // g, q // g
            if not out:
                vec.append(_fraction(p, q))
            elif not vec:
                vec, den = [p], q
            else:
                if den % q:
                    m = q // gcd(den, q)
                    for i in range(len(vec)):
                        vec[i] *= m
                    den *= m
                vec.append(p * (den // q))
        out.append((tuple(vec), den) if out else tuple(vec))
    return out


def random_tuple(rng: random.Random, n: int, bound: int = 7) -> tuple[Fraction, ...]:
    return _draw_sample(rng, bound, n, ())[0]


def _term_key(item: tuple[Exponent, Fraction]) -> tuple[int, Exponent]:
    exps, _ = item
    return (sum(exps), exps)


class _Pairs(dict):
    """A polynomial in the kernel's form: exponent -> (n, d), every
    coefficient n/d nonzero, in lowest terms and with d > 0.  `+` and unary
    `-` act on it as on `MultiPoly`, so the block algebra of `core` takes its
    entries as they are."""

    __slots__ = ()

    def __add__(self, other: _Pairs) -> _Pairs:
        out = _Pairs(self)
        get = out.get
        for e, (n, d) in other.items():
            prev = get(e)
            if prev is None:
                out[e] = n, d
                continue
            pn, pd = prev
            g = gcd(pd, d)
            n, d = pn * (d // g) + n * (pd // g), pd // g * d
            if n:
                g = gcd(n, g)
                out[e] = n // g, d // g
            else:
                del out[e]
        return out

    def __neg__(self) -> _Pairs:
        return _Pairs({e: (-n, d) for e, (n, d) in self.items()})


def _constant(nvars: int, c: Fraction) -> _Pairs:
    """The constant c over `nvars` variables, as pairs."""
    return _Pairs({(0,) * nvars: (c.numerator, c.denominator)} if c else {})


@dataclass(frozen=True)
class MultiPoly:
    """Sparse polynomial with rational coefficients over named variables.

    It holds its variables and its `_Pairs`; `terms` is the sorted tuple of
    (exponents, `Fraction`) made from them on first read.  The `_Pairs` of a
    polynomial is shared with the polynomials, matrices and morphism blocks
    built from it (`transpose` and the block algebra pass entries on), so
    nothing may mutate it.  Equality and hashing compare (vars, pairs).
    """

    vars: tuple[str, ...]
    _pairs: _Pairs

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self._pairs.items())))

    @cached_property
    def terms(self) -> tuple[tuple[Exponent, Fraction], ...]:
        terms = [(e, _fraction(n, d)) for e, (n, d) in self._pairs.items()]
        terms.sort(key=_term_key, reverse=True)
        return tuple(terms)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(vars: Sequence[str]) -> MultiPoly:
        return MultiPoly(tuple(vars), _Pairs())

    @staticmethod
    def const(vars: Sequence[str], value: Fraction | int | str) -> MultiPoly:
        vt = tuple(vars)
        return MultiPoly(vt, _constant(len(vt), rat(value)))

    @staticmethod
    def var(vars: Sequence[str], name: str) -> MultiPoly:
        vt = tuple(vars)
        if name not in vt:
            raise ValueError(f"unknown variable {name!r}; have {vt}")
        exps = tuple(1 if v == name else 0 for v in vt)
        return MultiPoly(vt, _Pairs({exps: (1, 1)}))

    # -- helpers -----------------------------------------------------------

    def _check_compatible(self, other: MultiPoly) -> None:
        if self.vars != other.vars:
            raise ValueError(
                f"variable lists differ: {self.vars} vs {other.vars}"
            )

    @property
    def is_zero(self) -> bool:
        return not self._pairs

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: MultiPoly) -> MultiPoly:
        self._check_compatible(other)
        return MultiPoly(self.vars, self._pairs + other._pairs)

    def __sub__(self, other: MultiPoly) -> MultiPoly:
        return self + (-other)

    def __neg__(self) -> MultiPoly:
        return MultiPoly(self.vars, -self._pairs)

    def __mul__(self, other: MultiPoly) -> MultiPoly:
        """The product of two polynomials; a scalar goes through `scale`."""
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_compatible(other)
        return MultiPoly(self.vars, _sum_products(((self._pairs, other._pairs),)))

    def scale(self, factor: Fraction | int | str) -> MultiPoly:
        f = _constant(len(self.vars), rat(factor))
        return MultiPoly(self.vars, _sum_products(((self._pairs, f),)))

    def partial(self, name: str) -> MultiPoly:
        """Formal partial derivative with respect to one variable."""
        if name not in self.vars:
            raise ValueError(f"unknown variable {name!r}; have {self.vars}")
        idx = self.vars.index(name)
        # distinct exponents stay distinct, and n k / d needs only gcd(k, d)
        out = _Pairs()
        for e, (n, d) in self._pairs.items():
            k = e[idx]
            if k:
                g = gcd(k, d)
                out[e[:idx] + (k - 1,) + e[idx + 1 :]] = n * (k // g), d // g
        return MultiPoly(self.vars, out)

    def eval(self, point: Sequence[Fraction | int | str]) -> Fraction:
        """Evaluate at a rational point given in variable order: one plan entry."""
        return _frac_rows(PolyMatrix(self.vars, ((self,),)).eval_ints(point))[0][0]

    def compose(self, images: Sequence[MultiPoly]) -> MultiPoly:
        """Substitute one polynomial per variable; images share a variable list."""
        if len(images) != len(self.vars):
            raise ValueError(
                f"{len(images)} images for {len(self.vars)} variables"
            )
        if not images:
            # Constant polynomial over no variables keeps its value.
            return self
        target = images[0].vars
        for img in images:
            if img.vars != target:
                raise ValueError("images use differing variable lists")
        # sum over the terms c x^e of c times the product of the images' powers
        zero = (0,) * len(target)
        products = []
        for e, pair in self._pairs.items():
            term = _Pairs({zero: (1, 1)})
            for img, k in zip(images, e):
                for _ in range(k):
                    term = _sum_products(((term, img._pairs),))
            products.append((_Pairs({zero: pair}), term))
        return MultiPoly(target, _sum_products(products))

    def extend(self, vars: Sequence[str]) -> MultiPoly:
        """Embed into a superset variable list (by name)."""
        vt = tuple(vars)
        pos = []
        for v in self.vars:
            if v not in vt:
                raise ValueError(f"variable {v!r} missing from {vt}")
            pos.append(vt.index(v))
        out = _Pairs()
        for e, pair in self._pairs.items():
            ne = [0] * len(vt)
            for p, k in zip(pos, e):
                ne[p] = k
            out[tuple(ne)] = pair
        return MultiPoly(vt, out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            factors = []
            if c != 1 or not any(e):
                factors.append(str(c))
            for name, k in zip(self.vars, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            parts.append("*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")


def _sum_products(pairs) -> _Pairs:
    """The sum of a * b over (a, b) pairs of kernel-form polynomials.

    Each exponent's product terms are summed as one unreduced integer ratio
    over the lcm of their denominators, and reduced once at the end.
    """
    acc: dict[Exponent, tuple[int, int]] = {}
    get = acc.get
    for a, b in pairs:
        if not a or not b:
            continue
        if len(a) < len(b):
            a, b = b, a
        # a zero exponent (None here) shifts no exponent
        right = [(e2 if any(e2) else None, n2, d2) for e2, (n2, d2) in b.items()]
        for e1, (n1, d1) in a.items():
            for e2, n2, d2 in right:
                e = e1 if e2 is None else tuple(map(add, e1, e2))
                prev = get(e)
                if prev is None:
                    acc[e] = n1 * n2, d1 * d2
                else:
                    pn, pd = prev
                    d = d1 * d2
                    if pd == d:
                        acc[e] = pn + n1 * n2, d
                    else:
                        g = gcd(pd, d)
                        acc[e] = pn * (d // g) + n1 * n2 * (pd // g), pd // g * d
    out = _Pairs()
    for e, (n, d) in acc.items():
        if n:
            g = gcd(n, d)
            out[e] = n // g, d // g
    return out


def _coords(point: Sequence[Fraction | int | str], n: int) -> Point:
    """A point of n exact coordinates (ints, Fractions, text `rat` reads)."""
    if len(point) != n:
        raise ValueError(f"point arity {len(point)} does not match {n} variables")
    return tuple(map(rat, point))


class _EvalPlan:
    """Integer evaluation of polynomial matrices at rational points.

    Every entry of every matrix is held as integer coefficients over one
    common coefficient denominator D, against the list of the distinct
    monomials of all entries, with M_i the highest exponent of coordinate i.
    At x with x_i = n_i/d_i each monomial is

        x^e = prod_i n_i^e_i d_i^(M_i - e_i) / prod_i d_i^M_i,

    so `at` evaluates each distinct monomial once, as that integer
    numerator, and every entry is one integer sum over the shared
    denominator D prod_i d_i^M_i: no rational addition and no gcd per entry.
    The power table of a coordinate holds only the exponents that occur,
    and a coordinate that does not occur is left out: an entry x1^k costs
    one table entry, not k + 1.
    """

    __slots__ = ("monomials", "powers", "den", "matrices", "last")

    def __init__(self, matrices, dim: int):
        polys = [p._pairs for m in matrices for row in m for p in row]
        index: dict[Exponent, int] = {}
        for pairs in polys:
            for e in pairs:
                index.setdefault(e, len(index))
        used = [i for i in range(dim) if any(e[i] for e in index)]
        self.monomials = tuple(tuple([e[i] for i in used]) for e in index)
        self.powers = tuple(
            (i, max(ks), tuple(ks))
            for i, ks in ((i, {e[i] for e in index}) for i in used)
        )
        self.den = den = lcm(*[d for pairs in polys for _, d in pairs.values()])

        def entry(p: MultiPoly):
            return (
                tuple([index[e] for e in p._pairs]),
                tuple([n * (den // d) for n, d in p._pairs.values()]),
            )

        self.matrices = tuple(
            tuple(tuple([entry(p) for p in row]) for row in m) for m in matrices
        )
        self.last = None, None

    def at(self, point: Point, tail: tuple[Sequence[int], int] = ((), 1)):
        """Each matrix as integer rows over the one shared denominator, at the
        tuple `point` (Fractions or ints) followed by `tail`, integers over one
        positive denominator (a fiber point's slot vector in `core`).  The
        values at the last point are kept: sampled checks ask for one point
        several times in a row."""
        key, values = self.last
        if key != (point, tail):
            values = self._evaluate(point, tail)
            self.last = (point, tail), values
        return values

    def _evaluate(self, point: Point, tail):
        tables = []
        den = self.den
        cut = len(point)
        for i, top, ks in self.powers:
            if i < cut:
                n, d = point[i].numerator, point[i].denominator
            else:
                n, d = tail[0][i - cut], tail[1]
                g = gcd(n, d)
                n, d = n // g, d // g
            tables.append({k: n**k * d ** (top - k) for k in ks})
            den *= d**top
        value = [prod(map(getitem, tables, e)) for e in self.monomials].__getitem__
        return tuple(
            (
                tuple(
                    tuple([sum(map(mul, coeffs, map(value, idx))) for idx, coeffs in row])
                    for row in m
                ),
                den,
            )
            for m in self.matrices
        )


def _frac_rows(m) -> FracMatrix:
    """An integer matrix over one denominator as rows of `Fraction`s."""
    rows, den = m
    return tuple(tuple([Fraction(n, den) for n in row]) for row in rows)


# ---------------------------------------------------------------------------
# Nested-tuple matrices: the polynomial product and rational elimination


def mat_mul(a, b, cols: int):
    """Product of nested-tuple matrices of kernel-form polynomials.

    `b` has `len(b)` rows and `cols` columns; the width is passed in because
    a matrix with no rows stores none.  Each entry is one `_sum_products`.
    """
    k = len(b)
    if any(len(row) != k for row in a) or any(len(row) != cols for row in b):
        raise ValueError("matrix shape mismatch in product")
    columns = transpose(b, cols)
    return tuple(tuple([_sum_products(zip(row, col)) for col in columns]) for row in a)


def transpose(a, cols: int):
    """Transpose of a nested-tuple matrix with `cols` columns."""
    return tuple(tuple(row[j] for row in a) for j in range(cols))


def _bareiss(matrix, columns):
    """Fraction-free (Bareiss) elimination of [matrix | columns], matrix square.

    Each augmented row of ints or `Fraction`s is scaled by the lcm of its
    denominators and divided by its gcd, so every division is exact.
    Returns (d, c, s, solutions): d is the last pivot with the sign of each
    row swap, c and s the lists of the rows' gcds and scales, so that
    det(matrix) = d prod(c) / prod(s) (only a determinant needs the
    products, which grow with the rows' own size), and for each column the
    integers y with matrix (y / d) = column (by Cramer's rule each is an
    integer).  A singular matrix has d = 0; with a column to solve for it
    raises SingularMatrixError.
    """
    n = len(matrix)
    if any(len(row) != n for row in matrix) or any(len(col) != n for col in columns):
        raise ValueError("solve requires a square matrix and matching rhs")
    rows: list[list[int]] = []
    contents, scales = [], []
    for i, row in enumerate(matrix):
        entries = [*row, *[col[i] for col in columns]]
        scale = lcm(*[x.denominator for x in entries])
        ints = [x.numerator * (scale // x.denominator) for x in entries]
        content = gcd(*ints) or 1
        rows.append([v // content for v in ints])
        contents.append(content)
        scales.append(scale)

    width = n + len(columns)
    sign, prev = 1, 1
    for k in range(n):
        if rows[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if rows[i][k] != 0), None)
            if pivot is None:
                if columns:
                    raise SingularMatrixError("singular matrix in fraction-free solve")
                return 0, contents, scales, []
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top = rows[k]
        for row in rows[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, width):
                row[j] = (row[j] * top[k] - lead * top[j]) // prev
        prev = top[k]

    solutions = []
    for col in range(n, width):
        y = [0] * n
        for i in reversed(range(n)):
            row = rows[i]
            y[i] = (prev * row[col] - sum(row[j] * y[j] for j in range(i + 1, n))) // row[i]
        solutions.append(tuple([sign * v for v in y]))
    return sign * prev, contents, scales, solutions


def det_frac(matrix: Sequence[Sequence[Fraction]]) -> Fraction:
    """Exact determinant of a square rational matrix."""
    if any(len(row) != len(matrix) for row in matrix):
        raise ValueError("determinant of a non-square matrix")
    d, contents, scales, _ = _bareiss(matrix, ())
    return Fraction(d * prod(contents), prod(scales))


# The witness points of the determinant certificate: _WITNESS, distinct
# non-integer rationals with x_i the i-th entry, then its rotations by one
# to three places, so no two witnesses share a value at any coordinate.
# Each is cut to the matrix's variable count; a scenario's chart has at
# most eight coordinates, and a longer chart built through the API repeats
# the entries in turn.
_WITNESS = (
    Fraction(3, 7), Fraction(-5, 11), Fraction(7, 13), Fraction(-11, 17),
    Fraction(13, 19), Fraction(-17, 23), Fraction(19, 29), Fraction(-23, 31),
)
_WITNESSES = tuple(_WITNESS[k:] + _WITNESS[:k] for k in range(4))


def _identically_singular(m: PolyMatrix) -> bool:
    """Whether the determinant of a square polynomial matrix vanishes at
    every point of _WITNESSES.

    A nonzero value at one rational point proves that the determinant is not
    the zero polynomial: this is the Schwartz-Zippel argument used as a
    one-sided certificate.  Each witness costs one Bareiss elimination, on
    primitive rows, of the block's values there, read from the one plan of a
    copy so that the block keeps no plan, and the first nonzero value ends
    the search.  A nonzero determinant vanishes only on a hypersurface, which
    may pass through all the witnesses, so True does not prove it zero; no
    symbolic determinant is computed either way.
    """
    copy, dim = PolyMatrix(m.vars, m.entries), len(m.vars)
    points = (tuple(w[i % len(w)] for i in range(dim)) for w in _WITNESSES)
    return not any(_bareiss(copy.eval_ints(x)[0], ())[0] for x in points)


def solve_fraction_free(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Solve a square rational system exactly by fraction-free elimination.

    Raises SingularMatrixError when the matrix is singular.
    """
    d, _, _, (y,) = _bareiss(matrix, (rhs,))
    return tuple(Fraction(v, d) for v in y)


def _adjugate(m) -> tuple[tuple[tuple[int, ...], ...], int]:
    """A block (rows, den) inverted as rows over d > 0: one elimination of [rows | den I]."""
    (rows, den), n = m, len(m[0])
    d, _, _, columns = _bareiss(rows, [[den * (i == j) for i in range(n)] for j in range(n)])
    return tuple(tuple([v if d > 0 else -v for v in row]) for row in zip(*columns)), abs(d)


def mat_inverse_frac(a: FracMatrix) -> FracMatrix:
    """Exact inverse of a square rational matrix: one elimination of [a | I]."""
    return _frac_rows(_adjugate((a, 1)))


# ---------------------------------------------------------------------------
# Polynomial matrices


@dataclass(frozen=True)
class PolyMatrix:
    """Dense matrix of MultiPoly entries over one shared variable list."""

    vars: tuple[str, ...]
    entries: tuple[tuple[MultiPoly, ...], ...]

    def __post_init__(self) -> None:
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged polynomial matrix")
        for row in self.entries:
            for p in row:
                if p.vars != self.vars:
                    raise ValueError(
                        f"entry variables {p.vars} differ from matrix {self.vars}"
                    )

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @staticmethod
    def build(vars: Sequence[str], rows: int, cols: int, fn) -> PolyMatrix:
        vt = tuple(vars)
        return PolyMatrix(
            vt, tuple(tuple(fn(i, j) for j in range(cols)) for i in range(rows))
        )

    @staticmethod
    def zero(vars: Sequence[str], rows: int, cols: int) -> PolyMatrix:
        z = MultiPoly.zero(vars)
        return PolyMatrix.build(vars, rows, cols, lambda i, j: z)

    @staticmethod
    def identity(vars: Sequence[str], n: int) -> PolyMatrix:
        one = MultiPoly.const(vars, 1)
        z = MultiPoly.zero(vars)
        return PolyMatrix.build(vars, n, n, lambda i, j: one if i == j else z)

    @staticmethod
    def constant(vars: Sequence[str], rows) -> PolyMatrix:
        vt = tuple(vars)
        return PolyMatrix(
            vt, tuple(tuple(MultiPoly.const(vt, x) for x in row) for row in rows)
        )

    def __neg__(self) -> PolyMatrix:
        return PolyMatrix.build(
            self.vars, self.rows, self.cols, lambda i, j: -self.entries[i][j]
        )

    @staticmethod
    def _of_pairs(vars: tuple[str, ...], rows) -> PolyMatrix:
        """The matrix whose entries hold the `_Pairs` of `rows` as they are."""
        return PolyMatrix(vars, tuple(tuple([MultiPoly(vars, p) for p in row]) for row in rows))

    @property
    def _pairs(self):
        """The entries' own `_Pairs`, row by row, as the kernel takes them."""
        return tuple(tuple([p._pairs for p in row]) for row in self.entries)

    def __mul__(self, other: PolyMatrix) -> PolyMatrix:
        product = mat_mul(self._pairs, other._pairs, other.cols)
        return PolyMatrix._of_pairs(self.vars, product)

    def transpose(self) -> PolyMatrix:
        return PolyMatrix(self.vars, transpose(self.entries, self.cols))

    @cached_property
    def _plan(self) -> _EvalPlan:
        """The evaluation plan of the entries, built on first use."""
        return _EvalPlan((self.entries,), len(self.vars))

    def eval_ints(self, point: Sequence[Fraction | int | str]):
        """The entries at a point, as integer rows over one denominator."""
        return self._plan.at(_coords(point, len(self.vars)))[0]

    def det(self) -> MultiPoly:
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        minors = _extend_minors(_unit_table(len(self.vars)), self._pairs)
        return MultiPoly(self.vars, minors.get((1 << self.rows) - 1, _Pairs()))

    def unimodular_inverse(self) -> PolyMatrix | None:
        """Polynomial inverse when the determinant is a nonzero constant.

        Returns None when the determinant is non-constant or zero; then only
        pointwise inversion is available.
        """
        if self.rows != self.cols:
            raise ValueError("inverse of a non-square matrix")
        inverse = _unimodular_inverse(self._pairs, len(self.vars))
        return None if inverse is None else PolyMatrix._of_pairs(self.vars, inverse)


def _unit_table(nvars: int) -> dict[int, _Pairs]:
    """The minor table of no rows: the empty minor is the constant 1."""
    return {0: _Pairs({(0,) * nvars: (1, 1)})}


def _unimodular_inverse(rows, nvars: int):
    """The inverse of a square kernel-form matrix over `nvars` variables whose
    determinant is a nonzero constant, as its adjugate over that constant; None
    for any other determinant.  Every caller checks that the matrix is square."""
    n = len(rows)
    zero = (0,) * nvars
    # A constant determinant takes one value everywhere, so one that differs
    # between the origin and (1, ..., 1) is rejected before any minor table.
    at_origin, at_ones = _corner_dets(rows, zero)
    if at_origin != at_ones:
        return None
    # tables[i] holds the minors of the first i rows: the determinant is the
    # full-mask entry of tables[n], and the table over the rows other than i
    # starts from tables[i] and continues below row i.
    tables = [_unit_table(nvars)]
    for row in rows:
        tables.append(_extend_minors(tables[-1], (row,)))
    full = (1 << n) - 1
    d = tables[n].get(full)
    if not d or len(d) > 1 or zero not in d:
        return None
    dn, dd = d[zero]
    scale = _Pairs({zero: (dd, dn) if dn > 0 else (-dd, -dn)})  # 1 / d
    signed = scale, -scale
    without_row = [_extend_minors(tables[i], rows[i + 1 :]) for i in range(n)]

    # inverse[i][j] = (-1)^(i+j) det(rows != j x cols != i) / det
    def entry(i: int, j: int) -> _Pairs:
        minor = without_row[j].get(full ^ (1 << i), _Pairs())
        return _sum_products([(minor, signed[(i + j) % 2])])

    return tuple(tuple([entry(i, j) for j in range(n)]) for i in range(n))


def _corner_dets(rows, zero: Exponent) -> tuple[int, int]:
    """det(rows) of a square kernel-form matrix at the origin (each entry's
    constant term) and at (1, ..., 1) (each entry's coefficient sum), both
    times the product of each row's denominator lcm, from `_bareiss` on
    integer rows: equal whenever the determinant is constant."""
    origin, ones = [], []
    for row in rows:
        scale = lcm(*[d for p in row for _, d in p.values()])
        origin.append([n * (scale // d) for n, d in (p.get(zero, (0, 1)) for p in row)])
        ones.append([sum([n * (scale // d) for n, d in p.values()]) for p in row])
    (d0, c0, _, _), (d1, c1, _, _) = _bareiss(origin, ()), _bareiss(ones, ())
    return d0 * prod(c0), d1 * prod(c1)


def _extend_minors(minors: dict[int, _Pairs], rows) -> dict[int, _Pairs]:
    """Extend a minor table by more kernel-form rows of the same matrix.

    The table maps a column bitmask S, with one column per row so far, to
    the nonzero minor det(rows so far x S).  Expanding a minor over one more
    row r along that row gives, for a column set T,

        det((rows + r) x T) = sum over j in T of
                              (-1)^(columns of T above j) r[j] det(rows x (T - j)),

    so each new minor is one sum of products over stored minors.  Zero
    entries and zero minors are skipped; a dense n x n determinant takes
    n 2^(n-1) polynomial products, where Laplace expansion takes about e n!.
    """
    for row in rows:
        entries = [(j, p, -p) for j, p in enumerate(row) if p]
        pairs: dict[int, list[tuple[_Pairs, _Pairs]]] = {}
        for mask, minor in minors.items():
            for j, p, neg in entries:
                if not mask >> j & 1:
                    odd = (mask >> (j + 1)).bit_count() & 1
                    pairs.setdefault(mask | 1 << j, []).append((neg if odd else p, minor))
        minors = {}
        for mask, terms in pairs.items():
            minor = _sum_products(terms)
            if minor:
                minors[mask] = minor
    return minors


def _check_grid(what: str, value, dims: Sequence[int], vars: tuple[str, ...]) -> None:
    """Raise ValueError unless `value` is a grid of MultiPoly over `vars`
    whose lengths are `dims`: nested tuples len(dims) deep, or a PolyMatrix
    when `dims` has two entries.  Messages name `what` and the index path."""
    if isinstance(value, PolyMatrix):
        rows, cols = dims
        # a matrix with no rows stores no column count
        if value.rows != rows or (rows > 0 and value.cols != cols):
            raise ValueError(
                f"{what} has shape {(value.rows, value.cols)}, expected {(rows, cols)}"
            )
        if value.vars != vars:
            raise ValueError(f"{what} must use the variables {vars}")
        return
    if len(value) != dims[0]:
        raise ValueError(f"{what} has {len(value)} entries, expected {dims[0]}")
    if len(dims) > 1:
        for i, item in enumerate(value):
            _check_grid(f"{what}[{i}]", item, dims[1:], vars)
        return
    for i, p in enumerate(value):
        if not isinstance(p, MultiPoly) or p.vars != vars:
            raise ValueError(f"{what}[{i}] must use the variables {vars}")
