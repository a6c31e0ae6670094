"""Exact sparse polynomials over named variable blocks.

A polynomial lives over a :class:`BlockShape` that fixes the variable
layout: ``n`` compact variables X1..Xn (ranging over a box or simplex),
a first unbounded block Y1..Y{r1}, an optional second unbounded block
W1..W{r2}, and any active homogenizing variables drawn from
``("Z", "Z1", "Z2")``, which pad the unbounded blocks.  Terms are stored
sparsely in one integer form, ``_ints = (den, [(e, a_e)])`` with
``p = sum (a_e / den) X^e``: each exponent tuple has one slot per
variable, in the layout order above, and appears once; no ``a_e`` is
zero; ``den`` is positive and ``gcd(den, *a_e)`` is 1, so ``den`` is the
lcm of the reduced denominators (1 for the zero polynomial).  The form is
canonical, so equal polynomials store equal ``den`` and equal term sets.
``terms`` builds the ``Fraction`` dict from it on each read.  All
arithmetic is exact; operations never mutate their inputs.

The norm used throughout treats the X-part of each monomial in the
multinomial-weighted representation

    f = sum_{a,b} binom(|a|, a) * c_{a,b} * X^a * (unbounded part)^b,

i.e. ``weighted_norm(f) = max |stored coefficient| / multinomial(a)``
over all terms, where ``a`` is the X-block exponent.  Exponents of
unbounded blocks and of homogenizers carry no weight.

Products go through :class:`ExactSum`, which keeps a sum of weighted
products as one dict of Python ints over one running common denominator.
A sum that cancels to zero is dropped at once, so a product's terms come
out in the order of the plain double loop over its factors.

:meth:`BlockedPoly.eval_at` works in the integer form too: each term is
put over one common denominator (``den`` times each coordinate's
denominator to its highest exponent), the numerators are summed as Python
ints from per-coordinate power tables, and one ``Fraction`` is made at
the end.  It is the same reduced rational as a term-by-term ``Fraction``
sum.  Each slot's highest exponent is kept on the polynomial after the
first call.

A :class:`SosDecomposition` is a list of weighted squares, and
:func:`expand_identity` expands ``sigma_0 + sum sigma_i * g_i`` in ints
over packed monomials, one sum per denominator: the single identity
check that the square search and verification share.  Like
the rest of this module it uses only the standard library, so the
checker can verify a certificate without loading the search.

Every polynomial is made by one of two constructors.  The public one
takes ``Fraction``-like coefficients, checks every exponent and clears
the coefficients to the integer form.  ``BlockedPoly._from_ints(shape,
den, nums)`` takes the numerators as a dict, drops zeros and divides out
the gcd itself; only code in this package may call it, and only with
keys that are tuples of ``shape.width`` nonnegative ints and a positive
``den``.  Input from outside the program goes through the public
constructor or through the file reader
:func:`cylcert.serialize.polys_from_obj`, which checks its exponents
before it calls ``_from_ints``.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm
from itertools import chain
from operator import add, mul
from typing import Iterable, Mapping

from .errors import ShapeMismatchError

HOMOGENIZER_ORDER = ("Z", "Z1", "Z2")

Exponent = tuple[int, ...]


@lru_cache(maxsize=None)
def multinomial(exponents: Exponent) -> int:
    """Multinomial coefficient binom(e1+...+ek; e1,...,ek)."""
    total = sum(exponents)
    out = factorial(total)
    for e in exponents:
        out //= factorial(e)
    return out


@dataclass(frozen=True)
class BlockShape:
    """Variable layout: X block, up to two unbounded blocks, homogenizers."""

    n: int
    r1: int
    r2: int = 0
    homs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0 or self.r1 < 0 or self.r2 < 0:
            raise ValueError("block sizes must be nonnegative")
        if tuple(h for h in HOMOGENIZER_ORDER if h in self.homs) != self.homs:
            raise ValueError(f"homogenizers must be a subsequence of {HOMOGENIZER_ORDER}")

    @property
    def width(self) -> int:
        return self.n + self.r1 + self.r2 + len(self.homs)

    # ----- index helpers ------------------------------------------------
    def y1_index(self, j: int) -> int:
        if not 0 <= j < self.r1:
            raise IndexError(f"y1 index {j} out of range for r1={self.r1}")
        return self.n + j

    def hom_index(self, name: str) -> int:
        try:
            return self.n + self.r1 + self.r2 + self.homs.index(name)
        except ValueError:
            raise KeyError(f"homogenizer {name!r} not active in shape {self}") from None

    def block_indices(self, block: str) -> tuple[int, ...]:
        """Indices of a named part: 'x', 'y1', 'y2', or a homogenizer name."""
        if block == "x":
            return tuple(range(self.n))
        if block == "y1":
            return tuple(self.n + j for j in range(self.r1))
        if block == "y2":
            return tuple(self.n + self.r1 + j for j in range(self.r2))
        return (self.hom_index(block),)

    def with_homogenizers(self, *names: str) -> "BlockShape":
        """Shape extended by the given homogenizers (idempotent)."""
        wanted = set(self.homs) | set(names)
        bad = wanted - set(HOMOGENIZER_ORDER)
        if bad:
            raise KeyError(f"unknown homogenizers {sorted(bad)}")
        homs = tuple(h for h in HOMOGENIZER_ORDER if h in wanted)
        return BlockShape(self.n, self.r1, self.r2, homs)

    def var_name(self, index: int) -> str:
        """Printable name of a variable slot (X1.., Y1.., W1.., Z/Z1/Z2)."""
        if index < self.n:
            return f"X{index + 1}"
        index -= self.n
        if index < self.r1:
            return f"Y{index + 1}"
        index -= self.r1
        if index < self.r2:
            return f"W{index + 1}"
        return self.homs[index - self.r2]


class BlockedPoly:
    """Immutable sparse polynomial over a :class:`BlockShape`."""

    # _ints: the stored coefficients (module docstring); _tops: eval_at's slot tops
    __slots__ = ("shape", "_ints", "_tops")

    def __init__(self, shape: BlockShape, terms: Mapping[Exponent, Fraction] | None = None):
        coeffs: dict[Exponent, Fraction] = {}
        width = shape.width
        for exp, coeff in (terms or {}).items():
            if len(exp) != width:
                raise ShapeMismatchError(
                    f"exponent {exp} has length {len(exp)}, shape width is {width}"
                )
            if any(e < 0 for e in exp):
                raise ValueError(f"negative exponent in {exp}")
            coeffs[tuple(exp)] = Fraction(coeff)
        den = lcm(*[c.denominator for c in coeffs.values()])
        nums = {e: c.numerator * (den // c.denominator) for e, c in coeffs.items()}
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_ints", _reduced(den, nums))

    def __setattr__(self, *_: object) -> None:  # pragma: no cover - guard
        raise AttributeError("BlockedPoly is immutable")

    @classmethod
    def _from_ints(cls, shape: BlockShape, den: int, nums: dict[Exponent, int]) -> "BlockedPoly":
        """``sum nums[e] / den * X^e``, with the keys of ``nums`` meeting the
        rule of the module docstring and ``den`` positive."""
        p = object.__new__(cls)
        object.__setattr__(p, "shape", shape)
        object.__setattr__(p, "_ints", _reduced(den, nums))
        return p

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """The coefficients as ``Fraction``s, built anew on each read."""
        den, nums = self._ints
        return {e: Fraction(a, den) for e, a in nums}

    # ----- constructors -------------------------------------------------
    @staticmethod
    def zero(shape: BlockShape) -> "BlockedPoly":
        return BlockedPoly(shape, {})

    @staticmethod
    def constant(shape: BlockShape, c: Fraction | int) -> "BlockedPoly":
        return BlockedPoly(shape, {(0,) * shape.width: Fraction(c)})

    @staticmethod
    def variable(shape: BlockShape, index: int) -> "BlockedPoly":
        exp = [0] * shape.width
        exp[index] = 1
        return BlockedPoly(shape, {tuple(exp): Fraction(1)})

    @staticmethod
    def monomial(shape: BlockShape, exp: Exponent, c: Fraction | int = 1) -> "BlockedPoly":
        return BlockedPoly(shape, {tuple(exp): Fraction(c)})

    # ----- basic protocol ----------------------------------------------
    def __bool__(self) -> bool:
        return bool(self._ints[1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlockedPoly):
            return NotImplemented
        (den, nums), (other_den, other_nums) = self._ints, other._ints
        return self.shape == other.shape and den == other_den and dict(nums) == dict(other_nums)

    def __hash__(self) -> int:
        den, nums = self._ints
        return hash((self.shape, den, frozenset(nums)))

    def __repr__(self) -> str:
        if not self:
            return "BlockedPoly(0)"
        bits = []
        for exp, coeff in self.sorted_terms()[:6]:
            mono = "*".join(
                f"{self.shape.var_name(i)}^{e}" if e > 1 else self.shape.var_name(i)
                for i, e in enumerate(exp)
                if e
            )
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        tail = " + ..." if len(self._ints[1]) > 6 else ""
        return f"BlockedPoly({' + '.join(bits)}{tail})"

    def sorted_terms(self) -> list[tuple[Exponent, Fraction]]:
        """Terms in canonical (lexicographic exponent) order."""
        return sorted(self.terms.items())

    def _check_shape(self, other: "BlockedPoly") -> None:
        if self.shape != other.shape:
            raise ShapeMismatchError(
                f"shape mismatch: {self.shape} vs {other.shape}"
            )

    # ----- ring operations ----------------------------------------------
    def __add__(self, other: "BlockedPoly") -> "BlockedPoly":
        self._check_shape(other)
        (left_den, left), (right_den, right) = self._ints, other._ints
        den = lcm(left_den, right_den)
        grow = den // left_den
        out = {e: a * grow for e, a in left}
        grow = den // right_den
        get = out.get
        for e, a in right:
            out[e] = get(e, 0) + a * grow
        return BlockedPoly._from_ints(self.shape, den, out)

    def __neg__(self) -> "BlockedPoly":
        den, nums = self._ints
        return BlockedPoly._from_ints(self.shape, den, {e: -a for e, a in nums})

    def __sub__(self, other: "BlockedPoly") -> "BlockedPoly":
        return self + (-other)

    def __mul__(self, other: "BlockedPoly") -> "BlockedPoly":
        self._check_shape(other)
        product = ExactSum(self.shape)
        product.add_product(1, self, other)
        return product.poly()

    def scale(self, c: Fraction | int) -> "BlockedPoly":
        c = Fraction(c)
        den, nums = self._ints
        return BlockedPoly._from_ints(
            self.shape, den * c.denominator, {e: a * c.numerator for e, a in nums}
        )

    def __pow__(self, exponent: int) -> "BlockedPoly":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = BlockedPoly.constant(self.shape, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # ----- degrees ------------------------------------------------------
    def total_degree(self) -> int:
        return max((sum(e) for e, _ in self._ints[1]), default=0)

    def block_degree(self, block: str) -> int:
        """Max combined exponent over a named block."""
        idx = self.shape.block_indices(block)
        return max((sum(e[i] for i in idx) for e, _ in self._ints[1]), default=0)

    # ----- evaluation ---------------------------------------------------
    def eval_at(self, point: Iterable[Fraction]) -> Fraction:
        """Exact value at a point given as one Fraction per variable slot.

        Summed over integer numerators and one common denominator (module
        docstring).
        """
        pt = tuple(v if isinstance(v, Fraction) else Fraction(v) for v in point)
        if len(pt) != self.shape.width:
            raise ShapeMismatchError(
                f"point has {len(pt)} coordinates, shape width {self.shape.width}"
            )
        den, cleared = self._ints
        if not cleared:
            return Fraction(0)
        try:
            tops = self._tops
        except AttributeError:
            exps = [e for e, _ in cleared]
            tops = [(i, top) for i, top in enumerate(map(max, zip(*exps))) if top]
            object.__setattr__(self, "_tops", tops)
        # (i, row) with row[e] = p^e * q^(top - e), coordinate i's factor at exponent e
        tables: list[tuple[int, list[int]]] = []
        for i, top in tops:
            p, q = pt[i].numerator, pt[i].denominator
            tables.append((i, [p**e * q ** (top - e) for e in range(top + 1)]))
            den *= q**top
        total = 0
        for exp, num in cleared:
            for i, table in tables:
                num *= table[exp[i]]
            total += num
        return Fraction(total, den)

    # ----- shape changes -------------------------------------------------
    def embed(self, shape: BlockShape) -> "BlockedPoly":
        """Re-interpret over a larger shape sharing this one's blocks.

        The target must agree on n, r1, r2 and contain this shape's
        homogenizers; new homogenizer slots get exponent 0.
        """
        if shape == self.shape:
            return self
        if (shape.n, shape.r1, shape.r2) != (self.shape.n, self.shape.r1, self.shape.r2):
            raise ShapeMismatchError(f"cannot embed {self.shape} into {shape}")
        if not set(self.shape.homs) <= set(shape.homs):
            raise ShapeMismatchError(f"cannot embed {self.shape} into {shape}")
        base = self.shape.n + self.shape.r1 + self.shape.r2
        den, nums = self._ints
        out: dict[Exponent, int] = {}
        for exp, a in nums:
            new = list(exp[:base]) + [0] * len(shape.homs)
            for pos, h in enumerate(self.shape.homs):
                new[base + shape.homs.index(h)] = exp[base + pos]
            out[tuple(new)] = a
        return BlockedPoly._from_ints(shape, den, out)


def _reduced(den: int, nums: dict[Exponent, int]) -> tuple[int, list[tuple[Exponent, int]]]:
    """``(den, [(e, a)])`` for ``sum nums[e] / den * X^e`` in its stored form:
    zero numerators dropped and ``gcd(den, *numerators)`` divided out."""
    common = gcd(den, *nums.values())
    if common == 1 and all(nums.values()):
        return den, list(nums.items())
    return den // common, [(e, a // common) for e, a in nums.items() if a]


# ---------------------------------------------------------------------------
# exact sums of products
# ---------------------------------------------------------------------------

class ExactSum:
    """A sum of weighted polynomial products, held over integer numerators.

    The value is ``sum nums[e] / den * X^e``; ``den`` grows to the lcm of
    the denominators of every product added, and ``nums`` never holds a
    zero.
    """

    __slots__ = ("shape", "den", "nums")

    def __init__(self, shape: BlockShape):
        self.shape = shape
        self.den = 1
        self.nums: dict[Exponent, int] = {}

    def add_product(self, weight: Fraction | int, left: BlockedPoly, right: BlockedPoly) -> None:
        """Add ``weight * left * right``."""
        if not weight:
            return
        left_den, left_terms = left._ints
        right_den, right_terms = right._ints
        den = weight.denominator * left_den * right_den
        common = lcm(self.den, den)
        nums = self.nums
        if common != self.den:
            grow = common // self.den
            for e in nums:
                nums[e] *= grow
            self.den = common
        mult = weight.numerator * (common // den)
        get = nums.get
        for e1, a in left_terms:
            a *= mult
            for e2, b in right_terms:
                key = tuple(map(add, e1, e2))
                s = get(key, 0) + a * b
                if s:
                    nums[key] = s
                else:
                    del nums[key]

    def poly(self) -> BlockedPoly:
        """The sum as a polynomial."""
        return BlockedPoly._from_ints(self.shape, self.den, self.nums)


@dataclass(frozen=True)
class SosDecomposition:
    """Weighted squares summing exactly to a target polynomial."""

    shape: BlockShape
    weights: tuple[Fraction, ...]
    squares: tuple[BlockedPoly, ...]

    def degree(self) -> int:
        """Total degree of the expanded sum: with positive weights the top
        forms of the squares cannot cancel."""
        return 2 * max((sum(e) for q in self.squares for e, _ in q._ints[1]), default=0)

    def nonzero(self) -> bool:
        """Whether some square is nonzero: with positive weights, whether the sum is."""
        return any(q._ints[1] for q in self.squares)


def expand_identity(
    sigma0: SosDecomposition,
    products: Iterable[tuple[SosDecomposition, BlockedPoly]],
) -> BlockedPoly:
    """Expand ``sigma_0 + sum sigma_i * g_i`` exactly, in integers.

    ``products`` pairs each multiplier sigma_i with its generator g_i.
    The square search (forms and facet witnesses) and verification
    check their identity through this one expansion.

    Each exponent tuple is packed into one int, slot i in bits
    ``[i*b, (i+1)*b)``.  ``b`` is the bit length of three times the
    largest exponent in the inputs, so no slot of a product of two
    square terms and a generator term reaches ``2**b``: packed keys add
    without carries, whatever the exponents.  Each ``w * q**2`` is
    expanded over q's cleared numerators, times ``w.numerator``, into the
    integer dict of its denominator ``w.denominator * den(q)**2``
    (:func:`_square_groups`).  A sigma_i's dicts are merged
    (:func:`_merge_groups`) and multiplied by g_i in ints, and all of them
    are merged at the end.  Only the surviving monomials are unpacked.
    """
    products = [(sigma, g) for sigma, g in products if g._ints[1]]
    polys = list(sigma0.squares)
    for sigma, g in products:
        polys += (*sigma.squares, g)
    top = max(chain.from_iterable(e for p in polys for e, _ in p._ints[1]), default=0)
    bits = (3 * top).bit_length()
    offsets = [bits * i for i in range(sigma0.shape.width)]
    shifts = [1 << o for o in offsets]

    groups = list(_square_groups(sigma0, shifts).items())
    for sigma, g in products:
        den, nums = _merge_groups(_square_groups(sigma, shifts).items())
        g_den, g_terms = _packed(g, shifts)
        out: dict[int, int] = {}
        get = out.get
        for k1, a in nums.items():
            if a:
                for k2, b in g_terms:
                    key = k1 + k2
                    out[key] = get(key, 0) + a * b
        groups.append((den * g_den, out))
    den, nums = _merge_groups(groups)
    mask = (1 << bits) - 1
    return BlockedPoly._from_ints(sigma0.shape, den, {
        tuple([(key >> o) & mask for o in offsets]): v for key, v in nums.items() if v
    })


def _packed(p: BlockedPoly, shifts: list[int]) -> tuple[int, list[tuple[int, int]]]:
    """``p._ints``, with each exponent tuple packed by ``shifts``."""
    den, cleared = p._ints
    return den, [(sum(map(mul, e, shifts)), a) for e, a in cleared]


def _square_groups(sigma: SosDecomposition, shifts: list[int]) -> dict[int, dict[int, int]]:
    """``sum w * q**2`` over sigma, as ``{denominator: {packed key: numerator}}``.

    Each cross product of a square is formed once and doubled.
    """
    groups: dict[int, dict[int, int]] = {}
    for w, q in zip(sigma.weights, sigma.squares):
        den, terms = _packed(q, shifts)
        if not w or not terms:
            continue
        nums = groups.setdefault(w.denominator * den * den, {})
        get = nums.get
        for i, (k1, a) in enumerate(terms):
            wa = w.numerator * a
            key = k1 + k1
            nums[key] = get(key, 0) + wa * a
            wa += wa
            for k2, b in terms[i + 1 :]:
                key = k1 + k2
                nums[key] = get(key, 0) + wa * b
    return groups


def _merge_groups(groups: Iterable[tuple[int, dict[int, int]]]) -> tuple[int, dict[int, int]]:
    """``(den, nums)`` with the value of all ``groups``, each ``(den, nums)`` too.

    The groups are sorted by denominator and merged in pairs of
    neighbours, round by round, each pair over the lcm of its two
    denominators.  Neighbours share most of their factors, so the lcms
    stay small until the last rounds: c5's sigma_0 has 74 groups of up
    to 389 digits, the first three rounds stay within 592 digits, and only
    the last reaches the full 1,290.
    """
    groups = sorted(groups, key=lambda group: group[0])
    while len(groups) > 1:
        merged = []
        for (d1, n1), (d2, n2) in zip(groups[::2], groups[1::2]):
            common = lcm(d1, d2)
            m1, m2 = common // d1, common // d2
            out = {k: v * m1 for k, v in n1.items() if v}
            get = out.get
            for k, v in n2.items():
                if v:
                    out[k] = get(k, 0) + v * m2
            merged.append((common, out))
        if len(groups) % 2:
            merged.append(groups[-1])
        groups = merged
    return groups[0] if groups else (1, {})


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

def weighted_norm(p: BlockedPoly) -> Fraction:
    """Max |coefficient| of ``p`` in the multinomial-weighted representation.

    The weight of a term is the multinomial coefficient of its X-part;
    unbounded blocks and homogenizers contribute no weight.  For
    polynomials with no unbounded variables this is the classical
    weighted coefficient norm.  The value does not depend on any ambient
    degree.
    """
    n = p.shape.n
    best = Fraction(0)
    for exp, coeff in p.terms.items():
        w = multinomial(exp[:n])
        cand = abs(coeff) / w
        if cand > best:
            best = cand
    return best


def coeff_abs_sum(p: BlockedPoly) -> Fraction:
    """Sum of absolute stored coefficients (used for rounding-error slack)."""
    den, nums = p._ints
    return Fraction(sum(abs(a) for _, a in nums), den)


# ---------------------------------------------------------------------------
# homogenization and substitution
# ---------------------------------------------------------------------------

def homogenize_block(
    p: BlockedPoly, block: str, target_degree: int, homogenizer: str
) -> BlockedPoly:
    """Pad each term with the homogenizer so the block degree is constant.

    A term with block degree d picks up ``homogenizer^(target_degree-d)``.
    The shape is extended with the homogenizer if needed.  Requires
    ``target_degree >= block_degree(p, block)``.
    """
    if homogenizer not in p.shape.homs:
        p = p.embed(p.shape.with_homogenizers(homogenizer))
    idx = p.shape.block_indices(block)
    hidx = p.shape.hom_index(homogenizer)
    den, nums = p._ints
    out: dict[Exponent, int] = {}
    for exp, a in nums:
        d = sum(exp[i] for i in idx)
        pad = target_degree - d - exp[hidx]
        if pad < 0:
            raise ValueError(
                f"target degree {target_degree} below term block degree {d + exp[hidx]}"
            )
        new = list(exp)
        new[hidx] += pad
        key = tuple(new)
        out[key] = out.get(key, 0) + a
    return BlockedPoly._from_ints(p.shape, den, out)


def substitute(p: BlockedPoly, assignments: Mapping[int, BlockedPoly]) -> BlockedPoly:
    """Replace variables (by slot index) with polynomials of the same shape.

    Unlisted variables are untouched.  Replacement powers, and their
    products per combination of replaced exponents, are cached for this
    one call only; every term is added into one :class:`ExactSum`.
    Certificate assembly does not come through here: it grounds each
    factor once.
    """
    for idx, rhs in assignments.items():
        if not 0 <= idx < p.shape.width:
            raise IndexError(f"variable index {idx} out of range")
        if rhs.shape != p.shape:
            raise ShapeMismatchError("replacement shape differs from target shape")
    power_cache: dict[tuple[int, int], BlockedPoly] = {}

    def rhs_power(idx: int, e: int) -> BlockedPoly:
        key = (idx, e)
        if key not in power_cache:
            power_cache[key] = assignments[idx] ** e
        return power_cache[key]

    one = BlockedPoly.constant(p.shape, 1)
    product_cache: dict[tuple[tuple[int, int], ...], BlockedPoly] = {}
    total = ExactSum(p.shape)
    for exp, coeff in p.terms.items():
        residual = list(exp)
        replaced = []
        for idx in assignments:
            e = residual[idx]
            if e:
                residual[idx] = 0
                replaced.append((idx, e))
        key = tuple(replaced)
        if key not in product_cache:
            product = one
            for idx, e in key:
                product = product * rhs_power(idx, e)
            product_cache[key] = product
        mono = BlockedPoly._from_ints(p.shape, 1, {tuple(residual): 1})
        total.add_product(coeff, mono, product_cache[key])
    return total.poly()


def block_sum_of_squares(shape: BlockShape, block: str, *extra: str) -> BlockedPoly:
    """The quadric ``sum v^2`` over a block plus optional homogenizers."""
    idx = shape.block_indices(block)
    for name in extra:
        idx = idx + shape.block_indices(name)
    terms: dict[Exponent, Fraction] = {}
    for i in idx:
        exp = [0] * shape.width
        exp[i] = 2
        terms[tuple(exp)] = Fraction(1)
    return BlockedPoly(shape, terms)
