"""Exact arithmetic and dense-bitset set machinery for finite abelian groups.

A group is described as a direct sum of cyclic factors C_m1 + ... + C_mn.
Every element gets a mixed-radix index in [0, |G|): factor i contributes the
stride m1*...*m_{i-1}, so ``index(g) = sum_i g_i * stride_i`` is a bijection
onto the index range.  Subsets are stored as dense bitmasks over these
indices, which gives O(1) membership and cheap whole-set operations; all of
the exhaustive enumeration in this package rests on that representation.
Translating a set by g rolls the blocks of each factor with g_i != 0 inside
the mask (``Shifter``), so it costs a few whole-mask operations per factor
and no per-element work; ``add_perm`` and ``translate_mask`` remain as the
per-element reference.

Questions about the order of a span alone (does S generate G, is S
independent, how large is <S>) are decided from coordinates by integer
elimination (``span_order``), with no mask and no per-element work.  The
mask ``span`` is built only where the set itself is needed, and it serves as
the oracle for ``span_order``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm, prod
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

DEFAULT_MAX_ORDER = 1 << 24
MAX_ORDER_ENV = "ISOPERIM_MAX_GROUP"


class SpecMismatchError(ValueError):
    """Operands belong to different groups."""


def max_order_cap() -> int:
    """Configured bound on |G|; the ISOPERIM_MAX_GROUP env var overrides 2**24."""
    raw = os.environ.get(MAX_ORDER_ENV, "")
    return int(raw) if raw else DEFAULT_MAX_ORDER


def listed(name: str, value: object) -> list | tuple:
    """An input field that must be a list, refused with its name otherwise."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"field {name!r} must be a list, got {value!r}")
    return value


def converted(name: str, convert: Callable, value: object):
    """An input field read by ``convert`` (such as int or Fraction), refused with its name if it does not read."""
    try:
        return convert(value)
    except (TypeError, ValueError, ZeroDivisionError):
        raise ValueError(f"field {name!r} cannot be read as {convert.__name__}: {value!r}") from None


def iter_bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        lsb = mask & -mask
        yield lsb.bit_length() - 1
        mask ^= lsb


def translate_mask(mask: int, perm: Sequence[int]) -> int:
    """Image of a bitmask under an index permutation (bit-by-bit)."""
    out = 0
    for i in iter_bits(mask):
        out |= 1 << perm[i]
    return out


def _periodic(block: int, period: int, count: int) -> int:
    """``count`` copies of ``block``, one every ``period`` bits, built by doubling in linear time."""
    out = 0
    while count:
        if count & 1:
            out = (out << period) | block
        block |= block << period
        period *= 2
        count >>= 1
    return out


class Shifter:
    """Translates set bitmasks by one fixed element g, x -> x + g.

    Adding c = g_i in factor i rolls the blocks of stride_i bits inside every
    period of stride_i * m_i bits: the blocks whose coordinate is below
    m_i - c move up by c blocks, the others wrap down by m_i - c blocks.  So a
    translation is one block roll per non-zero coordinate, two masks and two
    shifts each (the broadword block roll, Knuth TAOCP 4A, 7.1.3), on a Python
    int or on a uint32 or uint64 array alike, for |G| <= 32 or |G| <= 64: under
    numpy 2's scalar rules (NEP 50) the int constants keep the array's dtype.
    This is the hot path of boundary counting and of the batched difference counts.
    """

    __slots__ = ("spec", "g", "_rolls")

    def __init__(self, spec: GroupSpec, g: Element):
        self.spec = spec
        self.g = g
        self._rolls = tuple(spec.block_roll(axis, c) for axis, c in enumerate(g.coords) if c)

    @property
    def perm(self) -> list[int]:
        """The index permutation of x -> x + g: ``GroupSpec.add_perm(g)``, from the spec's cache."""
        return self.spec.add_perm(self.g)

    def apply(self, masks: int | np.ndarray) -> int | np.ndarray:
        """The image of an int mask, or of each entry of a uint32 or uint64 array (``OverflowError`` past its width)."""
        for keep, wrap, up, down in self._rolls:
            masks = ((masks & keep) << up) | ((masks & wrap) >> down)
        return masks

    def boundary(self, masks: int | np.ndarray) -> int | np.ndarray:
        """|{x in m : x + g not in m}| for an int mask m, or for every entry of a uint32 or uint64 array."""
        moved = self.apply(masks) & ~masks
        return moved.bit_count() if isinstance(moved, int) else np.bitwise_count(moved)


class GroupSpec:
    """A finite abelian group C_m1 + ... + C_mn with mixed-radix element indexing.

    Immutable after construction, so instances are safe to share across
    parallel workers.  Each instance keeps four write-once caches invisible to
    callers: the ``add_perm`` lists, the ``shift_table`` translators (which
    ``shifter_at`` reads by index) and the ``cyclic_closure`` pairs, keyed by
    element index, and the ``block_roll`` masks, keyed by (axis, c).  They
    live and die with the instance, so a fresh ``GroupSpec`` starts cold.
    """

    __slots__ = (
        "moduli", "order", "exponent", "strides", "_perm_cache", "_shift_cache", "_cyclic_cache", "_roll_cache"
    )

    def __init__(self, moduli: Sequence[int]):
        mods = tuple(int(m) for m in moduli)
        if not mods:
            raise ValueError("a group needs at least one cyclic factor")
        if any(m < 2 for m in mods):
            raise ValueError(f"cyclic factor sizes must be at least 2, got {mods}")
        cap = max_order_cap()
        order = prod(mods)
        if order > cap:
            raise ValueError(f"group order {order} exceeds the configured cap {cap}")
        strides = []
        acc = 1
        for m in mods:
            strides.append(acc)
            acc *= m
        self.moduli = mods
        self.order = order
        self.exponent = lcm(*mods)
        self.strides = tuple(strides)
        self._perm_cache: dict[int, list[int]] = {}
        self._shift_cache: dict[int, Shifter] = {}
        self._cyclic_cache: dict[int, tuple[int, tuple[Shifter, ...]]] = {}
        self._roll_cache: dict[tuple[int, int], tuple[int, int, int, int]] = {}

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupSpec) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(self.moduli)

    def __repr__(self) -> str:
        return "C" + "xC".join(str(m) for m in self.moduli)

    # -- structure --------------------------------------------------------

    @property
    def n_factors(self) -> int:
        return len(self.moduli)

    @property
    def is_homocyclic(self) -> bool:
        return len(set(self.moduli)) == 1

    @property
    def rank(self) -> int:
        """Number of cyclic factors; defined here only for homocyclic groups."""
        if not self.is_homocyclic:
            raise ValueError(f"rank requested for non-homocyclic group {self!r}")
        return len(self.moduli)

    # -- elements ---------------------------------------------------------

    def element(self, coords: Sequence[int]) -> Element:
        """Element with the given coordinates, reduced modulo the factor sizes."""
        if len(coords) != len(self.moduli):
            raise ValueError(f"expected {len(self.moduli)} coordinates, got {len(coords)}")
        return Element(self, tuple(int(c) % m for c, m in zip(coords, self.moduli)))

    def zero(self) -> Element:
        return Element(self, (0,) * len(self.moduli))

    def standard_basis(self) -> GeneratorSeq:
        """The unit vectors e_1, ..., e_n as an ordered generating sequence."""
        n = len(self.moduli)
        elems = tuple(
            Element(self, tuple(1 if j == i else 0 for j in range(n))) for i in range(n)
        )
        return GeneratorSeq(self, elems)

    def index_of(self, g: Element) -> int:
        if g.spec != self:
            raise SpecMismatchError(f"element of {g.spec!r} indexed in {self!r}")
        return sum(c * s for c, s in zip(g.coords, self.strides))

    def coords_at(self, index: int) -> tuple[int, ...]:
        """Coordinates of the element with the given index: its mixed-radix digits."""
        if not 0 <= index < self.order:
            raise ValueError(f"index {index} outside [0, {self.order})")
        coords = []
        r = index
        for m in self.moduli:
            r, c = divmod(r, m)
            coords.append(c)
        return tuple(coords)

    def element_at(self, index: int) -> Element:
        return Element(self, self.coords_at(index))

    def elements(self) -> Iterator[Element]:
        for r in range(self.order):
            yield self.element_at(r)

    # -- index permutations -------------------------------------------------

    def add_perm(self, g: Element) -> list[int]:
        """Permutation of element indices induced by x -> x + g (cached)."""
        key = self.index_of(g)
        perm = self._perm_cache.get(key)
        if perm is None:
            rr = np.arange(self.order, dtype=np.int64)
            tgt = np.zeros(self.order, dtype=np.int64)
            for stride, m, gi in zip(self.strides, self.moduli, g.coords):
                tgt += ((rr // stride + gi) % m) * stride
            perm = tgt.tolist()
            self._perm_cache[key] = perm
        return perm

    def shift_table(self, g: Element) -> Shifter:
        """Mask translator for x -> x + g (cached)."""
        key = self.index_of(g)
        shifter = self._shift_cache.get(key)
        if shifter is None:
            shifter = Shifter(self, g)
            self._shift_cache[key] = shifter
        return shifter

    def shifter_at(self, r: int) -> Shifter:
        """``shift_table`` of the element with index r: one lookup once it is cached."""
        return self._shift_cache.get(r) or self.shift_table(self.element_at(r))

    def block_roll(self, axis: int, c: int) -> tuple[int, int, int, int]:
        """(keep, wrap, up, down) of the roll adding c != 0 to coordinate ``axis`` (cached).

        ``keep`` marks the elements whose coordinate stays below m - c, which
        move up by c * stride bits, and ``wrap`` the others, which move down
        by (m - c) * stride bits.  ``Shifter`` applies one roll per non-zero
        coordinate.
        """
        key = (axis, c)
        roll = self._roll_cache.get(key)
        if roll is None:
            stride, m = self.strides[axis], self.moduli[axis]
            keep = _periodic((1 << (m - c) * stride) - 1, stride * m, self.order // (stride * m))
            roll = (keep, ((1 << self.order) - 1) ^ keep, c * stride, (m - c) * stride)
            self._roll_cache[key] = roll
        return roll

    def cyclic_closure(self, r: int) -> tuple[int, tuple[Shifter, ...]]:
        """The cyclic subgroup <g> of the element g with index r, for mask closures (cached).

        Returns the mask of the non-zero multiples of g and the doubling
        shifters for g, 2g, 4g, ..., a list that stops once 2**j * g = 0 (it
        is empty for g = 0).  Applying them in turn, ``H |= sh.apply(H)``,
        takes a mask H to H + <g>: H + {0, g, ..., (2**j - 1)g} doubles its
        run of multiples with each step, so ``order_of(g).bit_length()``
        steps cover <g>.
        """
        hit = self._cyclic_cache.get(r)
        if hit is None:
            step = self.element_at(r)
            shifters = []
            for _ in range(order_of(step).bit_length()):
                if step.is_zero:
                    break
                shifters.append(self.shift_table(step))
                step = step + step
            cyclic = 1  # the zero element has index 0
            for sh in shifters:
                cyclic |= sh.apply(cyclic)
            hit = (cyclic ^ 1, tuple(shifters))
            self._cyclic_cache[r] = hit
        return hit

    # -- serialization ------------------------------------------------------

    def to_obj(self) -> dict:
        return {"moduli": list(self.moduli)}

    @classmethod
    def from_obj(cls, obj: dict) -> GroupSpec:
        return cls(obj["moduli"])


@dataclass(frozen=True)
class Element:
    """A group element as a reduced coordinate vector."""

    spec: GroupSpec
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != len(self.spec.moduli):
            raise ValueError("coordinate count does not match the group")
        if any(not 0 <= c < m for c, m in zip(self.coords, self.spec.moduli)):
            raise ValueError(f"coordinates {self.coords} not reduced modulo {self.spec.moduli}")

    def __add__(self, other: Element) -> Element:
        if self.spec != other.spec:
            raise SpecMismatchError("cannot add elements of different groups")
        return Element(
            self.spec,
            tuple((a + b) % m for a, b, m in zip(self.coords, other.coords, self.spec.moduli)),
        )

    def __neg__(self) -> Element:
        return Element(self.spec, tuple((-c) % m for c, m in zip(self.coords, self.spec.moduli)))

    def __sub__(self, other: Element) -> Element:
        return self + (-other)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def index(self) -> int:
        return self.spec.index_of(self)

    def __repr__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"


class GroupSet:
    """A subset of a group, stored as a dense bitmask over element indices.

    Treat instances as immutable: all operations return new sets.
    """

    __slots__ = ("spec", "mask")

    def __init__(self, spec: GroupSpec, mask: int):
        if not 0 <= mask < (1 << spec.order):
            raise ValueError("bitmask has bits outside the element index range")
        self.spec = spec
        self.mask = mask

    # -- constructors -------------------------------------------------------

    @classmethod
    def empty(cls, spec: GroupSpec) -> GroupSet:
        return cls(spec, 0)

    @classmethod
    def full(cls, spec: GroupSpec) -> GroupSet:
        return cls(spec, (1 << spec.order) - 1)

    @classmethod
    def from_elements(cls, spec: GroupSpec, elems: Iterable[Element]) -> GroupSet:
        return cls.from_indices(spec, map(spec.index_of, elems))

    @classmethod
    def from_indices(cls, spec: GroupSpec, indices: Iterable[int]) -> GroupSet:
        mask = 0
        for r in indices:
            if not 0 <= r < spec.order:
                raise ValueError(f"element index {r} outside [0, {spec.order})")
            mask |= 1 << r
        return cls(spec, mask)

    # -- basic queries -------------------------------------------------------

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, g: Element) -> bool:
        return (self.mask >> self.spec.index_of(g)) & 1 == 1

    def has_index(self, r: int) -> bool:
        return (self.mask >> r) & 1 == 1

    def indices(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def elements(self) -> list[Element]:
        return [self.spec.element_at(r) for r in self.indices()]

    def coords(self) -> list[list[int]]:
        """The members' coordinate lists in index order, as ``to_obj`` writes them."""
        return [list(self.spec.coords_at(r)) for r in self.indices()]

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements())

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GroupSet) and self.spec == other.spec and self.mask == other.mask

    def __hash__(self) -> int:
        return hash((self.spec, self.mask))

    def __repr__(self) -> str:
        return f"GroupSet({self.spec!r}, {{{', '.join(map(repr, self.elements()))}}})"

    # -- set algebra ---------------------------------------------------------

    def _check(self, other: GroupSet) -> None:
        if self.spec != other.spec:
            raise SpecMismatchError("sets live in different groups")

    def __and__(self, other: GroupSet) -> GroupSet:
        self._check(other)
        return GroupSet(self.spec, self.mask & other.mask)

    def __or__(self, other: GroupSet) -> GroupSet:
        self._check(other)
        return GroupSet(self.spec, self.mask | other.mask)

    def __sub__(self, other: GroupSet) -> GroupSet:
        self._check(other)
        return GroupSet(self.spec, self.mask & ~other.mask)

    def __xor__(self, other: GroupSet) -> GroupSet:
        self._check(other)
        return GroupSet(self.spec, self.mask ^ other.mask)

    def issubset(self, other: GroupSet) -> bool:
        self._check(other)
        return self.mask & ~other.mask == 0

    __le__ = issubset

    # -- group actions ---------------------------------------------------------

    def translate(self, g: Element) -> GroupSet:
        """The shifted set {a + g : a in A}."""
        return GroupSet(self.spec, self.spec.shift_table(g).apply(self.mask))

    # -- serialization ---------------------------------------------------------

    def to_obj(self) -> dict:
        return {"group": self.spec.to_obj(), "elements": self.coords()}

    @classmethod
    def from_obj(cls, obj: dict) -> GroupSet:
        spec = GroupSpec.from_obj(obj["group"])
        return cls.from_elements(spec, _elements_of(spec, obj))


class GeneratorSeq:
    """An ordered sequence of pairwise-distinct group elements.

    Order matters: compression is applied in sequence order.
    """

    __slots__ = ("spec", "elements")

    def __init__(self, spec: GroupSpec, elements: Sequence[Element]):
        elems = tuple(elements)
        for g in elems:
            if g.spec != spec:
                raise SpecMismatchError("generator from a different group")
        if len({g.coords for g in elems}) != len(elems):
            raise ValueError("generator sequence contains duplicates")
        self.spec = spec
        self.elements = elems

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def __getitem__(self, i: int) -> Element:
        return self.elements[i]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GeneratorSeq)
            and self.spec == other.spec
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.elements))

    def __repr__(self) -> str:
        return f"GeneratorSeq({self.spec!r}, [{', '.join(map(repr, self.elements))}])"

    def to_obj(self) -> dict:
        return {"group": self.spec.to_obj(), "elements": [list(g.coords) for g in self.elements]}

    @classmethod
    def from_obj(cls, obj: dict) -> GeneratorSeq:
        spec = GroupSpec.from_obj(obj["group"])
        return cls(spec, tuple(_elements_of(spec, obj)))


def _elements_of(spec: GroupSpec, obj: dict) -> Iterator[Element]:
    """The elements of a set or generator file, whose field and rows must be lists."""
    return (spec.element(listed("elements", c)) for c in listed("elements", obj["elements"]))


# -- operations ----------------------------------------------------------------


def add(g: Element, h: Element) -> Element:
    """Coordinate-wise sum modulo the factor sizes."""
    return g + h


def coords_order(moduli: Sequence[int], coords: Sequence[int]) -> int:
    """Order of the element with the given coordinates in C_m1 + ... + C_mn."""
    return lcm(*(m // gcd(c, m) for c, m in zip(coords, moduli)))


def order_of(g: Element) -> int:
    """Least k >= 1 with k*g = 0."""
    return coords_order(g.spec.moduli, g.coords)


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, u, v) with u*a + v*b = g = gcd(a, b), for a > 0 and b >= 0."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    return a, u0, v0


def coords_span_order(moduli: Sequence[int], rows: Iterable[Sequence[int]]) -> int:
    """|<S>| in C_m1 + ... + C_mn for the elements S with the given coordinate rows.

    <S> is L / M for the lattice L spanned by the rows and the relation rows
    m_j e_j, and M the lattice of the relation rows alone, so |<S>| =
    det M / det L.  Triangularising L column by column with extended-gcd row
    operations (the Hermite normal form index, Cohen, A Course in Computational
    Algebraic Number Theory, 2.4) gives det L as the product of the pivots.
    Column k starts its pivot row as the relation row m_k e_k, so every pivot
    divides m_k and every entry of column j may be reduced mod m_j.  Each
    pivot row is dropped once its column is done; a row with a zero entry
    there is carried to the next column.  O(n^2 |S|) small-integer steps.
    """
    mods = tuple(moduli)
    n = len(mods)
    rows = [list(row) for row in rows]
    order = 1
    for k, m in enumerate(mods):
        pivot = [0] * n  # the pivot row; it starts as m e_k, whose entry lead is kept apart
        lead = m
        carried = []
        for row in rows:
            x = row[k] % m
            if not x:
                carried.append(row)
                continue
            if x % lead:
                g, u, v = _ext_gcd(lead, x)
                a, b = lead // g, x // g
                # unimodular: (u, v; -b, a) has determinant u*a + v*b = 1
                for j in range(k + 1, n):
                    p, r, mj = pivot[j], row[j], mods[j]
                    pivot[j] = (u * p + v * r) % mj
                    row[j] = (a * r - b * p) % mj
                lead = g
            else:
                q = x // lead
                for j in range(k + 1, n):
                    row[j] = (row[j] - q * pivot[j]) % mods[j]
            row[k] = 0
            if any(row):
                carried.append(row)
        order *= m // lead
        rows = carried
    return order


def span_order(gens: GeneratorSeq) -> int:
    """|span(gens)|, by integer elimination on the coordinates (``coords_span_order``)."""
    return coords_span_order(gens.spec.moduli, (s.coords for s in gens))


def span(gens: GeneratorSeq) -> GroupSet:
    """The subgroup generated by the sequence: {0} closed under each <s>.

    Each closure runs the doubling shifters of ``GroupSpec.cyclic_closure``.
    """
    spec = gens.spec
    H = 1  # the zero element has index 0
    for s in gens:
        for sh in spec.cyclic_closure(spec.index_of(s))[1]:
            H |= sh.apply(H)
    return GroupSet(spec, H)


def is_independent(gens: GeneratorSeq) -> bool:
    """True iff the cyclic subgroups generated by the entries sum directly.

    For finite groups this is equivalent to |span(S)| = prod(ord(s)).
    """
    return span_order(gens) == prod(order_of(s) for s in gens)


def _least_prime_factor(n: int) -> int:
    if n % 2 == 0:
        return 2
    p = 3
    while p * p <= n:
        if n % p == 0:
            return p
        p += 2
    return n


@lru_cache(maxsize=256)
def _prime_ranks(moduli: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The (p, r_p) pairs of the group with these moduli, primes in order of first appearance."""
    ranks: dict[int, int] = {}
    for m in moduli:
        while m > 1:
            p = _least_prime_factor(m)
            ranks[p] = ranks.get(p, 0) + 1
            while m % p == 0:
                m //= p
    return tuple(ranks.items())


def min_nonzero_order(spec: GroupSpec) -> int:
    """Smallest order of a non-zero element: the least prime dividing any factor (cached by the moduli)."""
    return min(p for p, _ in _prime_ranks(spec.moduli))


def p_ranks(spec: GroupSpec) -> dict[int, int]:
    """r_p(G) for each prime p dividing |G|: the number of cyclic factors whose order p divides."""
    return dict(_prime_ranks(spec.moduli))


def min_generators(spec: GroupSpec) -> int:
    """d(G), the fewest elements that generate the group: its largest p-rank."""
    return max(p_ranks(spec).values())
