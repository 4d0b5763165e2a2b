"""Packed-integer bitsets: the substrate of the two-level logic engine.

A set of minterms over ``width`` variables is a subset of
``{0, ..., 2**width - 1}`` and is represented here as a single Python
big-int in which bit ``m`` is 1 exactly when minterm ``m`` is a member.
Python's arbitrary-precision integers make every set operation a single
O(words) C-level pass — union is ``|``, intersection is ``&``, subset is
``a | b == b``, cardinality is ``int.bit_count`` — instead of an
O(minterms) interpreted loop over a ``set`` of boxed ints.  That constant
factor is what turns :data:`repro.logic.function.MAX_WIDTH` from a nominal
limit into a usable one (see ``benchmarks/bench_logic.py``).

The module-level helpers (:func:`mask_of`, :func:`iter_bits`,
:func:`coverage_mask`, ...) operate on *raw ints*; they are what the hot
paths in :mod:`~repro.logic.quine_mccluskey` and the covering core
(:mod:`repro.util.setcover`, behind :mod:`~repro.logic.cover`) use.  The
covering core reaches masks only through :func:`members_of`,
:func:`contains_member`, :func:`andnot`, ``&``, ``|`` and
``bit_count``, so it runs unchanged on raw ints and on
:class:`ChunkedMask`.

The key primitive is :func:`coverage_mask`: the bitset of every minterm a
cube ``(mask, value)`` covers, built by subset-doubling in O(width)
shifts rather than enumerating ``2**free`` minterms.

Above :data:`DENSE_WIDTH_LIMIT` variables a single dense int stops being
viable: the space has ``2**width`` bits, so one mask is megabytes and the
implied off-set (its complement) dominates every operation even when the
care set is a few thousand minterms.  :class:`ChunkedMask` is the wide
representation: the space is cut into aligned chunks of ``2**chunk_bits``
minterms and only the non-empty chunks are stored, each as one small
dense int.  All the big-int idioms survive per-chunk (union is still
``|``, subset is still ``word | other == other``), so costs scale with
the *care set*, not the space.  Widths at or below the limit keep the raw
int path untouched — the golden synthesis outputs are byte-identical.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

#: Widths at or below this use one dense ``2**width``-bit int per mask
#: (the representation every golden output was pinned against); wider
#: functions switch to :class:`ChunkedMask`.
DENSE_WIDTH_LIMIT = 22

#: Default chunk size for :class:`ChunkedMask`: each chunk is one dense
#: ``2**CHUNK_BITS``-bit int covering an aligned block of minterms.
CHUNK_BITS = 16


def popcount(bits: int) -> int:
    """Number of set bits (cardinality of the represented set)."""
    return bits.bit_count()


def mask_of(members: Iterable[int]) -> int:
    """Pack an iterable of non-negative ints into one bitset int."""
    bits = 0
    for m in members:
        bits |= 1 << m
    return bits


def iter_bits(bits: int) -> Iterator[int]:
    """Yield the set bit positions of ``bits`` in increasing order."""
    while bits:
        lsb = bits & -bits
        yield lsb.bit_length() - 1
        bits ^= lsb


def full_mask(width: int) -> int:
    """The bitset of the whole ``width``-variable Boolean space."""
    return (1 << (1 << width)) - 1


def is_subset(a: int, b: int) -> bool:
    """True when bitset ``a`` is contained in bitset ``b``."""
    return a | b == b


def coverage_mask(width: int, mask: int, value: int) -> int:
    """Bitset of every minterm covered by the cube ``(mask, value)``.

    A minterm ``m`` is covered when ``m & mask == value``.  Starting from
    the single minterm ``value``, freeing one variable at position ``p``
    doubles the set by shifting it up ``2**p`` — so the full coverage is
    built in O(width) big-int shifts.
    """
    bits = 1 << value
    free = ~mask & ((1 << width) - 1)
    while free:
        lsb = free & -free  # lsb == 2**p for free position p
        bits |= bits << lsb
        free ^= lsb
    return bits


def half_space(width: int, var: int) -> int:
    """Bitset of the minterms with variable ``var`` equal to 0.

    This is the alternating block pattern ``...0011`` with period
    ``2**(var+1)``, built by doubling; it restricts pair-shift tricks such
    as ``covered & (covered >> 2**var)`` to positions where the shift is a
    genuine single-variable flip (no carry into higher variables).
    """
    d = 1 << var
    pattern = (1 << d) - 1
    span = 2 * d
    total = 1 << width
    while span < total:
        pattern |= pattern << span
        span <<= 1
    return pattern


class ChunkedMask:
    """A sparse minterm bitset stored as fixed-size dense chunks.

    Chunk ``c`` holds minterms ``c * 2**chunk_bits`` through
    ``(c + 1) * 2**chunk_bits - 1`` as one dense int; empty chunks are
    absent.  Instances are treated as immutable — every operation
    returns a new mask — and are hashable, so branch-and-bound can
    memoise on them exactly as it does on raw ints.

    The int-seed conventions of the dense hot paths are honoured:
    ``0 | chunked`` is the chunked mask, ``0 & chunked`` is ``0``, and
    ``chunked == 0`` tests emptiness, so accumulation loops seeded with
    ``covered = 0`` work unchanged.  ``~chunked`` returns a lazy
    complement usable only on the right of ``&`` (i.e. ``a & ~b``), the
    one way a complement ever appears in the engine.
    """

    __slots__ = ("chunk_bits", "chunks", "_hash")

    def __init__(self, chunk_bits: int, chunks: dict[int, int]) -> None:
        self.chunk_bits = chunk_bits
        self.chunks = {c: w for c, w in chunks.items() if w}
        self._hash = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, chunk_bits: int = CHUNK_BITS) -> "ChunkedMask":
        return cls(chunk_bits, {})

    @classmethod
    def from_minterms(
        cls, members: Iterable[int], chunk_bits: int = CHUNK_BITS
    ) -> "ChunkedMask":
        chunks: dict[int, int] = {}
        low = (1 << chunk_bits) - 1
        for m in members:
            chunks[m >> chunk_bits] = chunks.get(m >> chunk_bits, 0) | (
                1 << (m & low)
            )
        return cls(chunk_bits, chunks)

    # ------------------------------------------------------------------
    # Set protocol
    # ------------------------------------------------------------------
    def __bool__(self) -> bool:
        return bool(self.chunks)

    def bit_count(self) -> int:
        """Cardinality (named after ``int.bit_count`` for polymorphism)."""
        return sum(w.bit_count() for w in self.chunks.values())

    def members(self) -> Iterator[int]:
        """Yield member minterms in increasing order."""
        for c in sorted(self.chunks):
            base = c << self.chunk_bits
            for b in iter_bits(self.chunks[c]):
                yield base + b

    def contains(self, member: int) -> bool:
        word = self.chunks.get(member >> self.chunk_bits)
        if word is None:
            return False
        return word >> (member & ((1 << self.chunk_bits) - 1)) & 1 == 1

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ChunkedMask):
            return (
                self.chunk_bits == other.chunk_bits
                and self.chunks == other.chunks
            )
        if isinstance(other, int):
            # Dense loops compare against the 0 seed for emptiness.
            return other == 0 and not self.chunks
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.chunk_bits, frozenset(self.chunks.items())))
            self._hash = h
        return h

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def _check(self, other: "ChunkedMask") -> None:
        if self.chunk_bits != other.chunk_bits:
            raise ValueError(
                f"chunk size mismatch: {self.chunk_bits} vs {other.chunk_bits}"
            )

    def __or__(self, other: "ChunkedMask") -> "ChunkedMask":
        if isinstance(other, int):
            if other == 0:
                return self
            return NotImplemented
        self._check(other)
        merged = dict(self.chunks)
        for c, w in other.chunks.items():
            merged[c] = merged.get(c, 0) | w
        return ChunkedMask(self.chunk_bits, merged)

    __ror__ = __or__

    def __and__(self, other):
        if isinstance(other, _Complement):
            return self.andnot(other.mask)
        if isinstance(other, int):
            if other == 0:
                return 0
            return NotImplemented
        self._check(other)
        a, b = self.chunks, other.chunks
        if len(b) < len(a):
            a, b = b, a
        out = {}
        for c, w in a.items():
            hit = w & b.get(c, 0)
            if hit:
                out[c] = hit
        return ChunkedMask(self.chunk_bits, out)

    __rand__ = __and__

    def __xor__(self, other: "ChunkedMask") -> "ChunkedMask":
        if isinstance(other, int):
            if other == 0:
                return self
            return NotImplemented
        self._check(other)
        merged = dict(self.chunks)
        for c, w in other.chunks.items():
            merged[c] = merged.get(c, 0) ^ w
        return ChunkedMask(self.chunk_bits, merged)

    __rxor__ = __xor__

    def __invert__(self) -> "_Complement":
        return _Complement(self)

    def andnot(self, other: "ChunkedMask") -> "ChunkedMask":
        """``self & ~other`` without materialising the complement."""
        self._check(other)
        out = {}
        for c, w in self.chunks.items():
            kept = w & ~other.chunks.get(c, 0)
            if kept:
                out[c] = kept
        return ChunkedMask(self.chunk_bits, out)

    def is_subset(self, other: "ChunkedMask") -> bool:
        """Per-chunk ``word | other == other`` containment test."""
        self._check(other)
        theirs = other.chunks
        for c, w in self.chunks.items():
            if w & ~theirs.get(c, 0):
                return False
        return True

    def intersects(self, other: "ChunkedMask") -> bool:
        self._check(other)
        a, b = self.chunks, other.chunks
        if len(b) < len(a):
            a, b = b, a
        for c, w in a.items():
            if w & b.get(c, 0):
                return True
        return False

    def adjacent_pairs(self, var: int) -> "ChunkedMask":
        """Minterms ``m`` with bit ``var`` = 0 whose ``var``-neighbour is
        also a member — the chunked form of the dense pair-shift idiom
        ``covered & (covered >> 2**var) & half_space(width, var)``.

        For ``var`` below the chunk size both minterms share a chunk and
        the dense trick applies within the chunk word; above it the
        neighbour lives in the paired chunk ``c | 2**(var - chunk_bits)``
        and the pair mask is a plain chunk-against-chunk AND.
        """
        bits = self.chunk_bits
        chunks = self.chunks
        out: dict[int, int] = {}
        if var < bits:
            shift = 1 << var
            half = half_space(bits, var)
            for c, w in chunks.items():
                p = w & (w >> shift) & half
                if p:
                    out[c] = p
        else:
            upper = 1 << (var - bits)
            for c, w in chunks.items():
                if c & upper:
                    continue
                partner = chunks.get(c | upper)
                if partner is None:
                    continue
                p = w & partner
                if p:
                    out[c] = p
        return ChunkedMask(bits, out)

    def __repr__(self) -> str:
        return (
            f"ChunkedMask(chunk_bits={self.chunk_bits}, "
            f"|members|={self.bit_count()}, |chunks|={len(self.chunks)})"
        )


class _Complement:
    """Lazy ``~mask`` over a :class:`ChunkedMask`.

    Exists only so the dense idiom ``a & ~b`` keeps working verbatim on
    chunked masks; any other use is a bug and raises.
    """

    __slots__ = ("mask",)

    def __init__(self, mask: ChunkedMask) -> None:
        self.mask = mask

    def __rand__(self, other):
        if isinstance(other, int):
            if other == 0:
                return 0
            raise TypeError(
                "cannot AND a non-zero raw int with a chunked complement"
            )
        return NotImplemented

    def __invert__(self) -> ChunkedMask:
        return self.mask


def chunked_coverage(
    width: int, mask: int, value: int, chunk_bits: int = CHUNK_BITS
) -> ChunkedMask:
    """Chunked coverage of the cube ``(mask, value)`` over ``width`` vars.

    The coverage factorises over the chunk boundary: the variables below
    ``chunk_bits`` determine one within-chunk pattern shared by every
    occupied chunk, and the variables above it determine which chunks are
    occupied — each half built by the same O(width) subset-doubling as
    :func:`coverage_mask`, so no per-minterm enumeration happens.
    """
    if width <= chunk_bits:
        return ChunkedMask(
            chunk_bits, {0: coverage_mask(width, mask, value)}
        )
    low = (1 << chunk_bits) - 1
    pattern = coverage_mask(chunk_bits, mask & low, value & low)
    high = coverage_mask(width - chunk_bits, mask >> chunk_bits, value >> chunk_bits)
    return ChunkedMask(chunk_bits, {c: pattern for c in iter_bits(high)})


def members_of(mask) -> Iterator[int]:
    """Member minterms of a raw-int or chunked mask, increasing order."""
    if isinstance(mask, int):
        return iter_bits(mask)
    return mask.members()


def contains_member(mask, member: int) -> bool:
    """Membership test on a raw-int or chunked mask."""
    if isinstance(mask, int):
        return mask >> member & 1 == 1
    return mask.contains(member)


def andnot(a, b):
    """``a & ~b`` for raw-int or chunked masks (0 seeds tolerated)."""
    if isinstance(a, int):
        if isinstance(b, int):
            return a & ~b
        if a == 0:
            return 0
        raise TypeError("cannot subtract a chunked mask from a raw int")
    if isinstance(b, int):
        if b == 0:
            return a
        raise TypeError("cannot subtract a raw int from a chunked mask")
    return a.andnot(b)
