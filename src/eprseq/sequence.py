"""Principal rank characteristic sequences.

For an order-n symmetric matrix B the epr-sequence is the word
``l_1 l_2 ... l_n`` over {A, S, N} where letter k records whether all,
some-but-not-all, or none of the order-k principal minors of B are
nonzero.  The pr-sequence ``r_0]r_1...r_n`` keeps one bit per order
(r_k = 1 iff some order-k principal minor is nonzero) plus the flag
r_0 = 1 iff B has a zero diagonal entry.

Both sequences are read off one table of all 2^n principal minors,
built by the characteristic-2 bordering identity in O(n 2^n) field
operations.  This module computes it for one matrix, bit-sliced: over
GF(2^k) the table is k Python ints of 2^n bits (minor_planes), counted
per order with int.bit_count, so the single-matrix paths never import
numpy.  The batched numpy kernel for the exhaustive sweeps is
eprseq._engine.minor_tables.  A guardrail rejects orders above
DEFAULT_MAX_ORDER unless lifted explicitly; it bounds the time, about
n 2^n bit-plane operations.  A ceiling that is never lifted refuses any
order whose 2^n bytes exceed physical memory: the k <= 8 planes of 2^n
bits fit in 2^n bytes, so the ceiling bounds the working set, with room
to spare over GF(2).
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import lru_cache
from math import comb

from .gfield import FieldSpec

TYPE_CHECKING = False  # typing.TYPE_CHECKING without importing typing
if TYPE_CHECKING:
    from .matrix import SymMatrix

EPR_LETTERS = "ASN"
DEFAULT_MAX_ORDER = 24


def __getattr__(name: str):
    # bench/tracer.py wraps the determinant kernels under these names; serving
    # them lazily keeps eprseq.matrix out of the classify verbs.
    if name in ("_generic_det", "_gf2_det"):
        from . import matrix

        return getattr(matrix, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class OrderLimitError(ValueError):
    """Direct sequence computation refused above the order guardrail."""


def parse_epr(text: str) -> str:
    """Strict parse of an epr word such as "NSNA"."""
    if not isinstance(text, str) or not text:
        raise ValueError("epr-sequence must be a nonempty string")
    for i, ch in enumerate(text):
        if ch not in EPR_LETTERS:
            raise ValueError(f"epr-sequence letter {i + 1} is {ch!r}, expected A, S or N")
    return text


class PrSequence(namedtuple("PrSequence", "r0 bits")):
    """r0 flag plus the bit word r_1 ... r_n, rendered as "r0]bits"."""

    __slots__ = ()

    def __new__(cls, r0: int, bits: str):
        if r0 not in (0, 1):
            raise ValueError(f"r0 must be 0 or 1, got {r0!r}")
        if not bits or any(b not in "01" for b in bits):
            raise ValueError(f"pr bits must be a nonempty 0/1 word, got {bits!r}")
        return super().__new__(cls, r0, bits)

    @property
    def order(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return f"{self.r0}]{self.bits}"


def parse_pr(text: str) -> PrSequence:
    """Strict parse of "r0]bits" such as "1]010"."""
    if not isinstance(text, str) or "]" not in text:
        raise ValueError(f"pr-sequence must look like '1]010', got {text!r}")
    head, _, tail = text.partition("]")
    if head not in ("0", "1"):
        raise ValueError(f"pr-sequence r0 must be 0 or 1, got {head!r}")
    return PrSequence(int(head), tail)


def pr_of_epr(epr: str, zero_diag: int | bool) -> PrSequence:
    """Associated pr-sequence: r_k = 0 iff letter k is N; r_0 as given."""
    word = parse_epr(epr)
    bits = "".join("0" if ch == "N" else "1" for ch in word)
    return PrSequence(1 if zero_diag else 0, bits)


def _physical_memory() -> int:
    """Bytes of physical memory, or the guardrail's table size where unknown."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return 1 << DEFAULT_MAX_ORDER


def check_order(n: int, max_order: int | None = DEFAULT_MAX_ORDER) -> None:
    """Raise OrderLimitError above max_order (the time bound), or when 2^n bytes,
    a bound on the minor planes, exceed physical memory; max_order=None lifts
    only the first bound."""
    if max_order is not None and n > max_order:
        raise OrderLimitError(
            f"order {n} exceeds the guardrail {max_order} "
            "(the principal-minor table has 2^n entries, built in about n 2^n steps)"
        )
    if 1 << n > _physical_memory():
        raise OrderLimitError(
            f"order {n} is refused: its principal-minor planes are bounded by 2^{n} bytes, "
            "more than this machine's physical memory"
        )


_BLOCK = 16  # log2 of the subsets per cached mask and per counting block


@lru_cache(maxsize=None)
def _field_tables(spec: FieldSpec) -> tuple[tuple[int, ...], tuple[tuple[tuple[int, int], ...], ...]]:
    """(b^2 for each b, and for each c the pairs (s, t) where c x^t has bit s)."""
    q, d = range(spec.order), range(spec.degree)
    squares = tuple(spec.mul(b, b) for b in q)
    pairs = tuple(tuple((s, t) for t in d for s in d if spec.mul(c, 1 << t) >> s & 1) for c in q)
    return squares, pairs


def _lacks(i: int, j: int) -> int:
    """The bits S < 2^j without bit i, for i < j."""
    mask, width = (1 << (1 << i)) - 1, 2 << i
    while width < 1 << j:
        mask |= mask << width
        width <<= 1
    return mask


@lru_cache(maxsize=None)
def _block_lacks() -> tuple[int, ...]:
    """_lacks(i, 16) for each i < 16, cached; wider masks are rebuilt per row, never kept."""
    return tuple(_lacks(i, _BLOCK) for i in range(_BLOCK))


def minor_planes(m: SymMatrix, max_order: int | None = DEFAULT_MAX_ORDER) -> list[int]:
    """det B[S] for every index subset S of one matrix, bit-sliced.

    Plane t is an int of 2^n bits whose bit S (bit i of S selects index i + 1)
    is bit t of det B[S].  The subsets of {0..j-1} hold bits below 2^j, and
    in characteristic 2, for j > max S,
    det B[S + {j}] = b_jj det B[S] + sum_{i in S} b_ij^2 det B[S - {i}],
    so row j adds U << 2^j with U = b_jj L + sum_i b_ij^2 ((L & lacks_i) << 2^i),
    L the planes so far and lacks_i the subsets without i.  Multiplying the
    planes by a constant c is a fixed XOR of planes: c x^t has bit s.
    """
    check_order(m.n, max_order)
    return _planes(m.rows, m.spec)


def _planes(rows, spec: FieldSpec) -> list[int]:
    """minor_planes of the matrix with these rows, unchecked."""
    squares, pairs = _field_tables(spec)
    planes = [1] + [0] * (spec.degree - 1)
    lacks = _block_lacks()
    for j, row in enumerate(rows):
        upper = [0] * len(planes)
        for s, t in pairs[row[j]]:
            upper[s] ^= planes[t]
        for i in range(j):
            c = squares[row[i]]
            if c:
                mask = lacks[i] if j <= _BLOCK else _lacks(i, j)
                for s, t in pairs[c]:
                    upper[s] ^= (planes[t] & mask) << (1 << i)
        for t, u in enumerate(upper):
            planes[t] |= u << (1 << j)
    return planes


@lru_cache(maxsize=None)
def _size_masks(low: int) -> tuple[int, ...]:
    """For each k = 0..low, the bits S < 2^low of the subsets of size k."""
    if low == 0:
        return (1,)
    half = _size_masks(low - 1)
    shift = 1 << (low - 1)
    return tuple(
        (half[k] if k < low else 0) | (half[k - 1] << shift if k else 0) for k in range(low + 1)
    )


def _nonzero_per_order(m: SymMatrix, max_order: int | None) -> list[int]:
    """Nonzero principal minors of each order 0..n."""
    if m.n < 1:
        raise ValueError("sequences are defined for order >= 1")
    nonzero = 0
    for plane in minor_planes(m, max_order):
        nonzero |= plane
    # Blocks of at most 2^16 subsets, so no size mask is wider than 2^16 bits.
    low = min(m.n, _BLOCK)
    sizes = _size_masks(low)
    if low == m.n:
        blocks = [nonzero]
    else:
        raw = memoryview(nonzero.to_bytes(1 << (m.n - 3), "little"))
        step = 1 << (low - 3)
        blocks = (int.from_bytes(raw[o : o + step], "little") for o in range(0, len(raw), step))
    counts = [0] * (m.n + 1)
    for high, block in enumerate(blocks):
        if block:
            top = high.bit_count()
            for k, mask in enumerate(sizes):
                counts[top + k] += (block & mask).bit_count()
    return counts


def compute_epr(m: SymMatrix, max_order: int | None = DEFAULT_MAX_ORDER) -> str:
    """epr-sequence: letter k says if all, some or none of the order-k minors are nonzero."""
    counts = _nonzero_per_order(m, max_order)
    return "".join(
        "N" if c == 0 else "A" if c == comb(m.n, k) else "S" for k, c in enumerate(counts) if k
    )


def compute_pr(m: SymMatrix, max_order: int | None = DEFAULT_MAX_ORDER) -> PrSequence:
    """pr-sequence: bit k is 1 iff some order-k principal minor is nonzero."""
    bits = "".join("1" if c else "0" for c in _nonzero_per_order(m, max_order)[1:])
    return PrSequence(1 if m.has_zero_diagonal() else 0, bits)
