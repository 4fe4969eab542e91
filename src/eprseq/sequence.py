"""Principal rank characteristic sequences.

For an order-n symmetric matrix B the epr-sequence is the word
``l_1 l_2 ... l_n`` over {A, S, N} where letter k records whether all,
some-but-not-all, or none of the order-k principal minors of B are
nonzero.  The pr-sequence ``r_0]r_1...r_n`` keeps one bit per order
(r_k = 1 iff some order-k principal minor is nonzero) plus the flag
r_0 = 1 iff B has a zero diagonal entry.

Both sequences are read off one table of all 2^n principal minors,
built by the characteristic-2 bordering identity in O(n 2^n) field
operations and 2^n bytes.  The kernel, minor_tables, builds the tables
of a whole batch of matrices at once; the exhaustive sweeps of
eprseq._engine feed it decoded batches, and principal_minors is its
one-matrix call.  A guardrail rejects orders above DEFAULT_MAX_ORDER
unless lifted explicitly, and no order whose table exceeds physical
memory is ever attempted.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .gfield import FieldSpec
# The elimination kernels stay importable here: bench/tracer.py wraps them by these names.
from .matrix import SymMatrix, _generic_det, _gf2_det  # noqa: F401

EPR_LETTERS = "ASN"
DEFAULT_MAX_ORDER = 24


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


@dataclass(frozen=True)
class PrSequence:
    """r0 flag plus the bit word r_1 ... r_n, rendered as "r0]bits"."""

    r0: int
    bits: str

    def __post_init__(self):
        if self.r0 not in (0, 1):
            raise ValueError(f"r0 must be 0 or 1, got {self.r0!r}")
        if not self.bits or any(b not in "01" for b in self.bits):
            raise ValueError(f"pr bits must be a nonempty 0/1 word, got {self.bits!r}")

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
    """Raise OrderLimitError above max_order, or when the 2^n-byte table would not
    fit in physical memory; max_order=None lifts only the first bound."""
    if max_order is not None and n > max_order:
        raise OrderLimitError(
            f"order {n} exceeds the guardrail {max_order} "
            "(the principal-minor table takes 2^n bytes)"
        )
    if 1 << n > _physical_memory():
        raise OrderLimitError(
            f"order {n} needs a 2^{n}-byte principal-minor table, "
            "more than this machine's physical memory"
        )


@lru_cache(maxsize=None)
def _mul_table(spec: FieldSpec) -> np.ndarray:
    q = range(spec.order)
    return np.array([[spec.mul(a, b) for b in q] for a in q], np.uint8)


def minor_tables(entries: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """det B[S] for every subset S of each matrix in a batch.

    ``entries`` is a uint8 array (n, n, B) holding B symmetric matrices, the
    batch on the last axis; the result is a uint8 array (2^n, B) indexed by
    bitmask (bit i selects index i + 1; det B[{}] = 1).  In characteristic 2
    the cross terms of c^T adj(A) c cancel in pairs, so with no pivot, for
    j > max S, det B[S + {j}] = b_jj det B[S] + sum_{i in S} b_ij^2 det B[S - {i}].
    A term whose coefficient c is one value in every column is skipped (c = 0),
    a plain XOR (c = 1) or a lookup in the row of c; otherwise c * v is the XOR
    over the bits t of v of c * x^t, which avoids a two-dimensional gather.
    """
    n, _, batch = entries.shape
    mul = _mul_table(spec)
    coef = mul.diagonal()[entries]  # b_ij^2, and b_jj on the diagonal
    coef.reshape(n * n, batch)[:: n + 1] = entries.reshape(n * n, batch)[:: n + 1]
    if batch == 1:  # two reductions would cost more than a small matrix's terms
        lo = hi = coef.reshape(n, n).tolist()
    else:
        lo, hi = coef.min(axis=2).tolist(), coef.max(axis=2).tolist()
    dets = np.zeros((1 << n, batch), np.uint8)
    dets[0] = 1
    scratch = np.empty_like(dets[: 1 << max(n - 1, 0)])
    for j in range(n):
        lower, upper = dets[: 1 << j], dets[1 << j : 2 << j]
        for i in range(j + 1):  # i == j is the b_jj term over every S
            c = hi[j][i]
            if not c:
                continue
            src = lower if i == j else lower.reshape(-1, 2, 1 << i, batch)[:, 0]
            dst = upper if i == j else upper.reshape(-1, 2, 1 << i, batch)[:, 1]
            if c == lo[j][i]:
                dst ^= src if c == 1 else mul[c][src]
                continue
            tmp = scratch[: src.size // batch].reshape(src.shape)
            for t in range(spec.degree):
                bit = np.right_shift(src, t, out=tmp) if t else src
                if t + 1 < spec.degree:
                    bit = np.bitwise_and(bit, 1, out=tmp)
                np.multiply(bit, mul[coef[j, i], 1 << t], out=tmp)
                dst ^= tmp
    return dets


def principal_minors(m: SymMatrix, max_order: int | None = DEFAULT_MAX_ORDER) -> np.ndarray:
    """det B[S] for every index subset S of one matrix: the B = 1 minor_tables call."""
    check_order(m.n, max_order)
    return minor_tables(np.array(m.rows, np.uint8).reshape(m.n, m.n, 1), m.spec)[:, 0]


_BYTE_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(1, np.uint8)
_POPCOUNT16 = np.add.outer(_BYTE_POPCOUNT, _BYTE_POPCOUNT).ravel()


def _nonzero_per_order(m: SymMatrix, max_order: int | None) -> list[int]:
    """Nonzero principal minors of each order 0..n."""
    if m.n < 1:
        raise ValueError("sequences are defined for order >= 1")
    # Blocks of at most 2^16 masks: bincount widens its input to intp.
    low = min(m.n, 16)
    pc = _POPCOUNT16[: 1 << low]
    counts = np.zeros(m.n + 1, np.int64)
    for high, block in enumerate(principal_minors(m, max_order).reshape(-1, 1 << low)):
        top = high.bit_count()
        counts[top : top + low + 1] += np.bincount(pc[block != 0], minlength=low + 1)
    return counts.tolist()


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
