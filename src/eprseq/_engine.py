"""Exhaustive GF(2)/GF(4) sweeps on the batched principal-minor kernel.

A symmetric order-n matrix is encoded as the integer whose bit fields
are the n(n+1)/2 upper-triangle entries in row-major order, one bit per
entry over GF(2) and two over GF(4); ascending code order is the
canonical enumeration order.  Only decode_entries, encode_entries and
code_matrix know this layout: everything else works on (n, n, B) entry
batches, the batch on the last axis.  Row 0 takes the lowest bits, so
each run of 2^(q n) consecutive codes (q bits per entry) shares its
trailing block A = B[1:, 1:].  The border sweep (sweep_keys) hands the
decoded A's to :func:`eprseq.sequence.minor_tables`, the char-2
bordering kernel that also computes single-matrix sequences, and reads
the letters of all 2^(q n) matrices bordering one A off A's packed table
and one border word per matrix: A where every minor of an order is
nonzero, N where none is.  The theorem suite's code maps (principal
submatrices, appended rows, inverses, Schur complements, congruences)
take entry batches too; inverses, and the order-(n-1) minors of the
terminal-AN check, come from GF(2) Gauss-Jordan elimination, never from
the minor table.

Everything here is internal plumbing for :mod:`eprseq.verify`.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .gfield import GF2, GF4, FieldSpec
from .matrix import SymMatrix
from .sequence import minor_tables

_MAX_TABLE_ORDER = 6

_LETTER_CHARS = "NSA"  # letter codes 0, 1, 2


def tri(n: int) -> int:
    return n * (n + 1) // 2


def _layout(n: int, spec: FieldSpec):
    """(shift, i, j) of every upper-triangle entry, in row-major code order."""
    for p, (i, j) in enumerate(combinations_with_replacement(range(n), 2)):
        yield spec.degree * p, i, j


def decode_entries(codes: np.ndarray, n: int, spec: FieldSpec = GF2) -> np.ndarray:
    """Entries (n, n, B) of the matrices encoded by ``codes``."""
    ent = np.empty((n, n, codes.size), np.uint8)
    for shift, i, j in _layout(n, spec):
        ent[i, j] = ent[j, i] = (codes >> shift) & (spec.order - 1)
    return ent


def encode_entries(ent: np.ndarray, spec: FieldSpec = GF2) -> np.ndarray:
    """Codes of the symmetric matrices in an (n, n, B) entry batch."""
    codes = np.zeros(ent.shape[2], np.uint32)
    for shift, i, j in _layout(ent.shape[0], spec):
        codes |= ent[i, j].astype(np.uint32) << shift
    return codes


def code_matrix(code: int, n: int, spec: FieldSpec = GF2) -> SymMatrix:
    """The matrix encoded by one code."""
    rows = [[0] * n for _ in range(n)]
    for shift, i, j in _layout(n, spec):
        rows[i][j] = rows[j][i] = (code >> shift) & (spec.order - 1)
    return SymMatrix(spec, rows)


@lru_cache(maxsize=None)
def _subset_masks(n: int, q: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Masks of words holding one q-bit field per subset T of a trailing block's
    n - 1 indices, at bit q*T: (bit 0 of the fields of each size 0..n, the
    whole fields of the T without index a, for each a < n - 1)."""
    sizes, without = [0] * (n + 1), [0] * (n - 1)
    for t in range(1 << (n - 1)):
        sizes[t.bit_count()] |= 1 << (q * t)
        for a in range(n - 1):
            if not t >> a & 1:
                without[a] |= ((1 << q) - 1) << (q * t)
    return tuple(sizes), tuple(without)


def _times_x(word: np.ndarray, e: int, low: int) -> np.ndarray:
    """x^e times every GF(4) field of a packed word (x^2 = x + 1); low masks bit 0."""
    for _ in range(e):
        a, b = word & low, (word >> 1) & low
        word = b | ((a ^ b) << 1)  # x (a + b x) = b + (a + b) x
    return word


def sweep_keys(start: int, stop: int, n: int, spec: FieldSpec = GF2) -> np.ndarray:
    """Letter keys (letter k in bits 2k-2, 2k-1; 0=N, 1=S, 2=A) of codes start..stop-1.

    Row 0 of B takes the lowest q*n code bits (q = spec.degree), so both
    bounds being multiples of 2^(q n) makes the range whole runs of codes
    that share their trailing block A = B[1:, 1:].  The minors without
    index 0 are A's: one minor_tables call per A, packed into one word of
    q-bit fields.  The minors with index 0 are
    det B[{0} u T] = b_00 det A[T] + sum_{i in T} b_0i^2 det A[T - {i}],
    GF(2)-linear in the bits of row 0, so their word U(r) for row bits r
    is the XOR of one column word per set bit: bit t of b_00 multiplies
    A's word by x^t, bit t of b_0i (Frobenius: b^2 is additive) multiplies
    A's word shifted onto the T holding i by x^(2t).  Every U(r) comes by
    doubling, U <- [U, U ^ col], so r ascends in code order; a letter is
    read off mask tests on A's word and U(r).
    """
    q = spec.degree
    dtype = np.uint32 if q << (n - 1) <= 32 else np.uint64
    sizes, without = _subset_masks(n, q)
    low = sum(sizes)  # bit 0 of every field
    blocks = np.arange(start >> (q * n), stop >> (q * n), dtype=np.uint32)
    word = np.zeros(blocks.size, dtype)
    for t, row in enumerate(minor_tables(decode_entries(blocks, n - 1, spec), spec)):
        word |= row.astype(dtype) << (q * t)
    u = np.empty((blocks.size, 1 << (q * n)), dtype)
    u[:, 0] = 0
    width = 1
    for p in range(n):
        base = word if p == 0 else (word & without[p - 1]) << (q << (p - 1))
        for t in range(q):
            col = _times_x(base, t if p == 0 else 2 * t, low)
            np.bitwise_xor(u[:, :width], col[:, None], out=u[:, width : 2 * width])
            width *= 2
    if q > 1:  # fold each field's value onto its bit 0: nonzero or not
        word = (word | word >> 1) & low
        u = (u | u >> 1) & low
    keys = np.zeros(u.shape, np.uint16)
    for k in range(1, n + 1):
        m, ma = sizes[k - 1], sizes[k]
        hit = u & m
        every = (hit == m) & ((word & ma) == ma)[:, None]
        some = (hit != 0) | ((word & ma) != 0)[:, None]
        keys |= (some.view(np.uint8) + every).astype(np.uint16) << (2 * k - 2)
    return keys.ravel()


@lru_cache(maxsize=None)
def letter_arrays(n: int) -> tuple[np.ndarray, ...]:
    """Letter arrays over all codes of order n (cached; n <= 6)."""
    if n > _MAX_TABLE_ORDER:
        raise ValueError(f"letter arrays are built up to order {_MAX_TABLE_ORDER}")
    keys = sweep_keys(0, 1 << tri(n), n)
    letters = tuple(((keys >> (2 * k)) & 3).astype(np.uint8) for k in range(n))
    for arr in letters:
        arr.setflags(write=False)
    return letters


@lru_cache(maxsize=None)
def det_table(k: int) -> np.ndarray:
    """det (0/1) of every symmetric k x k GF(2) matrix, indexed by code."""
    if k == 0:
        return np.ones(1, np.uint8)
    table = (letter_arrays(k)[k - 1] == 2).view(np.uint8)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def rank_array(n: int) -> np.ndarray:
    """Rank of every code: largest order with a nonzero principal minor."""
    letters = letter_arrays(n)
    rank = np.zeros(1 << tri(n), np.uint8)
    for k in range(1, n + 1):
        rank = np.where(letters[k - 1] != 0, k, rank).astype(np.uint8)
    rank.setflags(write=False)
    return rank


def letters_to_keys(letters: np.ndarray) -> np.ndarray:
    key = np.zeros(len(letters[0]), np.uint32)
    for k, arr in enumerate(letters):
        key |= arr.astype(np.uint32) << (2 * k)
    return key


def key_to_word(key: int, n: int) -> str:
    return "".join(_LETTER_CHARS[(key >> (2 * k)) & 3] for k in range(n))


def _merge_chunks(results, n):
    counts: dict[str, int] = {}
    exemplar: dict[str, int] = {}
    for keys, idx, cnt, offset in results:
        for key, first, c in zip(keys.tolist(), idx.tolist(), cnt.tolist()):
            word = key_to_word(key, n)
            counts[word] = counts.get(word, 0) + c
            if word not in exemplar:
                exemplar[word] = first + offset
    return counts, exemplar


def _catalog(n: int, spec: FieldSpec, jobs: int):
    """Counts and first-attaining codes of every epr word at order n over spec.

    Work is split into contiguous code ranges of whole trailing blocks
    (the partition depends on the job count) run on at most
    os.cpu_count() threads; the merge is commutative, so the result is
    identical for any job count.
    """
    block = 1 << (spec.degree * n)  # the codes sharing one trailing block
    total = 1 << (spec.degree * tri(n))
    chunk = max(1 << 16, -(-total // max(1, 4 * jobs)))
    chunk = -(-min(chunk, 1 << 20) // block) * block  # bounds per-chunk memory for the gated sweeps

    def process(start: int, stop: int):
        keys = sweep_keys(start, stop, n, spec)
        cnt = np.bincount(keys, minlength=1 << (2 * n))
        present = np.flatnonzero(cnt)
        first = np.array([np.argmax(keys == key) for key in present.tolist()])
        return present, first, cnt[present], start

    ranges = [(a, min(a + chunk, total)) for a in range(0, total, chunk)]
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1 and len(ranges) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda r: process(*r), ranges))
    else:
        results = [process(*r) for r in ranges]
    return _merge_chunks(results, n)


def catalog_gf2(n: int, jobs: int = 1):
    """Counts and first-attaining codes of every GF(2) epr word at order n."""
    return _catalog(n, GF2, jobs)


def catalog_gf4(n: int, jobs: int = 1):
    """Counts and first-attaining codes of every GF(4) epr word at order n."""
    return _catalog(n, GF4, jobs)


# ---------------------------------------------------------------------------
# GF(2) code maps of the theorem suite, on entry batches
# ---------------------------------------------------------------------------

def gather_codes(ent: np.ndarray, idx: tuple[int, ...]) -> np.ndarray:
    """Codes of ent[idx][:, idx]; index n stands for an appended zero row."""
    if ent.shape[0] in idx:
        ent = np.pad(ent, ((0, 1), (0, 1), (0, 0)))
    return encode_entries(ent[np.ix_(idx, idx)])


def gf2_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products over GF(2) of (r, t, B) and (t, c, B) 0/1 batches (B may broadcast)."""
    out = np.zeros((a.shape[0], b.shape[1], max(a.shape[2], b.shape[2])), np.uint8)
    for t in range(a.shape[1]):
        out ^= a[:, t, None] & b[None, t]
    return out


def gf2_inverse(ent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(det, inverse) of a (k, k, B) batch of GF(2) matrices (Gauss-Jordan).

    The inverse is meaningful only where det is 1.
    """
    k = ent.shape[0]
    aug = np.zeros((k, 2 * k, ent.shape[2]), np.uint8)
    aug[:, :k] = ent
    aug[range(k), range(k, 2 * k)] = 1
    det = np.ones(ent.shape[2], np.uint8)
    for j in range(k):
        for r in range(j + 1, k):  # a zero pivot takes the first later row with a 1
            aug[j] ^= aug[r] & (aug[r, j] > aug[j, j])
        det &= aug[j, j]
        for r in range(k):
            if r != j:
                aug[r] ^= aug[j] & aug[r, j]
    return det, aug[:, k:]


def deleted_minors(ent: np.ndarray) -> np.ndarray:
    """(n, n, B) GF(2) minors: entry (i, j) is det of ent without row i and column j."""
    n = ent.shape[0]
    keep = [[r for r in range(n) if r != i] for i in range(n)]
    return np.array(
        [[gf2_inverse(ent[np.ix_(keep[i], keep[j])])[0] for j in range(n)] for i in range(n)]
    )


def schur_entries(ent: np.ndarray, alpha: tuple[int, ...]) -> np.ndarray:
    """B / B[alpha] for a batch whose pivot blocks B[alpha] are nonsingular."""
    comp = [i for i in range(ent.shape[0]) if i not in alpha]
    cross = ent[np.ix_(comp, alpha)]
    y = gf2_matmul(cross, gf2_inverse(ent[np.ix_(alpha, alpha)])[1])
    return ent[np.ix_(comp, comp)] ^ gf2_matmul(y, cross.transpose(1, 0, 2))


def congruence_entries(ent: np.ndarray, e: list[list[int]]) -> np.ndarray:
    """E B E^T for one fixed 0/1 matrix E."""
    e = np.array(e, np.uint8)[:, :, None]
    return gf2_matmul(gf2_matmul(e, ent), e.transpose(1, 0, 2))
