"""Exhaustive GF(2)/GF(4) sweeps on the batched principal-minor kernel.

A symmetric order-n matrix is encoded as the integer whose bit fields
are the n(n+1)/2 upper-triangle entries in row-major order, one bit per
entry over GF(2) and two over GF(4); ascending code order is the
canonical enumeration order.  A batch of codes is decoded into an
(n, n, B) entry array and handed to :func:`eprseq.sequence.minor_tables`,
the char-2 bordering kernel that also computes single-matrix sequences,
and every letter is read off its (2^n, B) table of principal minors:
A where every minor of an order is nonzero, N where none is.

Everything here is internal plumbing for :mod:`eprseq.verify`.
"""

from __future__ import annotations

import os
from functools import lru_cache

import numpy as np

from .gfield import GF2, GF4, FieldSpec
from .sequence import DEFAULT_MAX_ORDER, minor_tables

_MAX_TABLE_ORDER = 6

_LETTER_CHARS = "NSA"  # letter codes 0, 1, 2


def tri(n: int) -> int:
    return n * (n + 1) // 2


@lru_cache(maxsize=None)
def _positions(n: int) -> dict[tuple[int, int], int]:
    pos = {}
    p = 0
    for i in range(n):
        for j in range(i, n):
            pos[(i, j)] = p
            p += 1
    return pos


def pos_of(n: int, i: int, j: int) -> int:
    if i > j:
        i, j = j, i
    return _positions(n)[(i, j)]


def decode_entries(codes: np.ndarray, n: int, spec: FieldSpec = GF2) -> np.ndarray:
    """Entries (n, n, B) of the matrices encoded by ``codes``."""
    ent = np.empty((n, n, codes.size), np.uint8)
    for (i, j), p in _positions(n).items():
        ent[i, j] = ent[j, i] = (codes >> (spec.degree * p)) & (spec.order - 1)
    return ent


@lru_cache(maxsize=None)
def _order_classes(n: int) -> list[np.ndarray]:
    """The subset masks of each size 1..n."""
    return [np.array([m for m in range(1 << n) if m.bit_count() == k]) for k in range(1, n + 1)]


def code_letters(codes: np.ndarray, n: int, spec: FieldSpec = GF2) -> np.ndarray:
    """Letter codes (0=N, 1=S, 2=A), shape (n, B), of the matrices encoded by ``codes``.

    Codes go through the kernel in batches whose (2^n, B) minor table
    stays within 2^DEFAULT_MAX_ORDER bytes, the table of one order-24 matrix.
    """
    letters = np.empty((n, codes.size), np.uint8)
    step = 1 << (DEFAULT_MAX_ORDER - n)
    for a in range(0, codes.size, step):
        dets = minor_tables(decode_entries(codes[a : a + step], n, spec), spec)
        for k, masks in enumerate(_order_classes(n)):
            minors = dets[masks]  # every order-(k + 1) principal minor
            some = minors.max(axis=0) != 0
            every = minors.min(axis=0) != 0
            letters[k, a : a + step] = some.view(np.uint8) + every  # N=0, S=1, A=2
    return letters


@lru_cache(maxsize=None)
def letter_arrays(n: int) -> tuple[np.ndarray, ...]:
    """Letter arrays over all codes of order n (cached; n <= 6)."""
    if n > _MAX_TABLE_ORDER:
        raise ValueError(f"letter arrays are built up to order {_MAX_TABLE_ORDER}")
    letters = code_letters(np.arange(1 << tri(n), dtype=np.uint32), n)
    letters.setflags(write=False)
    return tuple(letters)


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


def subcode_gather(codes: np.ndarray, n: int, alpha: tuple[int, ...]) -> np.ndarray:
    """Codes of the principal submatrices on 0-based index tuple alpha."""
    k = len(alpha)
    if k == n:
        return codes
    sub = np.zeros_like(codes)
    for r in range(k):
        for s in range(r, k):
            src = pos_of(n, alpha[r], alpha[s])
            dst = pos_of(k, r, s)
            sub |= ((codes >> src) & 1) << dst
    return sub


def letters_to_keys(letters: np.ndarray) -> np.ndarray:
    key = np.zeros(letters.shape[1], np.uint32)
    for k, arr in enumerate(letters):
        key |= arr.astype(np.uint32) << (2 * k)
    return key


def key_to_word(key: int, n: int) -> str:
    return "".join(_LETTER_CHARS[(key >> (2 * k)) & 3] for k in range(n))


def gf2_entries_from_code(code: int, n: int) -> list[list[int]]:
    ent = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            bit = (code >> pos_of(n, i, j)) & 1
            ent[i][j] = ent[j][i] = int(bit)
    return ent


def gf4_entries_from_code(code: int, n: int) -> list[list[int]]:
    ent = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = (code >> (2 * pos_of(n, i, j))) & 3
            ent[i][j] = ent[j][i] = int(v)
    return ent


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

    Work is split into contiguous code ranges (the partition depends on
    the job count) run on at most os.cpu_count() threads; the merge is
    commutative, so the result is identical for any job count.
    """
    total = 1 << (spec.degree * tri(n))
    chunk = max(1 << 16, -(-total // max(1, 4 * jobs)))
    chunk = min(chunk, 1 << 20)  # bound per-chunk memory for the n=7 sweep

    def process(start: int, stop: int):
        keys = letters_to_keys(code_letters(np.arange(start, stop, dtype=np.uint32), n, spec))
        uniq, idx, cnt = np.unique(keys, return_index=True, return_counts=True)
        return uniq, idx, cnt, start

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


def catalog_gf4(n: int):
    """Counts and first-attaining codes over GF(4) at order n (n <= 4)."""
    return _catalog(n, GF4, 1)


# ---------------------------------------------------------------------------
# bit-packed rows for the structural code maps used by the theorem suite
# ---------------------------------------------------------------------------

def decode_rows(codes: np.ndarray, n: int) -> np.ndarray:
    """Bit-packed rows (B, n) of the matrices encoded by ``codes``."""
    rows = np.zeros((codes.size, n), np.uint16)
    for i in range(n):
        acc = np.zeros(codes.size, np.uint32)
        for j in range(n):
            acc |= ((codes >> pos_of(n, i, j)) & 1) << j
        rows[:, i] = acc
    return rows


def encode_rows(rows: np.ndarray, n: int) -> np.ndarray:
    """Inverse of decode_rows (assumes each matrix is symmetric)."""
    codes = np.zeros(rows.shape[0], np.uint32)
    for i in range(n):
        for j in range(i, n):
            codes |= ((rows[:, i].astype(np.uint32) >> j) & 1) << pos_of(n, i, j)
    return codes


def batch_jordan_inverse2(rows: np.ndarray, k: int) -> np.ndarray:
    """Inverses of a batch of nonsingular bit-packed k x k matrices."""
    batch = rows.shape[0]
    aug = rows.astype(np.uint16).copy()
    for s in range(k):
        aug[:, s] |= np.uint16(1 << (k + s))
    ar = np.arange(batch)
    for j in range(k):
        has = (aug[:, j:] >> j) & 1
        piv = j + has.argmax(axis=1)
        pivrow = aug[ar, piv]
        aug[ar, piv] = aug[:, j]
        aug[:, j] = pivrow
        mask = ((aug >> j) & 1).astype(np.uint16)
        mask[:, j] = 0
        aug ^= mask * pivrow[:, None]
    return aug >> k


_PARITY = np.array([bin(v).count("1") & 1 for v in range(1 << 8)], np.uint8)


def compress(rows: np.ndarray, sel_rows: tuple[int, ...], sel_cols: tuple[int, ...]) -> np.ndarray:
    """Pack entries at (sel_rows x sel_cols) into fresh little bit rows."""
    out = np.zeros((rows.shape[0], len(sel_rows)), np.uint16)
    picked = rows[:, sel_rows]
    for t, j in enumerate(sel_cols):
        out |= ((picked >> j) & 1) << t
    return out


def batch_schur_codes2(codes: np.ndarray, n: int, alpha: tuple[int, ...]) -> np.ndarray:
    """Codes of B / B[alpha] for codes whose pivot block is nonsingular."""
    k = len(alpha)
    comp = tuple(i for i in range(n) if i not in alpha)
    m = len(comp)
    rows = decode_rows(codes, n)
    block = compress(rows, alpha, alpha)
    block_inv = batch_jordan_inverse2(block, k)
    cross = compress(rows, comp, alpha)
    y = np.zeros_like(cross)
    for s in range(k):
        y ^= ((cross >> s) & 1) * block_inv[:, s][:, None]
    ccodes = np.zeros(codes.size, np.uint32)
    for r in range(m):
        for t in range(r, m):
            base = (rows[:, comp[r]] >> comp[t]) & 1
            prod = _PARITY[y[:, r] & cross[:, t]]
            ccodes |= ((base ^ prod).astype(np.uint32)) << pos_of(m, r, t)
    return ccodes


def batch_inverse_codes2(codes: np.ndarray, n: int) -> np.ndarray:
    """Codes of the inverses of nonsingular codes."""
    inv_rows = batch_jordan_inverse2(decode_rows(codes, n), n)
    return encode_rows(inv_rows, n)


def append_zero_codes(codes: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros_like(codes)
    for i in range(n):
        for j in range(i, n):
            out |= ((codes >> pos_of(n, i, j)) & 1) << pos_of(n + 1, i, j)
    return out


def append_duplicate_codes(codes: np.ndarray, n: int) -> np.ndarray:
    out = append_zero_codes(codes, n)
    for i in range(n):
        out |= ((codes >> pos_of(n, i, n - 1)) & 1) << pos_of(n + 1, i, n)
    out |= ((codes >> pos_of(n, n - 1, n - 1)) & 1) << pos_of(n + 1, n, n)
    return out


def congruence_codes(codes: np.ndarray, n: int, e_rows: list[int]) -> np.ndarray:
    """Codes of E B E^T for a fixed invertible bit-row matrix E."""
    rows = decode_rows(codes, n)
    eb = np.zeros_like(rows)
    for i in range(n):
        acc = np.zeros(codes.size, np.uint16)
        for j in range(n):
            if (e_rows[i] >> j) & 1:
                acc ^= rows[:, j]
        eb[:, i] = acc
    out = np.zeros_like(codes)
    for i in range(n):
        for t in range(i, n):
            bit = _PARITY[eb[:, i] & np.uint16(e_rows[t])]
            out |= bit.astype(np.uint32) << pos_of(n, i, t)
    return out
