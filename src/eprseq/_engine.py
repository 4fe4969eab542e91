"""Exhaustive GF(2)/GF(4) sweeps on the batched principal-minor kernel.

A symmetric order-n matrix is encoded as the integer whose bit fields
are the n(n+1)/2 upper-triangle entries in row-major order, one bit per
entry over GF(2) and two over GF(4); ascending code order is the
canonical enumeration order.  Only decode_entries, encode_entries and
code_matrix know this layout: everything else works on (n, n, B) entry
batches, the batch on the last axis.  A batch of codes is decoded and
handed to :func:`eprseq.sequence.minor_tables`, the char-2 bordering
kernel that also computes single-matrix sequences, and every letter is
read off its (2^n, B) table of principal minors: A where every minor of
an order is nonzero, N where none is.  The theorem suite's code maps
(principal submatrices, appended rows, inverses, Schur complements,
congruences) take entry batches too; inverses come from GF(2)
Gauss-Jordan elimination, never from the minor table.

Everything here is internal plumbing for :mod:`eprseq.verify`.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .gfield import GF2, GF4, FieldSpec
from .matrix import SymMatrix
from .sequence import DEFAULT_MAX_ORDER, minor_tables

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


def gf2_inverse(ent: np.ndarray) -> np.ndarray:
    """Inverses of a (k, k, B) batch of nonsingular GF(2) matrices (Gauss-Jordan)."""
    k = ent.shape[0]
    aug = np.zeros((k, 2 * k, ent.shape[2]), np.uint8)
    aug[:, :k] = ent
    aug[range(k), range(k, 2 * k)] = 1
    for j in range(k):
        for r in range(j + 1, k):  # a zero pivot takes the first later row with a 1
            aug[j] ^= aug[r] & (aug[r, j] > aug[j, j])
        for r in range(k):
            if r != j:
                aug[r] ^= aug[j] & aug[r, j]
    return aug[:, k:]


def schur_entries(ent: np.ndarray, alpha: tuple[int, ...]) -> np.ndarray:
    """B / B[alpha] for a batch whose pivot blocks B[alpha] are nonsingular."""
    comp = [i for i in range(ent.shape[0]) if i not in alpha]
    cross = ent[np.ix_(comp, alpha)]
    y = gf2_matmul(cross, gf2_inverse(ent[np.ix_(alpha, alpha)]))
    return ent[np.ix_(comp, comp)] ^ gf2_matmul(y, cross.transpose(1, 0, 2))


def congruence_entries(ent: np.ndarray, e: list[list[int]]) -> np.ndarray:
    """E B E^T for one fixed 0/1 matrix E."""
    e = np.array(e, np.uint8)[:, :, None]
    return gf2_matmul(gf2_matmul(e, ent), e.transpose(1, 0, 2))
