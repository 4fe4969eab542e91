"""Batched numpy principal-minor tables on (n, n, B) entry batches: the
tests' oracle of the bit-sliced table kernels, and the tables
bench/tracer.py times.

minor_tables is the batched char-2 bordering kernel, the principal-minor
table of each matrix of a batch (eprseq.sequence.minor_planes builds it
for one matrix, eprseq._sweep bit-sliced across a batch); table_letters
and ranks read letters and ranks off it, and decode_entries turns
triangle codes into entry batches.  Each takes one path for every batch,
B = 0 included, and every product is FieldSpec.mul on whole arrays.

No module of the package imports this one.  The tests hold the other
two table kernels, and so every eprseq._suite batch, to minor_tables;
the suite's code maps they hold to SymMatrix and the Laplace oracle
directly.  bench/tracer.py times det_table, letter_arrays and
rank_array, which stay for it alone, and catalog_gf2, catalog_gf4 and
_merge_chunks, eprseq._sweep's, under the names they have here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._sweep import _layout, _merge_chunks, catalog_gf2, catalog_gf4, tri  # noqa: F401
from .gfield import GF2, FieldSpec

_MAX_TABLE_ORDER = 6

# codes per minor table in letter_arrays
_RUN_CODES = 1 << 12


def minor_tables(entries: np.ndarray, spec: FieldSpec) -> np.ndarray:
    """det B[S] for every subset S of each matrix in a batch.

    ``entries`` is a uint8 array (n, n, B) holding B symmetric matrices, the
    batch on the last axis (B may be 0); the result is a uint8 array (2^n, B)
    indexed by bitmask (bit i selects index i + 1; det B[{}] = 1).  In
    characteristic 2 the cross terms of c^T adj(A) c cancel in pairs, so with
    no pivot, for j > max S, det B[S + {j}] = b_jj det B[S] + sum_{i in S}
    b_ij^2 det B[S - {i}].  Each term is one product by FieldSpec.mul.
    """
    n, _, batch = entries.shape
    coef = spec.mul(entries, entries)  # b_ij^2, and b_jj on the diagonal
    coef.reshape(n * n, batch)[:: n + 1] = entries.reshape(n * n, batch)[:: n + 1]
    dets = np.zeros((1 << n, batch), np.uint8)
    dets[0] = 1
    for j in range(n):
        lower, upper = dets[: 1 << j], dets[1 << j : 2 << j]
        for i in range(j + 1):  # i == j is the b_jj term over every S
            halves = ((1 << j) >> (i + 1), 2, 1 << i, batch)  # S without and with i
            src = lower if i == j else lower.reshape(halves)[:, 0]
            dst = upper if i == j else upper.reshape(halves)[:, 1]
            dst ^= spec.mul(coef[j, i], src)
    return dets


def decode_entries(codes: np.ndarray, n: int, spec: FieldSpec = GF2) -> np.ndarray:
    """Entries (n, n, B) of the matrices encoded by ``codes``."""
    ent = np.empty((n, n, codes.size), np.uint8)
    for shift, i, j in _layout(n, spec):
        ent[i, j] = ent[j, i] = (codes >> shift) & (spec.order - 1)
    return ent


@lru_cache(maxsize=None)
def letter_arrays(n: int) -> tuple[np.ndarray, ...]:
    """Letter arrays over all codes of order n (cached; n <= 6), read off minor_tables
    in runs of _RUN_CODES codes."""
    if n > _MAX_TABLE_ORDER:
        raise ValueError(f"letter arrays are built up to order {_MAX_TABLE_ORDER}")
    total = 1 << tri(n)
    letters = np.empty((n, total), np.uint8)
    for lo in range(0, total, _RUN_CODES):
        codes = np.arange(lo, min(lo + _RUN_CODES, total))
        letters[:, lo : lo + codes.size] = table_letters(minor_tables(decode_entries(codes, n), GF2))
    letters.setflags(write=False)
    return tuple(letters)


@lru_cache(maxsize=None)
def det_table(k: int) -> np.ndarray:
    """det (0/1) of every symmetric k x k GF(2) matrix, indexed by code."""
    table = (letter_arrays(k)[k - 1] == 2).view(np.uint8)
    table.setflags(write=False)
    return table


@lru_cache(maxsize=None)
def rank_array(n: int) -> np.ndarray:
    """Rank of every code of order n."""
    rank = ranks(letter_arrays(n))
    rank.setflags(write=False)
    return rank


def ranks(letters) -> np.ndarray:
    """Rank of each matrix: the largest order with a nonzero principal minor."""
    rank = np.zeros(len(letters[0]), np.uint8)
    for k, arr in enumerate(letters, 1):
        rank[arr != 0] = k
    return rank


@lru_cache(maxsize=None)
def _rows_by_size(n: int) -> tuple[np.ndarray, ...]:
    """Minor-table rows of the subsets of range(n) of each size 1..n."""
    size = np.array([s.bit_count() for s in range(1 << n)])
    return tuple(np.flatnonzero(size == k) for k in range(1, n + 1))


def table_letters(dets: np.ndarray) -> np.ndarray:
    """Letters (0=N, 1=S, 2=A) of a (2^n, B) minor table as one (n, B) array:
    row k - 1 holds letter k of each column."""
    rows_by_size = _rows_by_size(len(dets).bit_length() - 1)
    letters = np.empty((len(rows_by_size), dets.shape[1]), np.uint8)
    for out, rows in zip(letters, rows_by_size):
        nz = dets[rows] != 0
        nz.any(axis=0, out=out.view(bool))
        out += nz.all(axis=0)
    return letters
