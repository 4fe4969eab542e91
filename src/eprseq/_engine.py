"""Batched numpy kernels on (n, n, B) entry batches, the oracle of the
theorem suite's bit-sliced ones.

minor_tables is the batched char-2 bordering kernel, the principal-minor
table of each matrix of a batch (eprseq.sequence.minor_planes builds it
for one matrix, eprseq._sweep bit-sliced across a batch).  The code maps
(submatrices, appended rows, inverses, Schur complements, congruences)
map batches to batches over any GF(2^k).  Each kernel takes one path for
every batch, B = 0 included: every product is FieldSpec.mul on whole
arrays, and inverses and deleted minors come by batched Gauss-Jordan
elimination.  No module of the package imports this one: the tests hold
eprseq._suite's bit-sliced kernels to these, and bench/tracer.py times
det_table, letter_arrays and rank_array here, and catalog_gf2, catalog_gf4
and _merge_chunks, eprseq._sweep's, under the names they have here.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._sweep import _layout, _merge_chunks, catalog_gf2, catalog_gf4, tri  # noqa: F401
from .gfield import GF2, FieldSpec, _inverse_table

_MAX_TABLE_ORDER = 6

# codes per minor table over every code of one order (letter_arrays, the theorem
# suite's per-code halves): runs of 2^13 raised check-theorems' peak RSS from
# about 37.5 to 37.8 MiB, runs of 2^11 lowered it no further
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
    in runs of _RUN_CODES codes (runs of 2^16 raised check-theorems' peak RSS by 2.8 MiB)."""
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


# ---------------------------------------------------------------------------
# code maps of the theorem suite, on entry batches over any GF(2^k)
# ---------------------------------------------------------------------------

def gather_entries(ent: np.ndarray, idx: tuple[int, ...]) -> np.ndarray:
    """Entries of ent[idx][:, idx]; index n stands for an appended zero row."""
    return np.pad(ent, ((0, 1), (0, 1), (0, 0)))[np.ix_(idx, idx)]


def matmul(a: np.ndarray, b: np.ndarray, spec: FieldSpec = GF2) -> np.ndarray:
    """Products over spec of (r, t, B) and (t, c, B) batches (B may broadcast)."""
    out = np.zeros((a.shape[0], b.shape[1], *np.broadcast_shapes(a.shape[2:], b.shape[2:])), np.uint8)
    for t in range(a.shape[1]):
        out ^= spec.mul(a[:, t, None], b[None, t])
    return out


def inverse(ent: np.ndarray, spec: FieldSpec = GF2) -> tuple[np.ndarray, np.ndarray]:
    """(det, inverse) of a (k, k, B) batch of matrices over spec (Gauss-Jordan).

    The inverse is meaningful only where det is nonzero.
    """
    k = ent.shape[0]
    aug = np.zeros((k, 2 * k, ent.shape[2]), np.uint8)
    aug[:, :k] = ent
    aug[range(k), range(k, 2 * k)] = 1
    det = np.ones(ent.shape[2], np.uint8)
    recip = np.array(_inverse_table(spec), np.uint8)  # 1/c, and 0 for 0
    for j in range(k):
        for r in range(j + 1, k):  # while the pivot is zero, add each later row to its row
            aug[j] ^= aug[r] * (aug[j, j] == 0).view(np.uint8)
        det = spec.mul(det, aug[j, j])
        aug[j] = spec.mul(recip[aug[j, j]], aug[j])
        for r in range(k):
            if r != j:
                aug[r] ^= spec.mul(aug[r, j], aug[j])
    return det, aug[:, k:]


def deleted_minors(ent: np.ndarray, spec: FieldSpec = GF2) -> np.ndarray:
    """(n, n, B) minors: entry (i, j) is det of ent without row i and column j."""
    n = ent.shape[0]
    keep = [[r for r in range(n) if r != i] for i in range(n)]
    # one elimination for all n^2 submatrices: call overhead dominates small batches
    subs = np.concatenate([ent[np.ix_(keep[i], keep[j])] for i in range(n) for j in range(n)], axis=2)
    return inverse(subs, spec)[0].reshape(n, n, ent.shape[2])


def schur_entries(ent: np.ndarray, alpha: tuple[int, ...], spec: FieldSpec = GF2) -> np.ndarray:
    """B / B[alpha] for a batch whose pivot blocks B[alpha] are nonsingular."""
    comp = [i for i in range(ent.shape[0]) if i not in alpha]
    rows = ent.take(comp, axis=0)  # take gathers faster than np.ix_
    cross = rows.take(alpha, axis=1)
    y = matmul(cross, inverse(ent.take(alpha, axis=0).take(alpha, axis=1), spec)[1], spec)
    return rows.take(comp, axis=1) ^ matmul(y, cross.transpose(1, 0, 2), spec)


def congruence_entries(ent: np.ndarray, e, spec: FieldSpec = GF2) -> np.ndarray:
    """E B E^T for one matrix E (n, n) or a batch of them (n, n, B)."""
    e = np.asarray(e, np.uint8).reshape(len(e), len(e), -1)
    return matmul(matmul(e, ent, spec), e.transpose(1, 0, 2), spec)
