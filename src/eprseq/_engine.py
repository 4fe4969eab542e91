"""Exhaustive GF(2^k) sweeps on the batched principal-minor kernel.

A symmetric order-n matrix is encoded as the integer whose bit fields
are the n(n+1)/2 upper-triangle entries in row-major order, q bits per
entry over GF(2^q) (one over GF(2), two over GF(4)); ascending code order is the
canonical enumeration order.  Only triangle_code, decode_entries and
code_rows know this layout (orbit_reps moves whole fields through it):
everything else works on (n, n, B) entry batches, the batch on the last
axis.  Row 0 takes the lowest bits, so each run of 2^(q n) consecutive
codes (q bits per entry) shares its trailing block A = B[1:, 1:].  The
border sweep (sweep_keys) hands a list of A's to minor_tables, the
batched char-2 bordering kernel (eprseq.sequence.minor_planes computes
the same table for one matrix without numpy), and reads the letters of
all 2^(q n) matrices bordering each A off A's packed table and one
border word per matrix: A where every minor of an order is nonzero, N
where none is.  The epr word is invariant under B -> P B P^T, so a
catalog borders only the least A of each S_(n-1) orbit (orbit_reps) and
weights its words by the orbit's size; it sweeps the reps in runs of
about _CHUNK_CODES codes, one sweep_keys call each, so its working set
stays near the L2 cache and its partition does not depend on the job
count.  letter_arrays sweeps every A, for the theorem suite.  The
theorem suite's code maps
(principal submatrices, appended rows, inverses, Schur complements,
congruences) map entry batches to entry batches over any GF(2^k):
products are bit-sliced as in minor_tables, and inverses, and the
order-(n-1) minors of the terminal-AN check, come from batched
Gauss-Jordan elimination, never from the minor table.  table_letters
reads the letters of any batch off its own minor table, as one (n, B)
array.

Everything here is internal plumbing for :mod:`eprseq.verify`.
"""

from __future__ import annotations

import os
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

import numpy as np

from .gfield import GF2, GF4, FieldSpec, _inverse_table
from .matrix import SymMatrix

_MAX_TABLE_ORDER = 6

# Codes per sweep chunk, whatever the job count: a chunk's keys and border
# words (about 12 bytes a code) stay near a 2 MiB L2 cache.  Larger chunks
# spill it; smaller ones pay more per-chunk overhead (2^16 made the GF(2)
# n = 7 sweep slower on two threads).
_CHUNK_CODES = 1 << 17

_LETTER_CHARS = "NSA"  # letter codes 0, 1, 2


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
    a plain XOR (c = 1) or a lookup in the row of c; otherwise c * v is taken
    bit-sliced by times, which avoids a two-dimensional gather.
    """
    n, _, batch = entries.shape
    mul = _mul_table(spec)
    coef = mul.diagonal()[entries]  # b_ij^2, and b_jj on the diagonal
    coef.reshape(n * n, batch)[:: n + 1] = entries.reshape(n * n, batch)[:: n + 1]
    lo, hi = coef.min(axis=2).tolist(), coef.max(axis=2).tolist()
    dets = np.zeros((1 << n, batch), np.uint8)
    dets[0] = 1
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
            else:
                dst ^= times(coef[j, i], src, spec)
    return dets


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


def triangle_code(values, spec: FieldSpec = GF2) -> int:
    """Code of the matrix whose upper triangle, read row by row, holds values."""
    return sum(int(v) << (spec.degree * p) for p, v in enumerate(values))


def code_rows(code: int, n: int, spec: FieldSpec = GF2) -> list[list[int]]:
    """Rows of the matrix encoded by one code."""
    rows = [[0] * n for _ in range(n)]
    for shift, i, j in _layout(n, spec):
        rows[i][j] = rows[j][i] = (code >> shift) & (spec.order - 1)
    return rows


def code_matrix(code: int, n: int, spec: FieldSpec = GF2) -> SymMatrix:
    """The matrix encoded by one code."""
    return SymMatrix(spec, code_rows(code, n, spec))


def _permutation_tables(k: int, spec: FieldSpec) -> np.ndarray:
    """Byte lookup tables (k!, bytes, 256) of every permutation p of range(k):
    OR-ing table[p, b] at byte b of a code, over its bytes, gives the code of
    the matrix with entry (p(i), p(j)) = b_ij.  A bit moves with its field."""
    perms = np.array(list(permutations(range(k))), np.intp).reshape(-1, k)
    pos = np.zeros((k, k), np.intp)
    for shift, i, j in _layout(k, spec):
        pos[i, j] = pos[j, i] = shift
    src_i, src_j = np.triu_indices(k)  # row-major, as in _layout
    dest = pos[perms[:, src_i], perms[:, src_j]][:, :, None] + np.arange(spec.degree)
    nbits = spec.degree * tri(k)
    moved = np.zeros((len(perms), -(-nbits // 8) * 8), np.uint32)
    moved[:, :nbits] = np.uint32(1) << dest.reshape(len(perms), nbits).astype(np.uint32)
    bits = (np.arange(256, dtype=np.uint32)[:, None] >> np.arange(8, dtype=np.uint32)) & 1
    return moved.reshape(len(perms), -1, 8) @ bits.T


def orbit_reps(k: int, spec: FieldSpec = GF2) -> tuple[np.ndarray, np.ndarray]:
    """(least code, size k!/|Aut|) of every S_k orbit of symmetric order-k
    matrices over spec under B -> P B P^T, by ascending code.

    Row 0 takes the lowest q k bits, so an orbit's least code has a least
    trailing block B[1:, 1:] (a permutation fixing index 0 would otherwise
    lower it): the candidates, each order-(k-1) rep bordered by every row,
    hold every least code once.  A candidate is kept when no permutation of
    its entry fields lowers its code, and the permutations that keep it are
    its automorphisms.  Codes are uint32, so q tri(k) <= 32.
    """
    q = spec.degree
    if q * tri(k) > 32:
        raise ValueError(f"orbit codes of order {k} over {spec.name} exceed 32 bits")
    if k == 0:
        return np.zeros(1, np.uint32), np.ones(1, np.int64)
    prev = orbit_reps(k - 1, spec)[0]
    cand = (prev[:, None] << np.uint32(q * k) | np.arange(1 << (q * k), dtype=np.uint32)).ravel()
    tables = _permutation_tables(k, spec)
    aut = np.zeros(cand.size, np.int64)
    for table in tables:
        image = table[0][cand & 255]
        for b in range(1, len(table)):
            image |= table[b][cand >> np.uint32(8 * b) & 255]
        keep = image >= cand
        aut += image == cand
        if not keep.all():
            cand, aut = cand[keep], aut[keep]
    return cand, len(tables) // aut


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


def _times_x(word: np.ndarray, e: int, low: int, spec: FieldSpec) -> np.ndarray:
    """x^e times every q-bit field of a packed word over spec; low masks bit 0 of each."""
    q = spec.degree
    for _ in range(e):
        carry = (word >> (q - 1)) & low  # each field's x^(q-1) bit, reduced by the modulus
        word = ((word ^ (carry << (q - 1))) << 1) ^ carry * (spec.modulus ^ spec.order)
    return word


def _nonzero_fields(word: np.ndarray, q: int, low: int) -> np.ndarray:
    """Bit 0 of each q-bit field of a packed word set iff that field is nonzero."""
    out = word
    for s in range(1, q):  # shifts below q, so bit 0 sees only its own field
        out = out | word >> s
    return out & low


def sweep_keys(blocks: np.ndarray, n: int, spec: FieldSpec = GF2) -> np.ndarray:
    """Letter keys (letter k in bits 2k-2, 2k-1; 0=N, 1=S, 2=A) of the order-n
    matrices bordering each trailing-block code in blocks.

    Row 0 of B takes the lowest q*n code bits (q = spec.degree), so the
    code of B is (code of A = B[1:, 1:]) << q*n | r, r = row 0; the key of
    blocks[i] bordered by r is at index i * 2^(q n) + r.  The minors without
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
    word = np.zeros(len(blocks), dtype)
    for t, row in enumerate(minor_tables(decode_entries(blocks, n - 1, spec), spec)):
        word |= row.astype(dtype) << (q * t)
    u = np.empty((word.size, 1 << (q * n)), dtype)
    u[:, 0] = 0
    width = 1
    for p in range(n):
        base = word if p == 0 else (word & without[p - 1]) << (q << (p - 1))
        for t in range(q):
            col = _times_x(base, t if p == 0 else 2 * t, low, spec)
            np.bitwise_xor(u[:, :width], col[:, None], out=u[:, width : 2 * width])
            width *= 2
    if q > 1:
        word, u = _nonzero_fields(word, q, low), _nonzero_fields(u, q, low)
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
    keys = sweep_keys(np.arange(1 << tri(n - 1)), n)
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


def key_to_word(key: int, n: int) -> str:
    return "".join(_LETTER_CHARS[(key >> (2 * k)) & 3] for k in range(n))


def _merge_chunks(results, n):
    counts: dict[str, int] = {}
    exemplar: dict[str, int] = {}
    for keys, first, cnt in results:
        for key, code, c in zip(keys.tolist(), first, cnt.tolist()):
            word = key_to_word(key, n)
            counts[word] = counts.get(word, 0) + c
            exemplar.setdefault(word, code)
    return counts, exemplar


def _catalog(n: int, spec: FieldSpec, jobs: int):
    """Counts and first-attaining codes of every epr word at order n over spec.

    The word is invariant under B -> P B P^T, and a permutation fixing
    index 0 permutes the trailing block A = B[1:, 1:] alone, so the sweep
    borders one A per S_(n-1) orbit (orbit_reps) and weights each word by
    the orbit's size.  The first code attaining a word has a least trailing
    block (mapping A to its orbit's least code would lower it), so it is
    the first hit in (rep, row 0) order.  Work is split into runs of
    consecutive reps of about _CHUNK_CODES codes, whatever the job count;
    the runs go to at most os.cpu_count() threads, and the merge keeps the
    first run's exemplar, so the result is identical for any job count.
    """
    shift = spec.degree * n  # row 0's bits
    rows = 1 << shift
    reps, sizes = orbit_reps(n - 1, spec)
    step = max(1, _CHUNK_CODES // rows)

    def process(lo: int):
        keys = sweep_keys(reps[lo : lo + step], n, spec)
        # float weights are exact: counts stay far below 2^53 (2^30 at the gated orders)
        weights = np.repeat(sizes[lo : lo + step].astype(float), rows)
        cnt = np.bincount(keys, weights, minlength=1 << (2 * n))
        present = np.flatnonzero(cnt)
        first = (int(np.argmax(keys == key)) for key in present.tolist())
        codes = [int(reps[lo + i // rows]) << shift | i % rows for i in first]
        return present, codes, cnt[present].astype(np.int64)

    starts = range(0, len(reps), step)
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1 and len(starts) > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(process, starts))
    else:
        results = [process(lo) for lo in starts]
    return _merge_chunks(results, n)


def catalog_gf2(n: int, jobs: int = 1):
    """Counts and first-attaining codes of every GF(2) epr word at order n."""
    return _catalog(n, GF2, jobs)


def catalog_gf4(n: int, jobs: int = 1):
    """Counts and first-attaining codes of every GF(4) epr word at order n."""
    return _catalog(n, GF4, jobs)


# ---------------------------------------------------------------------------
# code maps of the theorem suite, on entry batches over any GF(2^k)
# ---------------------------------------------------------------------------

def gather_entries(ent: np.ndarray, idx: tuple[int, ...]) -> np.ndarray:
    """Entries of ent[idx][:, idx]; index n stands for an appended zero row."""
    if ent.shape[0] in idx:
        ent = np.pad(ent, ((0, 1), (0, 1), (0, 0)))
    return ent[np.ix_(idx, idx)]


def times(a: np.ndarray, b: np.ndarray, spec: FieldSpec = GF2) -> np.ndarray:
    """a * b entrywise over spec (broadcasting), bit-sliced: the XOR over the
    bits t of b of a x^t, which over GF(2) is a & b."""
    if spec.degree == 1:
        return a & b
    out = a * (b & 1)
    for t in range(1, spec.degree):
        out ^= _mul_table(spec)[a, 1 << t] * (b >> t & 1)
    return out


def matmul(a: np.ndarray, b: np.ndarray, spec: FieldSpec = GF2) -> np.ndarray:
    """Products over spec of (r, t, B) and (t, c, B) batches (B may broadcast)."""
    out = np.zeros((a.shape[0], b.shape[1], max(a.shape[2], b.shape[2])), np.uint8)
    for t in range(a.shape[1]):
        out ^= times(a[:, t, None], b[None, t], spec)
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
        det = times(det, aug[j, j], spec)
        if spec.degree > 1:  # over GF(2) every nonzero pivot is already 1
            aug[j] = times(recip[aug[j, j]], aug[j], spec)
        for r in range(k):
            if r != j:
                aug[r] ^= times(aug[r, j], aug[j], spec)
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
