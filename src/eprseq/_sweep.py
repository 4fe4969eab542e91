"""Exhaustive epr catalogs, bit-sliced across matrices in pure Python.

A symmetric order-n matrix is encoded as the integer whose bit fields
are its n(n+1)/2 upper-triangle entries in row-major order, q bits each
over GF(2^q); ascending code order is the enumeration order, and only
_layout and the functions beside it know the layout.  Row 0 takes the
lowest q n bits: B's code is (code of A = B[1:, 1:]) << q n | row 0.

The epr word is invariant under B -> P B P^T, so a catalog borders only
the least A of each S_(n-1) orbit (orbit_reps).  A run of R such reps of
one orbit size is swept at once, bit-sliced (Biham's DES): every entry
bit and principal minor of the R 2^(q n) bordered matrices is one Python
int whose bit r R + i stands for rep i bordered by row r.  A's minors
(R bits) come from the char-2 bordering identity, as in
eprseq.sequence.minor_planes; the minors with index 0,
det B[{0} u T] = b_00 det A[T] + sum_{i in T} b_0i^2 det A[T - {i}],
are GF(2)-linear in row 0's bits (b^2 is additive), so each comes by
doubling over them, [U, U ^ column].  A letter is an OR (some minor
nonzero) and an AND (all nonzero) of an order's planes; the words split
the run into masks, each counted as orbit size times popcount, with the
least rep, then least row, as exemplar.  Python int operations hold the
GIL, so the sweep runs on one thread.
"""

from __future__ import annotations

import re
from functools import lru_cache, reduce
from itertools import accumulate, chain, combinations_with_replacement, permutations
from math import factorial
from operator import or_, xor

from .gfield import GF2, GF4, FieldSpec
from .matrix import SymMatrix

# Bits per swept run (R 2^(q n) matrices): a few dozen live planes of 128 KiB;
# runs of 2^19 or 2^21 bits swept GF(4) n = 5 no faster, 2^18 slower.
_CHUNK_BITS = 1 << 20


def tri(n: int) -> int:
    return n * (n + 1) // 2


def _layout(n: int, spec: FieldSpec):
    """(shift, i, j) of every upper-triangle entry, in row-major code order."""
    for p, (i, j) in enumerate(combinations_with_replacement(range(n), 2)):
        yield spec.degree * p, i, j


def code_rows(code: int, n: int, spec: FieldSpec = GF2) -> list[list[int]]:
    """Rows of the matrix encoded by one code."""
    rows = [[0] * n for _ in range(n)]
    for shift, i, j in _layout(n, spec):
        rows[i][j] = rows[j][i] = (code >> shift) & (spec.order - 1)
    return rows


def code_matrix(code: int, n: int, spec: FieldSpec = GF2) -> SymMatrix:
    """The matrix encoded by one code."""
    return SymMatrix(spec, code_rows(code, n, spec))


def _transpose(values, width: int) -> list[int]:
    """Planes of ints below 2^width: bit i of plane p is bit p of values[i]."""
    text = "".join(format(v, f"0{width}b") for v in reversed(values))
    return [int(text[width - 1 - p :: width] or "0", 2) for p in range(width)]


def _repeat(x: int, width: int, total: int) -> int:
    """The width-bit x repeated up to total bits (total / width a power of two)."""
    while width < total:
        x |= x << width
        width <<= 1
    return x


def _counting(start: int, count: int, width: int, stride: int = 1) -> list[int]:
    """_transpose(range(start, start + count), width), each code's bit repeated over
    stride consecutive bits, for count a power of two dividing start: bit b of code
    start + r is bit b of r, a block pattern, below count, else bit b of start."""
    low, total = count.bit_length() - 1, stride * count
    return [
        _repeat(((1 << (stride << b)) - 1) << (stride << b), stride << (b + 1), total)
        if b < low
        else -(start >> b & 1) & ((1 << total) - 1)
        for b in range(width)
    ]


@lru_cache(maxsize=None)
def _powers(spec: FieldSpec) -> tuple[int, ...]:
    """x^e over spec for e < 3q."""
    return tuple(accumulate(range(3 * spec.degree - 1), lambda p, _: spec.mul(p, 2), initial=1))


def _linear(cols, a: list[int]) -> list[int]:
    """The GF(2)-linear map sending x^t to the field element cols[t], on planes a."""
    return [reduce(xor, (p for p, col in zip(a, cols) if col >> s & 1), 0) for s in range(len(a))]


def _add(a: list[int], b: list[int]) -> list[int]:
    return [x ^ y for x, y in zip(a, b)]


def _mul(a: list[int], b: list[int], powers) -> list[int]:
    """a * b = sum_{t,u} a_t b_u x^(t+u): each plane product a_t & b_u joins the
    planes of x^(t+u)'s bits.  Over GF(2) that is one AND."""
    if len(a) == 1:
        return [a[0] & b[0]]
    out = [0] * len(a)
    for t, x in enumerate(a):
        if x:
            for u, y in enumerate(b):
                xy = x & y
                if xy:
                    power = powers[t + u]
                    for s in range(len(out)):
                        if power >> s & 1:
                            out[s] ^= xy
    return out


@lru_cache(maxsize=None)
def orbit_reps(k: int, spec: FieldSpec = GF2) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(least codes, sizes k!/|Aut|) of the S_k orbits of symmetric order-k
    matrices over spec under B -> P B P^T, by ascending code.

    An orbit's least code has a least trailing block B[1:, 1:] (a
    permutation fixing index 0 would otherwise lower it), so the candidates
    are the order-(k-1) reps bordered by every row, bit-sliced as in the
    catalog sweep.  A permutation relabels their code-bit planes, and the
    image is compared with them from the top bit down while some stay
    undecided.  A candidate is kept when no permutation lowers it; those
    that fix it are counted in a bit-sliced counter.
    """
    if k == 0:
        return (0,), (1,)
    prev = orbit_reps(k - 1, spec)[0]
    q, reps = spec.degree, len(prev)
    width = reps << (q * k)
    planes = _counting(0, 1 << (q * k), q * k, reps)  # code bit b < q k is row bit b
    planes += [_repeat(p, reps, width) for p in _transpose(prev, q * tri(k - 1))]
    field = {(i, j): shift for shift, i, j in _layout(k, spec)}
    keep, aut = (1 << width) - 1, []
    for perm in permutations(range(k)):
        src = [0] * len(planes)  # the image's code bit b is the candidate's bit src[b]
        for (i, j), shift in field.items():
            image = field[tuple(sorted((perm[i], perm[j])))]
            src[image : image + q] = range(shift, shift + q)
        same, lower = keep, 0
        for b in reversed(range(len(planes))):
            differ = same & (planes[src[b]] ^ planes[b])
            lower |= differ & planes[b]  # the image has a 0 where the candidate has a 1
            same ^= differ
            if not same:
                break
        keep ^= lower
        for c, plane in enumerate(aut):  # aut += same, one counter per candidate
            if not same:
                break
            aut[c], same = plane ^ same, plane & same
        if same:
            aut.append(same)
    found = []
    while keep:  # one class per automorphism count
        low = keep & -keep
        count = sum(1 << c for c, plane in enumerate(aut) if plane & low)
        cls = keep
        for c, plane in enumerate(aut):
            cls &= plane if count >> c & 1 else cls ^ plane
        keep ^= cls
        spots = (divmod(m.start(), reps) for m in re.finditer("1", f"{cls:b}"[::-1]))  # (row, rep)
        found += [(prev[i] << (q * k) | r, factorial(k) // count) for r, i in spots]
    return tuple(zip(*sorted(found)))


def _entry_grid(bits: list[int], n: int, spec: FieldSpec) -> list[list[list[int]]]:
    """Entry planes of order-n matrices off the planes of their codes' bits
    (_transpose): bit r of grid[i][j][t] is bit t of entry (i, j) of code r."""
    q = spec.degree
    grid = [[None] * n for _ in range(n)]
    for shift, i, j in _layout(n, spec):
        grid[i][j] = grid[j][i] = bits[shift : shift + q]
    return grid


def _minor_table(grid, ones: int, spec: FieldSpec) -> list[list[int]]:
    """det A[S] of a batch of symmetric matrices (entry planes grid, one bit per
    matrix of the mask ones), bit-sliced, by subset bitmask S: for j > max S,
    det A[S + {j}] = a_jj det A[S] + sum_{i in S} a_ij^2 det A[S - {i}]."""
    q, powers = spec.degree, _powers(spec)
    dets = [[ones] + [0] * (q - 1)]
    for j, row in enumerate(grid):
        squares = [_linear(powers[: 2 * q : 2], row[i]) for i in range(j)]  # b^2 = sum_t b_t x^(2t)
        for s in range(1 << j):
            acc = _mul(row[j], dets[s], powers)
            for i in range(j):
                if s >> i & 1:
                    acc = _add(acc, _mul(squares[i], dets[s ^ 1 << i], powers))
            dets.append(acc)
    return dets


def _letters(nonzero, ones: int, size: int) -> tuple[list[int], list[int]]:
    """(some, every) of a minor table's nonzero masks, by subset: bit r of some[k]
    (every[k]) is set iff some (every) order-k minor of matrix r is nonzero, k < size."""
    some, every = [0] * size, [ones] * size
    for s, mask in enumerate(nonzero):
        some[s.bit_count()] |= mask
        every[s.bit_count()] &= mask
    return some, every


def _letter_planes(codes, n: int, spec: FieldSpec) -> tuple[list[int], list[int]]:
    """(some, every): bit r R + i of some[k] (every[k]) is set iff some (every)
    order-k principal minor of the trailing block codes[i] bordered by row r
    is nonzero, for k = 1..n (index 0 unused)."""
    q, reps, m = spec.degree, len(codes), n - 1
    width, powers, ones = reps << (q * n), _powers(spec), (1 << reps) - 1
    dets = _minor_table(_entry_grid(_transpose(codes, q * tri(m)), m, spec), ones, spec)
    # the minors without index 0 are A's, one bit per rep
    some, every = _letters([reduce(or_, det) for det in dets], ones, n + 1)
    some = [_repeat(x, reps, width) for x in some]
    every = [_repeat(x, reps, width) for x in every]
    for t in range(1 << m):  # det B[{0} u T] is linear in row 0's bits: double over them
        columns = [_linear(powers[e : e + q], dets[t]) for e in range(q)]
        for i in range(m):
            u = dets[t ^ 1 << i] if t >> i & 1 else [0] * q
            columns += [_linear(powers[2 * e : 2 * e + q], u) for e in range(q)]
        nonzero = 0
        for s in range(q):
            plane, w = 0, reps
            for col in columns:
                plane |= (plane ^ _repeat(col[s], reps, w) if col[s] else plane) << w
                w <<= 1
            nonzero |= plane
        some[t.bit_count() + 1] |= nonzero
        every[t.bit_count() + 1] &= nonzero
    return some, every


def _sweep(codes, size: int, n: int, spec: FieldSpec, seen: set):
    """(epr word, count, least code or None) of each epr word of the order-n
    matrices bordering the trailing blocks codes (ascending, one orbit size);
    the least code is found only for words not in seen, which it joins."""
    row_bits = spec.degree * n
    some, every = _letter_planes(codes, n, spec)
    nodes = [("", (1 << (len(codes) << row_bits)) - 1)]
    for k in range(1, n + 1):  # split by letter k: N, S, A
        split = []
        for word, node in nodes:
            s_or_a = node & some[k]
            a = s_or_a & every[k]
            for letter, part in zip("NSA", (node ^ s_or_a, s_or_a ^ a, a)):
                if part:
                    split.append((word + letter, part))
        nodes = split
    new = {word for word, _ in nodes} - seen
    seen |= new
    return [(word, size * node.bit_count(), _least(node, codes, row_bits) if word in new else None) for word, node in nodes]


def _least(node: int, codes, row_bits: int) -> int:
    """The least code in a swept mask: its least rep, then that rep's least row."""
    reps = len(codes)
    fold, w = node, reps << row_bits
    while w > reps:  # OR the rows together
        w >>= 1
        fold = (fold & ((1 << w) - 1)) | fold >> w
    i = (fold & -fold).bit_length() - 1
    rows = (node >> i) & _repeat(1, reps, reps << row_bits)
    return codes[i] << row_bits | ((rows & -rows).bit_length() - 1) // reps


def _merge_chunks(results):
    """Counts and least exemplar codes of every epr word over the swept runs."""
    counts, exemplar = {}, {}
    for word, count, code in chain.from_iterable(results):
        counts[word] = counts.get(word, 0) + count
        if code is not None:
            exemplar[word] = min(code, exemplar.get(word, code))
    return counts, exemplar


def _catalog(n: int, spec: FieldSpec):
    """Counts and first-attaining codes of every epr word at order n over spec,
    sweeping the reps of each orbit size in ascending runs of about
    _CHUNK_BITS matrices.  A first-attaining code has a least trailing block
    (mapping A to its orbit's least code would lower it), so it is the
    least exemplar code of the runs."""
    step = max(1, _CHUNK_BITS >> (spec.degree * n))
    by_size: dict[int, list[int]] = {}
    for code, size in zip(*orbit_reps(n - 1, spec)):
        by_size.setdefault(size, []).append(code)
    results = []
    for size, codes in by_size.items():
        seen: set = set()
        for lo in range(0, len(codes), step):
            results.append(_sweep(codes[lo : lo + step], size, n, spec, seen))
    return _merge_chunks(results)


def catalog_gf2(n: int):
    """Counts and first-attaining codes of every GF(2) epr word at order n."""
    return _catalog(n, GF2)


def catalog_gf4(n: int):
    """Counts and first-attaining codes of every GF(4) epr word at order n."""
    return _catalog(n, GF4)
