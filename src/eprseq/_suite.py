"""The sixteen checks of eprseq.verify.theorem_suite, bit-sliced in pure Python.

Every batch checked is one ``_Batch`` built by ``_batch``: per GF(2)
order, the least codes of the S_n orbits, which six halves check with
case counts weighted by orbit size, and each run of consecutive codes,
which the congruence half checks; each group of drawn GF(4) cases; and
the image of every code map.  As eprseq._sweep slices a catalog (Biham's
DES), each entry and each principal minor is spec.degree Python ints with
one bit per matrix, and each letter a pair of masks.  One elimination with
a pivot mask per matrix, _reduce_rows, gives the Schur complements, the
inverses, the deleted minors and the invertibility of each drawn E.  Each
field-generic identity is one predicate over batches that its GF(2) and
GF(4) halves both call.  The seeded draws come from one random.Random(seed).
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial, reduce
from itertools import combinations, combinations_with_replacement
from operator import and_, or_
from random import Random

from ._sweep import (
    _add,
    _counting,
    _entry_grid,
    _letters,
    _linear,
    _minor_table,
    _mul,
    _powers,
    _transpose,
    code_matrix,
    code_rows,
    orbit_reps,
    tri,
)
from .gfield import GF2, GF4, FieldSpec
from .matrix import complete_graph, loop_complete_graph, loop_split_graph, pendant_loop_complete
from .verify import CheckResult, _catalog_raw

_MAX_FAILURES_KEPT = 20

# codes per batch of the every-code half (congruence), each order <= 5 in one: the
# tests' order-6 orbit pass takes 0.5 s in runs of 2^15 against 1.8 s in runs of
# 2^12, at the same peak RSS (16.3 MiB)
_RUN_CODES = 1 << 15


# B symmetric matrices of order n over spec, bit-sliced: bit r of each mask and
# plane stands for matrix r, and ones is the mask of all B.  codes: the GF(2)
# codes naming failures (else None); ent[i][j]: entry (i, j)'s spec.degree planes;
# dets: the minor table, planes by subset bitmask, and nonzero its nonzero masks;
# some[k], every[k]: some, every order-k minor is nonzero (letter k is N outside
# some, A within every, S between); rank[r]: the rank is r; sizes, when each
# matrix is the least code of its S_n orbit standing for the whole orbit: one
# (orbit size, mask) pair per size (else None).  Built only by _batch.
_Batch = namedtuple("_Batch", "n spec ones codes ent dets nonzero some every rank sizes")


def _batch(ent, ones: int, spec: FieldSpec, codes=None, sizes=None) -> _Batch:
    """The batch of a grid of entry planes."""
    n = len(ent)
    dets = _minor_table(ent, ones, spec)
    nonzero = [reduce(or_, det) for det in dets]
    some, every = _letters(nonzero, ones, n + 1)
    rank, above = [0] * (n + 1), 0
    for r in reversed(range(n + 1)):  # the largest order with a nonzero minor, else 0
        rank[r] = (some[r] if r else ones) & ~above
        above |= some[r]
    return _Batch(n, spec, ones, codes, ent, dets, nonzero, some, every, rank, sizes)


def _code_batch(codes, n: int, spec: FieldSpec, sizes=None) -> _Batch:
    """The batch of the order-n matrices encoded by codes."""
    grid = _entry_grid(_transpose(codes, spec.degree * tri(n)), n, spec)
    return _batch(grid, (1 << len(codes)) - 1, spec, codes, sizes)


def _positions(values) -> dict:
    """{value: mask of the positions holding it}."""
    masks: dict = {}
    for r, value in enumerate(values):
        masks[value] = masks.get(value, 0) | 1 << r
    return masks


def _low_bits(mask: int, limit: int) -> list[int]:
    """Positions of the lowest set bits of mask, ascending, at most limit of them."""
    out = []
    while mask and len(out) < limit:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _differ(x: _Batch, k: int, y: _Batch, m: int) -> int:
    """Where letter k of x's matrices is not letter m of y's."""
    return (x.some[k] ^ y.some[m]) | (x.every[k] ^ y.every[m])


def _gf2_pass(max_n: int, per_code, per_orbit=()) -> dict[str, list]:
    """[cases, first failures] of each check name the GF(2) halves yield over every
    symmetric GF(2) matrix of order 1..max_n.

    A half yields (name, mask of the matrices checked, cases per matrix, failing
    mask, failure suffix) per batch.  The per_orbit halves judge B and every
    P B P^T alike, so each order hands them one batch of the least code of
    every S_n orbit (orbit_reps), and a rep's cases count once per matrix of its
    orbit.  The per_code halves get each run of _RUN_CODES consecutive codes
    of the order, built once, handed to each of them, then dropped.  With every
    half in per_code this is the every-code pass the orbit pass is tested against."""
    found: dict[str, list] = {}

    def run(halves, b: _Batch) -> None:
        for half in halves:
            for name, cols, per, bad, suffix in half(b):
                tally = found.setdefault(name, [0, []])
                if b.sizes is None:
                    tally[0] += per * cols.bit_count()
                else:
                    tally[0] += per * sum(size * (cols & mask).bit_count() for size, mask in b.sizes)
                for r in _low_bits(bad & cols, _MAX_FAILURES_KEPT - len(tally[1])):
                    tally[1].append(f"order {b.n} code {b.codes[r]}{suffix}")

    for n in range(1, max_n + 1):
        if per_orbit:
            reps, sizes = orbit_reps(n, GF2)
            run(per_orbit, _code_batch(reps, n, GF2, tuple(_positions(sizes).items())))
        total = 1 << tri(n)
        count = min(_RUN_CODES, total)
        for start in range(0, total if per_code else 0, count):
            grid = _entry_grid(_counting(start, count, tri(n)), n, GF2)
            run(per_code, _batch(grid, (1 << count) - 1, GF2, range(start, start + count)))
    return found


def _mask(idx) -> int:
    """Minor-table row of the index set idx."""
    return sum(1 << i for i in idx)


def _members(mask: int) -> tuple[int, ...]:
    """The index set whose minor-table row is mask."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _rows_within(idx: tuple[int, ...]) -> list[int]:
    """Minor-table row of each subset of idx, indexed by the subset's mask over
    the positions of idx: B's table at these rows is the table of B[idx]."""
    rows = [0]
    for i in idx:
        rows += [row | 1 << i for row in rows]
    return rows


@lru_cache(maxsize=None)
def _subsets(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(subset, minor-table row) of every subset of range(n), by size."""
    return tuple((a, _mask(a)) for size in range(n + 1) for a in combinations(range(n), size))


def _catalog_words(max_order: int) -> list[tuple[int, str]]:
    """(order, word) of every attained GF(2) epr word up to max_order, off the cached catalogs."""
    return [(n, w) for n in range(1, max_order + 1) for w in sorted(_catalog_raw(n, GF2)[0])]


def _examples(name: str, outcomes) -> CheckResult:
    """A check over (label, holds) pairs, keeping the labels that fail."""
    outcomes = list(outcomes)
    failures = [label for label, holds in outcomes if not holds]
    return CheckResult(name, len(outcomes), failures[:_MAX_FAILURES_KEPT])


def _square(codes, n: int, spec: FieldSpec) -> list[list]:
    """Entry planes of the n x n matrices whose codes hold entry (i, j) at bit q (i n + j) up."""
    q = spec.degree
    bits = _transpose(codes, q * n * n)
    return [[bits[q * k : q * k + q] for k in range(i * n, i * n + n)] for i in range(n)]


def _square_rows(code: int, n: int, spec: FieldSpec) -> list[list[int]]:
    """Rows of the n x n matrix of one _square code."""
    return [[code >> spec.degree * (i * n + j) & (spec.order - 1) for j in range(n)] for i in range(n)]


def _invertible_codes(rng: Random, orders, spec: FieldSpec) -> list[int]:
    """The _square code of a uniform invertible n x n matrix over spec for each n
    of orders: q n^2 random bits, drawn for every n x n matrix at once, then
    again for the singular ones until none is left."""
    codes = [0] * len(orders)
    for n in dict.fromkeys(orders):
        todo = [c for c, m in enumerate(orders) if m == n]
        while todo:
            for c in todo:
                codes[c] = rng.getrandbits(spec.degree * n * n)
            ones = (1 << len(todo)) - 1
            det = _reduce_rows(_square([codes[c] for c in todo], n, spec), range(n), ones, spec)
            todo = [todo[r] for r in _low_bits(ones & ~reduce(or_, det), len(todo))]
    return codes


def _run_gf4(drawn: list[tuple], kinds, test, suffix=lambda case: "", key=lambda case: case[0]) -> list[str]:
    """Run drawn GF(4) cases (n, code, ...), code encoding a matrix of order n, in
    one batch per key (by default the order), and return the first failures.

    test(cases, _Batch) gives one failing mask per kind over the batch's cases;
    each failure is kept in draw order as "gf4 <kind> <matrix><suffix>".
    """
    groups: dict = {}
    for c, case in enumerate(drawn):
        groups.setdefault(key(case), []).append(c)
    bad = []  # (draw index, kind) of each group's first failures
    for idx in groups.values():
        cases = [drawn[c] for c in idx]
        b = _code_batch([case[1] for case in cases], cases[0][0], GF4)
        for kind, mask in enumerate(test(cases, b)):
            bad += [(idx[r], kind) for r in _low_bits(mask & b.ones, _MAX_FAILURES_KEPT)]
    failures = []
    for c, kind in sorted(bad)[:_MAX_FAILURES_KEPT]:
        n, code = drawn[c][:2]
        failures.append(f"gf4 {kinds[kind]} {code_matrix(code, n, GF4)!r}{suffix(drawn[c])}")
    return failures


# ---------------------------------------------------------------------------
# code maps, on grids of entry planes over any GF(2^k)
# ---------------------------------------------------------------------------

def _gather(ent, idx: tuple[int, ...], spec: FieldSpec) -> list[list]:
    """Entry planes of ent[idx][:, idx]; index n stands for an appended zero index."""
    n, zero = len(ent), [0] * spec.degree
    return [[ent[i][j] if i < n and j < n else zero for j in idx] for i in idx]


def _matmul(a, b, spec: FieldSpec) -> list[list]:
    """The product of two grids of entry planes over spec."""
    powers, zero, cols = _powers(spec), [0] * spec.degree, list(zip(*b))
    return [[reduce(_add, (_mul(x, y, powers) for x, y in zip(row, col)), zero) for col in cols] for row in a]


def _congruence(ent, e, spec: FieldSpec) -> list[list]:
    """Entry planes of E B E^T, E a grid of planes (one E for the batch, or one per matrix)."""
    return _matmul(_matmul(e, ent, spec), list(zip(*e)), spec)


def _reduce_rows(grid, pivots, ones: int, spec: FieldSpec) -> list[int]:
    """Eliminate a square grid of entry planes on the pivot indices, in place, as
    matrix._eliminate does, with one pivot mask per matrix: while a matrix's
    pivot is zero, each later pivot row is added to the pivot row, which then
    clears its column in every row not yet a pivot row (columns already pivoted
    on are left stale).  Returns the determinant planes of the pivot block, the
    product of the pivots; the rows and columns outside pivots end up holding
    its Schur complement."""
    q, powers = spec.degree, _powers(spec)
    det = one = [ones] + [0] * (q - 1)
    live = list(range(len(grid)))
    for j, p in enumerate(pivots):
        top = grid[p]
        for row in (grid[r] for r in pivots[j + 1 :]):
            zero = ones & ~reduce(or_, top[p])
            if not zero:
                break
            for c in live:
                top[c] = [x ^ (y & zero) for x, y in zip(top[c], row[c])]
        live.remove(p)
        pivot = top[p]
        det = _mul(det, pivot, powers)
        # 1/x = x^(2^q - 2) = x^2 x^4 ... x^(2^(q-1)), squaring GF(2)-linear on planes;
        # the product starts at 1 only where x != 0, so 1/0 = 0 over GF(2) too
        recip, square = [reduce(or_, pivot)] + one[1:], pivot
        for _ in range(1, q):
            square = _linear(powers[: 2 * q : 2], square)
            recip = _mul(recip, square, powers)
        _clear([row for r, row in enumerate(grid) if r not in pivots[: j + 1]], top, p, recip, live, powers)
    return det


def _clear(rows, top, p: int, recip, live, powers) -> None:
    """Add row[p] / top[p] times the pivot row top to each row, on the live columns."""
    for row in rows:
        f = _mul(row[p], recip, powers)
        if any(f):
            for c in live:
                row[c] = _add(row[c], _mul(f, top[c], powers))


def _inverse(ent, ones: int, spec: FieldSpec) -> list[list]:
    """Entry planes of B^-1, the Schur complement of B in [[B, I], [I, 0]],
    meaningful where B is nonsingular."""
    k, zero = len(ent), [0] * spec.degree
    eye = [[[ones, *zero[1:]] if c == r else zero for c in range(k)] for r in range(k)]
    grid = [[*row, *e] for row, e in zip(ent, eye)] + [[*e, *[zero] * k] for e in eye]
    _reduce_rows(grid, range(k), ones, spec)
    return [row[k:] for row in grid[k:]]


def _deleted_minors(ent, ones: int, spec: FieldSpec) -> list[list]:
    """Planes of det B without row i and column j, for each (i, j), of a batch of
    symmetric B (so the (j, i) minor is the (i, j) one)."""
    n = len(ent)
    minors = [[None] * n for _ in range(n)]
    for i, j in combinations_with_replacement(range(n), 2):
        sub = [[x for c, x in enumerate(row) if c != j] for r, row in enumerate(ent) if r != i]
        minors[i][j] = minors[j][i] = _reduce_rows(sub, range(n - 1), ones, spec)
    return minors


def _schur(ent, alpha: tuple[int, ...], ones: int, spec: FieldSpec) -> list[list]:
    """Entry planes of B / B[alpha], meaningful where the pivot block B[alpha] is
    nonsingular: eliminating on alpha leaves it on the other indices."""
    grid = [row[:] for row in ent]
    _reduce_rows(grid, alpha, ones, spec)
    comp = [i for i in range(len(ent)) if i not in alpha]
    return [[grid[i][j] for j in comp] for i in comp]


# ---------------------------------------------------------------------------
# the sixteen checks
# ---------------------------------------------------------------------------

def _check_nn(words: list[tuple[int, str]]) -> CheckResult:
    """Two consecutive Ns force N for the rest of every attained word."""
    outcomes = ((f"{n}:{w}", "NN" not in w.rstrip("N")) for n, w in words)
    return _examples("nn-forces-n-tail", outcomes)


def _inverse_gf2(b: _Batch):
    """epr of the inverse is the reversed word with terminal A."""
    after = _batch(_inverse(b.ent, b.ones, b.spec), b.ones, b.spec)
    # letters 1..n-1 of the inverse are B's n-1..1
    bad = reduce(or_, (_differ(after, k, b, b.n - k) for k in range(1, b.n)), ~after.every[b.n])
    yield "inverse-reversal", b.some[b.n], 1, bad, ""


def _inheritance_gf2(b: _Batch):
    """Letter inheritance between a matrix and its principal submatrices."""
    for m in range(1, b.n):
        # seen[i]: (N, S, A) masks, where some B[alpha] has that letter i + 1, read off B's rows within alpha
        seen = [[0, 0, 0] for _ in range(m)]
        for alpha in combinations(range(b.n), m):
            some, every = _letters([b.nonzero[row] for row in _rows_within(alpha)], b.ones, m + 1)
            for i, found in enumerate(seen):
                s, a = some[i + 1], every[i + 1]
                found[0] |= ~s
                found[1] |= s & ~a
                found[2] |= a
        bad = 0
        for i, (some_n, some_s, some_a) in enumerate(seen):
            big_s, big_a = b.some[i + 1], b.every[i + 1]
            bad |= ~big_s & (some_s | some_a)
            bad |= big_a & (some_n | some_s)
            bad |= big_s & ~big_a & ~(some_s if i < m - 1 else some_n & some_a)
        yield "inheritance", b.ones, 1, bad, f" m={m}"


def _check_nsa(words: list[tuple[int, str]]) -> CheckResult:
    """NSA never occurs; ASN is never followed by a later A."""
    return _examples(
        "nsa-prohibition",
        (
            (f"{n}:{w}", "NSA" not in w and ("ASN" not in w or "A" not in w[w.find("ASN") + 3 :]))
            for n, w in words
        ),
    )


def _schur_gf2(b: _Batch):
    """Schur complement C = B / B[alpha]: det C[gamma] * det B[alpha] =
    det B[gamma u alpha] and rank C = rank B - k, and C keeps the A/N letters of
    B shifted by the pivot size k.  Each (matrix, pivot set) case feeds both checks."""
    for alpha, row in _subsets(b.n)[1:-1]:
        k = len(alpha)
        c = _batch(_schur(b.ent, alpha, b.ones, b.spec), b.ones, b.spec)
        bad = _schur_bad(b, alpha, c)
        yield "schur-complement-identity", b.nonzero[row], len(c.dets), bad, f" alpha={alpha}"
        # C keeps the As and Ns of B's letters k+1..n
        bad = reduce(
            or_, (_differ(c, j, b, k + j) & (b.every[k + j] | ~b.some[k + j]) for j in range(1, c.n + 1))
        )
        yield "schur-complement-letters", b.nonzero[row], c.n, bad, f" alpha={alpha}"


def _schur_gf4(rng: Random, gf4_cases: int) -> tuple[int, list[str]]:
    """The Schur identity over GF(4), where the quotient genuinely divides by a
    non-unit determinant.  The pivot draw reads b's nonzero proper minors, so it
    stays in the draw loop."""
    from .sequence import _planes

    drawn = []
    for _ in range(gf4_cases):
        n = rng.randrange(2, 6)
        code = rng.getrandbits(GF4.degree * tri(n))
        nonzero = reduce(int.__or__, _planes(code_rows(code, n, GF4), GF4))
        pivots = [row for _, row in _subsets(n)[1:-1] if nonzero >> row & 1]
        if pivots:
            alpha = rng.choice(pivots)
            drawn.append((n, code, alpha, rng.getrandbits(n - alpha.bit_count())))

    def test(cases, b):  # one batch per order and pivot set
        alpha = _members(cases[0][2])
        c = _batch(_schur(b.ent, alpha, b.ones, b.spec), b.ones, b.spec)
        return [_schur_bad(b, alpha, c, _positions(case[3] for case in cases).items())]

    def suffix(case):
        *_, alpha, gamma = case
        return f" alpha={tuple(a + 1 for a in _members(alpha))} gamma={tuple(g + 1 for g in _members(gamma))}"

    return len(drawn), _run_gf4(drawn, ["schur"], test, suffix, key=lambda case: (case[0], case[2]))


def _joined_rows(n: int, alpha: tuple[int, ...]) -> list[int]:
    """Minor-table row of alpha u gamma for each row gamma of C = B / B[alpha]'s
    table; the first, gamma = {}, is alpha's."""
    return [_mask(alpha) | row for row in _rows_within(tuple(i for i in range(n) if i not in alpha))]


def _schur_bad(b: _Batch, alpha, c: _Batch, gammas=None) -> int:
    """Where C = B / B[alpha], the batch c (matrix for matrix b's), breaks
    rank C = rank B - |alpha| or det C[gamma] det B[alpha] = det B[alpha u gamma],
    for every gamma or for the gammas given as (row of C's table, mask) pairs."""
    powers, joined = _powers(b.spec), _joined_rows(b.n, alpha)
    bad = 0
    for gamma, mask in gammas or ((gamma, -1) for gamma in range(len(joined))):
        left = _mul(c.dets[gamma], b.dets[joined[0]], powers)
        bad |= mask & reduce(or_, _add(left, b.dets[joined[gamma]]))
    k = len(alpha)
    return bad | ~reduce(or_, (c.rank[r] & b.rank[r + k] for r in range(c.n + 1)))


def _hyperdet_gf2(b: _Batch):
    """Four-term squared principal-minor identity in characteristic 2."""
    for tau in combinations(range(b.n), 3):
        rest = [x for x in range(b.n) if x not in tau]
        for sub, _ in _subsets(len(rest)):
            base = tuple(rest[x] for x in sub)
            bad = _hyperdet_bad(b, _mask(base), [1 << t for t in tau])
            yield "hyperdeterminantal-relation", b.ones, 1, bad, f" tau={tau} I={base}"


def _hyperdet_gf4(rng: Random, gf4_cases: int) -> tuple[int, list[str]]:
    drawn = []
    for _ in range(gf4_cases):
        n = rng.randrange(3, 6)
        code = rng.getrandbits(GF4.degree * tri(n))
        tau = rng.sample(range(n), 3)
        bits = rng.getrandbits(n - 3)
        rest = [x for x in range(n) if x not in tau]
        drawn.append((n, code, _mask(tau), _mask(x for i, x in enumerate(rest) if bits >> i & 1)))

    def test(cases, b):  # one batch per order, tau and I
        *_, tau, base = cases[0]
        return [_hyperdet_bad(b, base, [1 << t for t in _members(tau)])]

    def suffix(case):
        *_, tau, base = case
        return f" tau={_members(tau)} I={_members(base)}"

    return len(drawn), _run_gf4(drawn, ["hyperdet"], test, suffix, key=lambda case: (case[0], *case[2:]))


def _hyperdet_bad(b: _Batch, s: int, tau_masks) -> int:
    """Where the sum over the splits {X, tau - X}, |X| even, of det B[S u X] det B[S u (tau - X)]
    is nonzero, off b.dets: squaring is additive and injective in characteristic 2,
    so it is zero where the squared four-term relation holds."""
    i, j, k = tau_masks
    powers = _powers(b.spec)

    def pair(x, y):
        return _mul(b.dets[s | x], b.dets[s | y], powers)

    return reduce(or_, reduce(_add, (pair(0, i | j | k), pair(i, j | k), pair(j, i | k), pair(k, i | j))))


def _terminal_an_gf2(b: _Batch):
    """A terminal AN forces every order-(n-1) minor nonzero, principal or not."""
    if b.n < 2:
        return
    minors = _deleted_minors(b.ent, b.ones, b.spec)
    every = reduce(and_, (reduce(or_, minor) for row in minors for minor in row))
    yield "terminal-an-full-minors", b.every[b.n - 1] & ~b.some[b.n], 1, ~every, ""


def _append_gf2(b: _Batch):
    """Letterwise effect of duplicating the last index or appending a zero one."""
    bad_dup, bad_zero = _append_bad(b)
    yield "append-transforms", b.ones, 2, bad_dup | bad_zero, ""


def _append_gf4(rng: Random, gf4_cases: int) -> tuple[int, list[str]]:
    drawn = [(n, rng.getrandbits(GF4.degree * tri(n))) for n in (rng.randrange(1, 5) for _ in range(gf4_cases))]
    return 2 * len(drawn), _run_gf4(drawn, ["append-dup", "append-zero"], lambda cases, b: _append_bad(b))


def _append_bad(b: _Batch) -> tuple[int, int]:
    """Where appending a copy of the last index or a zero index to a matrix of b
    breaks the rule: both end in N, the copy keeps letter 1, and every other
    letter becomes S unless it was N.  P B P^T's last index is one of B's, so a
    batch of orbit reps (b.sizes set) copies each of its indices in turn."""
    n = b.n

    def undamped(x: _Batch, k: int) -> int:  # letter k of x is not B's with A made S
        return (x.some[k] ^ b.some[k]) | x.every[k]

    bad_dup = 0
    for last in range(n) if b.sizes is not None else (n - 1,):
        dup = _batch(_gather(b.ent, (*range(n), last), b.spec), b.ones, b.spec)
        bad_dup |= dup.some[n + 1] | _differ(dup, 1, b, 1)
        bad_dup |= reduce(or_, (undamped(dup, k) for k in range(2, n + 1)), 0)
    zero = _batch(_gather(b.ent, (*range(n), n), b.spec), b.ones, b.spec)
    bad_zero = reduce(or_, (undamped(zero, k) for k in range(1, n + 1)), zero.some[n + 1])
    return bad_dup, bad_zero


def _check_na_ns_parity(words: list[tuple[int, str]]) -> CheckResult:
    """NA/NS starts at odd positions only, with N at every odd position."""

    def holds(w: str) -> bool:
        starts = [k for k in range(len(w) - 1) if w[k : k + 2] in ("NA", "NS")]
        return all(k % 2 == 0 and set(w[::2]) == {"N"} for k in starts)

    return _examples("na-ns-parity", ((f"{n}:{w}", holds(w)) for n, w in words))


def _congruence_gf2(b: _Batch, grids: list[tuple[int, int]]):
    """Congruence by an invertible matrix preserves pr bits r_1..r_n, for each
    grid E drawn for order n, given as (n, _square code) in grids."""
    for grid in (_square_rows(code, n, GF2) for n, code in grids if n == b.n):
        e = [[[b.ones if x else 0] for x in row] for row in grid]  # one E for every matrix
        yield "congruence-pr-invariance", b.ones, 1, _pr_changed(b, e), f" E={grid}"


def _congruence_gf4(rng: Random, gf4_cases: int) -> tuple[int, list[str]]:
    orders = [rng.randrange(1, 5) for _ in range(gf4_cases)]
    codes = (rng.getrandbits(GF4.degree * tri(n)) for n in orders)  # drawn as zip pulls them, after the Es
    drawn = list(zip(orders, codes, _invertible_codes(rng, orders, GF4)))

    def test(cases, b):  # one E per matrix
        return [_pr_changed(b, _square([case[2] for case in cases], b.n, GF4))]

    return len(drawn), _run_gf4(drawn, ["congruence"], test, lambda case: f" E={_square_rows(case[2], case[0], GF4)}")


def _pr_changed(b: _Batch, e) -> int:
    """Where congruence by E changes some pr bit r_k (letter k is not N) of a matrix of b."""
    after = _batch(_congruence(b.ent, e, b.spec), b.ones, b.spec)
    return reduce(or_, (after.some[k] ^ b.some[k] for k in range(1, b.n + 1)))


def _check_complete_graph_epr() -> CheckResult:
    """epr of the complete graph alternates NA, with a final N at odd order."""
    from .sequence import compute_epr

    words = ((n, compute_epr(complete_graph(n))) for n in range(2, 13))
    outcomes = ((f"complete_graph({n})", w == "NA" * (n // 2) + "N" * (n % 2)) for n, w in words)
    return _examples("complete-graph-epr", outcomes)


def _check_loop_split_det() -> CheckResult:
    """loop_split_graph(n, k) is singular exactly for odd n and even k."""
    pairs = [(n, k) for n in range(0, 11) for k in range(0, n + 1)]
    singular = ((n, k, loop_split_graph(n, k).determinant() == 0) for n, k in pairs)
    outcomes = ((f"loop_split_graph({n},{k})", s == (n % 2 > k % 2)) for n, k, s in singular)
    return _examples("loop-split-determinant", outcomes)


def _check_loop_complete_nonsingular() -> CheckResult:
    """Adding one loop to the complete graph always gives full rank."""
    dets = ((n, loop_complete_graph(n).determinant()) for n in range(2, 13))
    outcomes = ((f"loop_complete_graph({n})", det != 0) for n, det in dets)
    return _examples("loop-complete-nonsingular", outcomes)


def _check_pendant_loop_endpoints() -> CheckResult:
    """pendant_loop_complete(n), n even, starts SS and ends AN."""
    from .sequence import compute_epr

    words = ((n, compute_epr(pendant_loop_complete(n))) for n in range(4, 13, 2))
    outcomes = ((f"pendant_loop_complete({n}) -> {w}", w.startswith("SS") and w.endswith("AN")) for n, w in words)
    return _examples("pendant-loop-endpoints", outcomes)


def _check_attained_rule_soundness(words: list[tuple[int, str]]) -> CheckResult:
    """No attained word violates any prohibition rule."""
    from .classify import rule_violations

    hits = ((n, w, rule_violations(w)) for n, w in words)
    outcomes = ((f"{n}:{w} -> {[str(h) for h in found]}", not found) for n, w, found in hits)
    return _examples("attained-rule-soundness", outcomes)


def _gf2_halves(rng: Random, max_n: int) -> tuple[list, list]:
    """The GF(2) half of each exhaustive check, as _gf2_pass's (per_code, per_orbit).
    The congruence half checks three grids E drawn for each order 2..max_n, and
    E (P B P^T) E^T = (E P) B (E P)^T, so it runs over every code; every other
    half judges each matrix of an S_n orbit alike."""
    orders = [n for n in range(2, max_n + 1) for _ in range(3)]
    grids = list(zip(orders, _invertible_codes(rng, orders, GF2)))
    per_orbit = [_inverse_gf2, _inheritance_gf2, _schur_gf2, _hyperdet_gf2, _terminal_an_gf2, _append_gf2]
    return [partial(_congruence_gf2, grids=grids)], per_orbit


def run_checks(max_n: int, seed: int, gf4_cases: int) -> list[CheckResult]:
    """The sixteen checks of eprseq.verify.theorem_suite, in report order."""
    words = _catalog_words(min(max_n + 1, 6))
    rng = Random(seed)
    # The seeded draws come in this order, which the golden check-theorems
    # outputs pin, all before the GF(2) pass.
    gf4 = {
        "schur-complement-identity": _schur_gf4(rng, gf4_cases),
        "hyperdeterminantal-relation": _hyperdet_gf4(rng, gf4_cases),
        "append-transforms": _append_gf4(rng, gf4_cases),
    }
    halves = _gf2_halves(rng, max_n)
    gf4["congruence-pr-invariance"] = _congruence_gf4(rng, gf4_cases)
    gf2 = _gf2_pass(max_n, *halves)

    def matrix_check(name: str) -> CheckResult:
        """GF(2) cases and failures first, then the GF(4) ones."""
        cases, failures = gf2.get(name, (0, []))
        more, later = gf4.get(name, (0, []))
        return CheckResult(name, cases + more, (failures + later)[:_MAX_FAILURES_KEPT])

    return [
        _check_nn(words),
        matrix_check("inverse-reversal"),
        matrix_check("inheritance"),
        _check_nsa(words),
        matrix_check("schur-complement-identity"),
        matrix_check("schur-complement-letters"),
        matrix_check("hyperdeterminantal-relation"),
        matrix_check("terminal-an-full-minors"),
        matrix_check("append-transforms"),
        _check_na_ns_parity(words),
        matrix_check("congruence-pr-invariance"),
        _check_complete_graph_epr(),
        _check_loop_split_det(),
        _check_loop_complete_nonsingular(),
        _check_pendant_loop_endpoints(),
        _check_attained_rule_soundness(words),
    ]
