"""Exhaustive and randomized verification suites.

``enumerate_epr`` aggregates the epr words of every symmetric matrix of
a given small order (free upper-triangle entries encoded as one integer)
into a catalog, sweeping one trailing block per permutation orbit.
``compare_with_classifier`` checks that the catalog and the template
classifier agree exactly, in both directions.  ``theorem_suite`` runs sixteen independent checks, one per
structural fact the rest of the library relies on, exhaustively over
GF(2) up to its bounds and with seeded random GF(4) cases for the
field-generic identities.  The suite holds each GF(2) order's minor table
with its letters, read off it once per run.  Every check reads letters,
minors and ranks off the minor table of the batch it checks; each
field-generic identity is one predicate that the exhaustive GF(2) loop
and the GF(4) cases (drawn one at a time, then batched by order) both call.

All randomness is seeded; reports are reproducible given the same seed
and bounds.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, reduce
from itertools import combinations, product

import numpy as np

from . import _engine as eng
from .gfield import GF2, GF4, FieldSpec
from .matrix import (
    _eliminate,
    complete_graph,
    loop_complete_graph,
    loop_split_graph,
    pendant_loop_complete,
)

DEFAULT_SEED = 1729
_MAX_FAILURES_KEPT = 20
_SUITE_CHUNK = 1 << 12  # codes per batch of an exhaustive GF(2) check at one order
# codes per batch of one GF(2) Schur case (order, pivot set): an order-5 case
# has up to 2^14; all at once raised check-theorems' peak RSS by about 1 MiB,
# and 2^12 cost a sixth more time than 2^13
_SCHUR_CHUNK = 1 << 13


class BoundExceededError(ValueError):
    """Enumeration request beyond the gated bounds."""


class EprCatalog(namedtuple("EprCatalog", "order field counts exemplar")):
    """Attained epr words of one order with counts and first witnesses."""

    __slots__ = ()

    def total(self) -> int:
        return sum(self.counts.values())

    def to_text(self) -> str:
        """Export: one "<epr> <count>" line per word, sorted lexicographically."""
        return "".join(f"{w} {self.counts[w]}\n" for w in sorted(self.counts))


class CheckResult(namedtuple("CheckResult", "name cases failures", defaults=((),))):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


class SuiteReport(namedtuple("SuiteReport", "checks seed", defaults=(None,))):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_text(self) -> str:
        """One "<name> <cases> <failures>" line per check, then failures."""
        lines = [f"{c.name} {c.cases} {len(c.failures)}" for c in self.checks]
        for c in self.checks:
            for f in c.failures:
                lines.append(f"FAIL {c.name}: {f}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _catalog_raw(n: int, field_name: str, jobs: int):
    if field_name == "gf2":
        return eng.catalog_gf2(n, jobs=jobs)
    # bench/tracer.py wraps catalog_gf4 as a one-argument call, the jobs = 1 case
    return eng.catalog_gf4(n) if jobs == 1 else eng.catalog_gf4(n, jobs=jobs)


def enumerate_epr(
    n: int, spec: FieldSpec = GF2, *, jobs: int = 1, force: bool = False
) -> EprCatalog:
    """Catalog of every epr word attained at order n over GF(2) or GF(4).

    Counts cover all q^(n(n+1)/2) matrices, and each exemplar is the first
    attaining matrix in code order, but only the matrices whose trailing
    block B[1:, 1:] is the least of its permutation orbit are swept
    (_engine._catalog).  GF(2) is bounded at n <= 6 and GF(4) at n <= 4;
    one order more, GF(2) n == 7 (2^28 matrices, 652K swept) or GF(4)
    n == 5 (2^30, 50M swept), is gated behind ``force=True``.
    """
    if n < 1:
        raise BoundExceededError("enumeration needs order >= 1")
    gate = {GF2: 7, GF4: 5}.get(spec)
    if gate is None:
        raise BoundExceededError(f"enumeration supports gf2 and gf4, not {spec.name}")
    label = f"GF({spec.order})"
    if n > gate:
        raise BoundExceededError(f"{label} enumeration is bounded at n <= {gate}, got {n}")
    if n == gate and not force:
        raise BoundExceededError(
            f"{label} enumeration at n = {gate} visits 2^{spec.degree * eng.tri(gate)} matrices; "
            "pass force=True"
        )
    counts, exemplar_codes = _catalog_raw(n, spec.name, jobs)
    exemplar = {w: eng.code_matrix(code, n, spec) for w, code in exemplar_codes.items()}
    return EprCatalog(n, spec.name, dict(counts), exemplar)


def attained_pr_sequences(n: int, spec: FieldSpec = GF2, *, force: bool = False) -> set[str]:
    """Every pr word attained by a symmetric matrix of order n over GF(2) or GF(4),
    read off the attained epr words (r0 = 1 iff letter 1 is not A), under
    the bounds of :func:`enumerate_epr`."""
    from .sequence import pr_of_epr

    words = enumerate_epr(n, spec, force=force).counts
    return {str(pr_of_epr(w, w[0] != "A")) for w in words}


def compare_with_classifier(n: int, *, jobs: int = 1) -> SuiteReport:
    """Cross-check enumeration against the Z2 classifier at order n.

    Reports words attained but rejected (soundness breach) and words
    accepted but never attained (completeness breach); both must be
    empty.
    """
    from .classify import classify_epr_z2

    catalog = enumerate_epr(n, GF2, jobs=jobs)
    attained = set(catalog.counts)
    accepted = {
        "".join(word)
        for word in product("ANS", repeat=n)
        if classify_epr_z2("".join(word)).attainable
    }
    sound = CheckResult("attained-but-rejected", len(attained), sorted(attained - accepted))
    complete = CheckResult("accepted-but-unattained", len(accepted), sorted(accepted - attained))
    return SuiteReport([sound, complete])


# ---------------------------------------------------------------------------
# theorem suite helpers
# ---------------------------------------------------------------------------

def _gf2_chunks(n: int):
    """(slice of codes, entries (n, n, codes)) of each run of _SUITE_CHUNK consecutive
    codes of the symmetric GF(2) matrices of order n, in code order."""
    total = 1 << eng.tri(n)
    for start in range(0, total, _SUITE_CHUNK):
        cols = slice(start, min(start + _SUITE_CHUNK, total))
        yield cols, eng.decode_entries(np.arange(cols.start, cols.stop), n)


# Every symmetric GF(2) matrix of one order n, column c the one of code c:
# its (2^n, codes) principal-minor table and its (n, codes) letters 1..n.
_Order = namedtuple("_Order", "dets letters")


def _gf2_orders(max_n: int) -> list[_Order]:
    """Entry n is the record of order n, n = 0..max_n, filled chunk by chunk."""
    orders = []
    for n in range(max_n + 1):
        total = 1 << eng.tri(n)
        rec = _Order(np.empty((1 << n, total), np.uint8), np.empty((n, total), np.uint8))
        for cols, ent in _gf2_chunks(n):
            rec.dets[:, cols] = eng.minor_tables(ent, GF2)
            for k, row in enumerate(eng.table_letters(rec.dets[:, cols])):
                rec.letters[k, cols] = row
        orders.append(rec)
    return orders


def _mask(idx) -> int:
    """Minor-table row of the index set idx."""
    return sum(1 << i for i in idx)


def _members(mask: int) -> tuple[int, ...]:
    """The index set whose minor-table row is mask."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def _rows_within(idx: tuple[int, ...]) -> np.ndarray:
    """Minor-table row of each subset of idx, indexed by the subset's mask over
    the positions of idx: B's table at these rows is the table of B[idx]."""
    rows = np.zeros(1 << len(idx), np.intp)
    for t, i in enumerate(idx):
        rows[1 << t : 2 << t] = rows[: 1 << t] | (1 << i)
    return rows


@lru_cache(maxsize=None)
def _subsets(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(subset, minor-table row) of every subset of range(n), by size."""
    return tuple((a, _mask(a)) for size in range(n + 1) for a in combinations(range(n), size))


def _catalog_words(max_order: int) -> list[tuple[int, str]]:
    """(order, word) of every attained GF(2) epr word up to max_order, off the cached catalogs."""
    return [(n, w) for n in range(1, max_order + 1) for w in sorted(_catalog_raw(n, "gf2", 1)[0])]


def _keep(failures: list[str], item: str) -> None:
    if len(failures) < _MAX_FAILURES_KEPT:
        failures.append(item)


def _keep_codes(failures: list[str], n: int, codes: np.ndarray, suffix: str = "") -> None:
    """Keep the first failing codes of order n as "order n code c" plus suffix."""
    for code in codes[:_MAX_FAILURES_KEPT].tolist():
        _keep(failures, f"order {n} code {code}{suffix}")


def _examples(name: str, outcomes) -> CheckResult:
    """A check over (label, holds) pairs, keeping the labels that fail."""
    outcomes = list(outcomes)
    failures = [label for label, holds in outcomes if not holds]
    return CheckResult(name, len(outcomes), failures[:_MAX_FAILURES_KEPT])


def _rand_invertible(rng: np.random.Generator, n: int, spec: FieldSpec) -> list[list[int]]:
    while True:
        grid = rng.integers(0, spec.order, size=(n, n)).tolist()
        if _eliminate([row[:] for row in grid], spec, range(n))[0] == n:
            return grid


def _draw_gf4(rng: np.random.Generator, n: int) -> int:
    """Code of a random symmetric GF(4) matrix of order n, its upper triangle drawn row by row."""
    return eng.triangle_code(rng.integers(0, GF4.order, size=eng.tri(n)).tolist(), GF4)


def _letters(ent: np.ndarray, spec: FieldSpec) -> list[np.ndarray]:
    """Letters (0=N, 1=S, 2=A) of each matrix of an (n, n, B) entry batch."""
    return eng.table_letters(eng.minor_tables(ent, spec))


def _run_gf4(
    drawn: list[tuple], failures: list[str], kinds, test, suffix=lambda case: "", group=lambda case: case[0]
) -> None:
    """Run drawn GF(4) cases (n, code, ...), code encoding a matrix of order n, in
    batches sharing group(case), by default the order.

    test(cases, (n, n, B) entries) flags each case's failures, one column per
    kind; each is kept in draw order as "gf4 <kind> <matrix><suffix>".
    """
    groups: dict = {}
    for c, case in enumerate(drawn):
        groups.setdefault(group(case), []).append(c)
    bad = np.zeros((len(drawn), len(kinds)), bool)
    for idx in groups.values():
        batch = [drawn[c] for c in idx]
        ent = eng.decode_entries(np.array([case[1] for case in batch]), batch[0][0], GF4)
        bad[idx] = np.reshape(test(batch, ent), (len(idx), -1))
    for c, kind in np.argwhere(bad).tolist():
        n, code = drawn[c][:2]
        _keep(failures, f"gf4 {kinds[kind]} {eng.code_matrix(code, n, GF4)!r}{suffix(drawn[c])}")


# ---------------------------------------------------------------------------
# the sixteen checks
# ---------------------------------------------------------------------------

def _check_nn(words: list[tuple[int, str]]) -> CheckResult:
    """Two consecutive Ns force N for the rest of every attained word."""
    outcomes = ((f"{n}:{w}", "NN" not in w.rstrip("N")) for n, w in words)
    return _examples("nn-forces-n-tail", outcomes)


def _check_inverse(orders: list[_Order]) -> CheckResult:
    """epr of the inverse is the reversed word with terminal A."""
    failures: list[str] = []
    cases = 0
    for n in range(1, len(orders)):
        nz = np.flatnonzero(eng.det_table(n))
        before = orders[n].letters[:, nz]
        after = _letters(eng.inverse(eng.decode_entries(nz, n))[1], GF2)
        bad = after[n - 1] != 2
        for j in range(1, n):
            bad |= after[j - 1] != before[n - j - 1]
        cases += int(nz.size)
        _keep_codes(failures, n, nz[bad])
    return CheckResult("inverse-reversal", cases, failures)


def _check_inheritance(orders: list[_Order]) -> CheckResult:
    """Letter inheritance between a matrix and its principal submatrices."""
    failures: list[str] = []
    cases = 0
    for n in range(2, len(orders)):
        dets, big = orders[n].dets, orders[n].letters
        for m in range(1, n):
            # seen[i, l]: some B[alpha] has letter i + 1 = l, read off B's rows within alpha
            seen = np.zeros((m, 3, dets.shape[1]), bool)
            for alpha in combinations(range(n), m):
                small = eng.table_letters(dets[_rows_within(alpha)])
                for i in range(m):
                    seen[i] |= small[i] == np.arange(3)[:, None]
            bad = np.zeros(dets.shape[1], bool)
            for i, (some_n, some_s, some_a) in enumerate(seen):
                bad |= (big[i] == 0) & (some_s | some_a)
                bad |= (big[i] == 2) & (some_n | some_s)
                bad |= (big[i] == 1) & ~(some_s if i < m - 1 else some_n & some_a)
            cases += dets.shape[1]
            _keep_codes(failures, n, np.flatnonzero(bad), f" m={m}")
    return CheckResult("inheritance", cases, failures)


def _check_nsa(words: list[tuple[int, str]]) -> CheckResult:
    """NSA never occurs; ASN is never followed by a later A."""
    return _examples(
        "nsa-prohibition",
        (
            (f"{n}:{w}", "NSA" not in w and ("ASN" not in w or "A" not in w[w.find("ASN") + 3 :]))
            for n, w in words
        ),
    )


def _check_schur(orders: list[_Order], rng: np.random.Generator, gf4_cases: int) -> list[CheckResult]:
    """Schur complement C = B / B[alpha]: det C[gamma] * det B[alpha] =
    det B[gamma u alpha] and rank C = rank B - k, and C keeps the A/N letters of
    B shifted by the pivot size k.  The GF(2) cases of one order and pivot set run
    _SCHUR_CHUNK codes at a time; each chunk feeds both checks, then is dropped."""
    from .sequence import _planes

    failures: list[str] = []
    letter_failures: list[str] = []
    cases = letter_cases = 0
    for n in range(2, len(orders)):
        dets, letters = orders[n].dets, orders[n].letters
        ranks = eng.ranks(letters)
        for alpha, row in _subsets(n)[1:-1]:
            nonsingular = np.flatnonzero(dets[row])
            for start in range(0, nonsingular.size, _SCHUR_CHUNK):
                codes = nonsingular[start : start + _SCHUR_CHUNK]
                cdets = eng.minor_tables(eng.schur_entries(eng.decode_entries(codes, n), alpha), GF2)
                small = eng.table_letters(cdets)
                joined = dets[np.ix_(_joined_rows(n, alpha), codes)]
                bad = _schur_bad(joined, cdets, alpha, GF2, ranks[codes], eng.ranks(small))
                cases += cdets.size
                _keep_codes(failures, n, codes[bad], f" alpha={alpha}")
                top = letters[len(alpha) :, codes]  # B's letters k+1..n: C keeps their As and Ns
                bad = ((top != 1) & (np.array(small) != top)).any(axis=0)
                letter_cases += top.size
                _keep_codes(letter_failures, n, codes[bad], f" alpha={alpha}")
    # GF(4): the quotient genuinely divides by a non-unit determinant.  The
    # pivot draw reads b's nonzero proper minors, so it stays in the draw loop.
    drawn = []
    for _ in range(gf4_cases):
        n = int(rng.integers(2, 6))
        code = _draw_gf4(rng, n)
        nonzero = reduce(int.__or__, _planes(eng.code_rows(code, n, GF4), GF4))
        pivots = [a for a, row in _subsets(n)[1:-1] if nonzero >> row & 1]
        if pivots:
            alpha = pivots[int(rng.integers(0, len(pivots)))]
            gamma = _mask(np.flatnonzero(rng.integers(0, 2, size=n - len(alpha))).tolist())
            drawn.append((n, code, alpha, gamma))

    def test(batch, ent):
        alpha = batch[0][2]
        cdets = eng.minor_tables(eng.schur_entries(ent, alpha, GF4), GF4)
        gammas = np.array([gamma for *_, gamma in batch])
        bdets = eng.minor_tables(ent, GF4)
        branks, cranks = (eng.ranks(eng.table_letters(dets)) for dets in (bdets, cdets))
        joined = bdets[_joined_rows(ent.shape[0], alpha)]
        return _schur_bad(joined, cdets, alpha, GF4, branks, cranks, gammas)

    def suffix(case):
        *_, alpha, gamma = case
        return f" alpha={tuple(a + 1 for a in alpha)} gamma={tuple(g + 1 for g in _members(gamma))}"

    _run_gf4(drawn, failures, ["schur"], test, suffix, group=lambda case: (case[0], case[2]))
    return [
        CheckResult("schur-complement-identity", cases + len(drawn), failures),
        CheckResult("schur-complement-letters", letter_cases, letter_failures),
    ]


def _joined_rows(n: int, alpha: tuple[int, ...]) -> np.ndarray:
    """Minor-table row of alpha u gamma for each row gamma of C = B / B[alpha]'s
    table; the first, gamma = {}, is alpha's."""
    return _mask(alpha) | _rows_within(tuple(i for i in range(n) if i not in alpha))


def _schur_bad(joined, cdets, alpha, spec: FieldSpec, branks, cranks, gammas=None) -> np.ndarray:
    """Where C = B / B[alpha] breaks rank C = rank B - |alpha| or
    det C[gamma] det B[alpha] = det B[alpha u gamma], read off B's rows
    joined = table[_joined_rows(n, alpha)], C's table and both ranks, for every
    gamma or for the one gamma (a row of C's table) of each column."""
    wrong = eng.times(cdets, joined[0], spec) != joined
    if gammas is not None:
        wrong = np.take_along_axis(wrong, gammas[None], axis=0)
    return wrong.any(axis=0) | (branks - cranks != len(alpha))


def _check_hyperdet(orders: list[_Order], rng: np.random.Generator, gf4_cases: int) -> CheckResult:
    """Four-term squared principal-minor identity in characteristic 2."""
    failures: list[str] = []
    cases = 0
    for n in range(3, len(orders)):
        dets = orders[n].dets
        for tau in combinations(range(n), 3):
            rest = [x for x in range(n) if x not in tau]
            for sub, _ in _subsets(len(rest)):
                base = tuple(rest[x] for x in sub)
                total = _hyperdet_sum(dets, slice(None), _mask(base), [1 << t for t in tau], GF2)
                cases += dets.shape[1]
                _keep_codes(failures, n, np.flatnonzero(total), f" tau={tau} I={base}")
    drawn = []
    for _ in range(gf4_cases):
        n = int(rng.integers(3, 6))
        code = _draw_gf4(rng, n)
        tau = tuple(sorted(rng.choice(n, size=3, replace=False).tolist()))
        rest = [x for x in range(n) if x not in tau]
        base = tuple(x for x, bit in zip(rest, rng.integers(0, 2, size=n - 3)) if bit)
        drawn.append((n, code, _mask(tau), _mask(base)))

    def test(batch, ent):
        taus = np.array([[1 << t for t in _members(tau)] for _, _, tau, _ in batch]).T
        bases = np.array([base for *_, base in batch])
        dets = eng.minor_tables(ent, GF4)
        return _hyperdet_sum(dets, np.arange(len(batch)), bases, taus, GF4) != 0

    def suffix(case):
        *_, tau, base = case
        return f" tau={_members(tau)} I={_members(base)}"

    _run_gf4(drawn, failures, ["hyperdet"], test, suffix)
    return CheckResult("hyperdeterminantal-relation", cases + len(drawn), failures)


def _hyperdet_sum(dets: np.ndarray, cols, s, tau_masks, spec: FieldSpec) -> np.ndarray:
    """Sum over the splits {X, tau - X}, |X| even, of det B[S u X] det B[S u (tau - X)]:
    squaring is additive and injective in characteristic 2, so it is zero where the
    squared four-term relation holds.  Masks are scalars or one per column (cols)."""
    i, j, k = tau_masks

    def pair(a, b):
        return eng.times(dets[s | a, cols], dets[s | b, cols], spec)

    return pair(0, i | j | k) ^ pair(i, j | k) ^ pair(j, i | k) ^ pair(k, i | j)


def _check_terminal_an_minors(orders: list[_Order]) -> CheckResult:
    """A terminal AN forces every order-(n-1) minor nonzero, principal or not."""
    failures: list[str] = []
    cases = 0
    for n in range(2, len(orders)):
        letters = orders[n].letters
        sel = np.flatnonzero((letters[n - 2] == 2) & (letters[n - 1] == 0))
        bad = (eng.deleted_minors(eng.decode_entries(sel, n)) == 0).any(axis=(0, 1))
        cases += int(sel.size)
        _keep_codes(failures, n, sel[bad])
    return CheckResult("terminal-an-full-minors", cases, failures)


def _check_append_transforms(orders: list[_Order], rng: np.random.Generator, gf4_cases: int) -> CheckResult:
    """Letterwise effect of duplicating the last index or appending a zero one."""
    failures: list[str] = []
    cases = 0
    for n in range(1, len(orders)):
        for cols, ent in _gf2_chunks(n):
            bad_dup, bad_zero = _append_bad(ent, orders[n].letters[:, cols], GF2)
            cases += 2 * bad_dup.size
            _keep_codes(failures, n, cols.start + np.flatnonzero(bad_dup | bad_zero))
    drawn = [(n, _draw_gf4(rng, n)) for n in (int(rng.integers(1, 5)) for _ in range(gf4_cases))]

    def test(batch, ent):
        return np.stack(_append_bad(ent, _letters(ent, GF4), GF4), axis=1)

    _run_gf4(drawn, failures, ["append-dup", "append-zero"], test)
    return CheckResult("append-transforms", cases + 2 * len(drawn), failures)


def _append_bad(ent: np.ndarray, small, spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """Where appending a copy of the last index or a zero index to a matrix of
    ent, with letters small, breaks the rule: both end in N, the copy keeps
    letter 1, and every other letter becomes S unless it was N."""
    n = ent.shape[0]
    dup, zero = (_letters(eng.gather_entries(ent, (*range(n), last)), spec) for last in (n - 1, n))
    bad_dup = (dup[n] != 0) | (dup[0] != small[0])
    bad_zero = zero[n] != 0
    for i in range(n):
        damp = np.minimum(small[i], 1)
        if i:
            bad_dup |= dup[i] != damp
        bad_zero |= zero[i] != damp
    return bad_dup, bad_zero


def _check_na_ns_parity(words: list[tuple[int, str]]) -> CheckResult:
    """NA/NS starts at odd positions only, with N at every odd position."""

    def holds(w: str) -> bool:
        starts = [k for k in range(len(w) - 1) if w[k : k + 2] in ("NA", "NS")]
        return all(k % 2 == 0 and set(w[::2]) == {"N"} for k in starts)

    return _examples("na-ns-parity", ((f"{n}:{w}", holds(w)) for n, w in words))


def _check_congruence(orders: list[_Order], rng: np.random.Generator, gf4_cases: int) -> CheckResult:
    """Congruence by an invertible matrix preserves pr bits r_1..r_n."""
    failures: list[str] = []
    cases = 0
    for n in range(2, len(orders)):
        for _ in range(3):
            grid = _rand_invertible(rng, n, GF2)
            for cols, ent in _gf2_chunks(n):
                cases += ent.shape[2]
                changed = cols.start + np.flatnonzero(_pr_changed(ent, orders[n].letters[:, cols], grid, GF2))
                _keep_codes(failures, n, changed, f" E={grid}")
    drawn = []  # E kept as its n * n entries, row by row
    for _ in range(gf4_cases):
        n = int(rng.integers(1, 5))
        code = _draw_gf4(rng, n)
        drawn.append((n, code, bytes(sum(_rand_invertible(rng, n, GF4), []))))

    def grids(n, cases):  # (cases, n, n)
        return np.frombuffer(b"".join(case[2] for case in cases), np.uint8).reshape(-1, n, n)

    def test(batch, ent):
        return _pr_changed(ent, _letters(ent, GF4), grids(ent.shape[0], batch).transpose(1, 2, 0), GF4)

    def suffix(case):
        return f" E={grids(case[0], [case])[0].tolist()}"

    _run_gf4(drawn, failures, ["congruence"], test, suffix)
    return CheckResult("congruence-pr-invariance", cases + len(drawn), failures)


def _pr_changed(ent: np.ndarray, before, e, spec: FieldSpec) -> np.ndarray:
    """Where congruence by E changes some pr bit r_k (letter k is not N) of a matrix
    of ent, with letters before."""
    after = _letters(eng.congruence_entries(ent, e, spec), spec)
    return np.any([(a != 0) != (b != 0) for a, b in zip(before, after)], axis=0)


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

    outcomes = []
    for n in range(4, 13, 2):
        w = compute_epr(pendant_loop_complete(n))
        outcomes.append((f"pendant_loop_complete({n}) -> {w}", w.startswith("SS") and w.endswith("AN")))
    return _examples("pendant-loop-endpoints", outcomes)


def _check_attained_rule_soundness(words: list[tuple[int, str]]) -> CheckResult:
    """No attained word violates any prohibition rule."""
    from .classify import rule_violations

    hits = ((n, w, rule_violations(w)) for n, w in words)
    outcomes = ((f"{n}:{w} -> {[str(h) for h in found]}", not found) for n, w, found in hits)
    return _examples("attained-rule-soundness", outcomes)


def theorem_suite(
    *, max_n: int = 5, seed: int = DEFAULT_SEED, gf4_cases: int = 1000
) -> SuiteReport:
    """Run all sixteen checks; zero failures expected at default bounds.

    Matrix-quantified checks run exhaustively over GF(2) up to ``max_n``;
    word-level checks use catalogs up to ``max_n + 1``; field-generic
    identities additionally run ``gf4_cases`` seeded GF(4) cases each.
    The GF(2) checks hold each order's minor table with its letters, read
    once per run, and one chunk of codes at a time.
    Every drawn GF(4) case is held, as its matrix's code and a few small
    parameters, until its check's batches run, so
    ``gf4_cases`` is capped at 10^5: on a 2-vCPU host ``check-theorems``
    then takes about 20 s and 63 MiB of peak RSS, against 0.8 s and 40 MiB
    at the default 1000 (both grow linearly with it).
    """
    if not 2 <= max_n <= 5:
        raise ValueError(f"max_n must be in [2, 5], got {max_n}")
    if not 0 <= gf4_cases <= 10**5:
        raise ValueError(f"gf4_cases must be in [0, 10^5], got {gf4_cases}")
    words = _catalog_words(min(max_n + 1, 6))
    orders = _gf2_orders(max_n)
    rng = np.random.default_rng(seed)
    checks = [_check_nn(words), _check_inverse(orders), _check_inheritance(orders), _check_nsa(words)]
    checks += _check_schur(orders, rng, gf4_cases)
    checks += [
        _check_hyperdet(orders, rng, gf4_cases),
        _check_terminal_an_minors(orders),
        _check_append_transforms(orders, rng, gf4_cases),
        _check_na_ns_parity(words),
        _check_congruence(orders, rng, gf4_cases),
        _check_complete_graph_epr(),
        _check_loop_split_det(),
        _check_loop_complete_nonsingular(),
        _check_pendant_loop_endpoints(),
        _check_attained_rule_soundness(words),
    ]
    return SuiteReport(checks, seed=seed)
