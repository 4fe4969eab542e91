"""The sixteen checks of eprseq.verify.theorem_suite, on eprseq._engine.

Every batch checked is one ``_Batch`` built by ``_batch``: per GF(2)
order, the least codes of the S_n orbits, which six halves check with
case counts weighted by orbit size, and each run of consecutive codes,
which the congruence half checks; each order's drawn GF(4) cases; and
the image of every code map.  Each field-generic identity is one
predicate over batches that its GF(2) and GF(4) halves both call.  The
seeded draws (the GF(4) cases, the congruence grids E) come from eprseq._rng,
numpy.random.default_rng's stream replayed in pure Python, so the suite loads
numpy's arrays but never numpy.random.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial, reduce
from itertools import combinations

import numpy as np

from . import _engine as eng
from ._rng import Rng
from ._sweep import code_matrix, code_rows, orbit_reps, triangle_code, tri
from .gfield import GF2, GF4, FieldSpec
from .matrix import _eliminate, complete_graph, loop_complete_graph, loop_split_graph, pendant_loop_complete
from .verify import CheckResult, _catalog_raw

_MAX_FAILURES_KEPT = 20


# B symmetric matrices of order n over spec, the batch on the last axis: the GF(2)
# codes naming failures (else None), entries (n, n, B), (2^n, B) minor table,
# (n, B) letters (0=N, 1=S, 2=A), (B,) ranks, and, when each matrix is the least
# code of its S_n orbit standing for the whole orbit, the (B,) orbit sizes (else
# None).  Built only by _batch.
_Batch = namedtuple("_Batch", "n spec codes ent dets letters ranks sizes")


def _batch(ent: np.ndarray, spec: FieldSpec, codes: np.ndarray | None = None, sizes=None) -> _Batch:
    """The batch of an (n, n, B) entry array."""
    dets = eng.minor_tables(ent, spec)
    letters = eng.table_letters(dets)
    return _Batch(ent.shape[0], spec, codes, ent, dets, letters, eng.ranks(letters), sizes)


def _gf2_pass(max_n: int, per_code, per_orbit=()) -> dict[str, list]:
    """[cases, first failures] of each check name the GF(2) halves yield over every
    symmetric GF(2) matrix of order 1..max_n.

    A half yields (name, columns checked, cases per column, failing mask over
    those columns, failure suffix) per batch.  The per_orbit halves judge B and
    every P B P^T alike, so each order hands them one batch of the least code of
    every S_n orbit (orbit_reps), and a rep's cases count once per matrix of its
    orbit.  The per_code halves get each run of eng._RUN_CODES consecutive codes
    of the order, built once, handed to each of them, then dropped.  With every
    half in per_code this is the every-code pass the orbit pass is tested against."""
    found: dict[str, list] = {}

    def run(halves, b: _Batch) -> None:
        for half in halves:
            for name, cols, per, bad, suffix in half(b):
                tally = found.setdefault(name, [0, []])
                codes = b.codes[cols]
                tally[0] += per * (codes.size if b.sizes is None else int(b.sizes[cols].sum()))
                _keep_codes(tally[1], b.n, codes[bad], suffix)

    for n in range(1, max_n + 1):
        if per_orbit:
            reps, sizes = map(np.array, orbit_reps(n, GF2))
            run(per_orbit, _batch(eng.decode_entries(reps, n), GF2, reps, sizes))
        total = 1 << tri(n)
        for start in range(0, total if per_code else 0, eng._RUN_CODES):
            codes = np.arange(start, min(start + eng._RUN_CODES, total))
            run(per_code, _batch(eng.decode_entries(codes, n), GF2, codes))
    return found


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
    return [(n, w) for n in range(1, max_order + 1) for w in sorted(_catalog_raw(n, GF2, 1)[0])]


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


def _rand_invertible(rng: Rng, n: int, spec: FieldSpec) -> list[list[int]]:
    while True:
        grid = [rng.integers(0, spec.order, n) for _ in range(n)]
        if _eliminate([row[:] for row in grid], spec, range(n))[0] == n:
            return grid


def _draw_gf4(rng: Rng, n: int) -> int:
    """Code of a random symmetric GF(4) matrix of order n, its upper triangle drawn row by row."""
    return triangle_code(rng.integers(0, GF4.order, tri(n)), GF4)


def _run_gf4(drawn: list[tuple], kinds, test, suffix=lambda case: "") -> list[str]:
    """Run drawn GF(4) cases (n, code, ...), code encoding a matrix of order n, in
    one batch per order, and return the first failures.

    test(cases, _Batch) flags each case's failures, one column per kind; each
    is kept in draw order as "gf4 <kind> <matrix><suffix>".
    """
    groups: dict = {}
    for c, case in enumerate(drawn):
        groups.setdefault(case[0], []).append(c)
    bad = np.zeros((len(drawn), len(kinds)), bool)
    for idx in groups.values():
        cases = [drawn[c] for c in idx]
        ent = eng.decode_entries(np.array([case[1] for case in cases]), cases[0][0], GF4)
        bad[idx] = np.reshape(test(cases, _batch(ent, GF4)), (len(idx), -1))
    failures: list[str] = []
    for c, kind in np.argwhere(bad).tolist():
        n, code = drawn[c][:2]
        _keep(failures, f"gf4 {kinds[kind]} {code_matrix(code, n, GF4)!r}{suffix(drawn[c])}")
    return failures


# ---------------------------------------------------------------------------
# the sixteen checks
# ---------------------------------------------------------------------------

def _check_nn(words: list[tuple[int, str]]) -> CheckResult:
    """Two consecutive Ns force N for the rest of every attained word."""
    outcomes = ((f"{n}:{w}", "NN" not in w.rstrip("N")) for n, w in words)
    return _examples("nn-forces-n-tail", outcomes)


def _inverse_gf2(b: _Batch):
    """epr of the inverse is the reversed word with terminal A."""
    nz = np.flatnonzero(eng.det_table(b.n)[b.codes])
    after = _batch(eng.inverse(b.ent.take(nz, axis=2))[1], GF2).letters
    # letters 1..n-1 of the inverse are B's n-1..1
    bad = (after[-1] != 2) | (after[:-1] != b.letters[:-1].take(nz, axis=1)[::-1]).any(axis=0)
    yield "inverse-reversal", nz, 1, bad, ""


def _inheritance_gf2(b: _Batch):
    """Letter inheritance between a matrix and its principal submatrices."""
    for m in range(1, b.n):
        # seen[i, l]: some B[alpha] has letter i + 1 = l, read off B's rows within alpha
        seen = np.zeros((m, 3, b.codes.size), bool)
        for alpha in combinations(range(b.n), m):
            small = eng.table_letters(b.dets[_rows_within(alpha)])
            for i in range(m):
                seen[i] |= small[i] == np.arange(3)[:, None]
        bad = np.zeros(b.codes.size, bool)
        for i, (some_n, some_s, some_a) in enumerate(seen):
            big = b.letters[i]
            bad |= (big == 0) & (some_s | some_a)
            bad |= (big == 2) & (some_n | some_s)
            bad |= (big == 1) & ~(some_s if i < m - 1 else some_n & some_a)
        yield "inheritance", slice(None), 1, bad, f" m={m}"


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
    B shifted by the pivot size k.  Each (batch, pivot set) case feeds both checks."""
    for alpha, row in _subsets(b.n)[1:-1]:
        sel = np.flatnonzero(b.dets[row])
        c = _batch(eng.schur_entries(b.ent.take(sel, axis=2), alpha), GF2)
        bad = _schur_bad(b, sel, alpha, c)
        yield "schur-complement-identity", sel, len(c.dets), bad, f" alpha={alpha}"
        top = b.letters[len(alpha) :].take(sel, axis=1)  # B's letters k+1..n: C keeps their As and Ns
        bad = ((top != 1) & (c.letters != top)).any(axis=0)
        yield "schur-complement-letters", sel, len(top), bad, f" alpha={alpha}"


def _schur_gf4(rng: Rng, gf4_cases: int) -> tuple[int, list[str]]:
    """The Schur identity over GF(4), where the quotient genuinely divides by a
    non-unit determinant.  The pivot draw reads b's nonzero proper minors, so it
    stays in the draw loop."""
    from .sequence import _planes

    drawn = []
    for _ in range(gf4_cases):
        n = rng.integers(2, 6)
        code = _draw_gf4(rng, n)
        nonzero = reduce(int.__or__, _planes(code_rows(code, n, GF4), GF4))
        pivots = [row for _, row in _subsets(n)[1:-1] if nonzero >> row & 1]
        if pivots:
            alpha = pivots[rng.integers(0, len(pivots))]
            gamma = sum(bit << i for i, bit in enumerate(rng.integers(0, 2, n - alpha.bit_count())))
            drawn.append((n, code, alpha, gamma))

    def test(cases, b):  # one Schur image per pivot set of the order's cases
        alphas, gammas = np.array([case[2:] for case in cases]).T
        bad = np.zeros(len(cases), bool)
        for alpha in set(alphas.tolist()):
            cols = np.flatnonzero(alphas == alpha)
            c = _batch(eng.schur_entries(b.ent.take(cols, axis=2), _members(alpha), b.spec), b.spec)
            bad[cols] = _schur_bad(b, cols, _members(alpha), c, gammas[cols])
        return bad

    def suffix(case):
        *_, alpha, gamma = case
        return f" alpha={tuple(a + 1 for a in _members(alpha))} gamma={tuple(g + 1 for g in _members(gamma))}"

    return len(drawn), _run_gf4(drawn, ["schur"], test, suffix)


def _joined_rows(n: int, alpha: tuple[int, ...]) -> np.ndarray:
    """Minor-table row of alpha u gamma for each row gamma of C = B / B[alpha]'s
    table; the first, gamma = {}, is alpha's."""
    return _mask(alpha) | _rows_within(tuple(i for i in range(n) if i not in alpha))


def _schur_bad(b: _Batch, cols: np.ndarray, alpha, c: _Batch, gammas=None) -> np.ndarray:
    """Where C = B / B[alpha], the batch c of the columns cols of b, breaks
    rank C = rank B - |alpha| or det C[gamma] det B[alpha] = det B[alpha u gamma],
    for every gamma or for the one gamma (a row of C's table) of each column."""
    # .take(cols, axis=1) gathers columns 3-4x faster than indexing [rows, cols]
    joined = b.dets[_joined_rows(b.n, alpha)].take(cols, axis=1)
    wrong = b.spec.mul(c.dets, joined[0]) != joined
    if gammas is not None:
        wrong = np.take_along_axis(wrong, gammas[None], axis=0)
    return wrong.any(axis=0) | (b.ranks.take(cols) - c.ranks != len(alpha))


def _hyperdet_gf2(b: _Batch):
    """Four-term squared principal-minor identity in characteristic 2."""
    for tau in combinations(range(b.n), 3):
        rest = [x for x in range(b.n) if x not in tau]
        for sub, _ in _subsets(len(rest)):
            base = tuple(rest[x] for x in sub)
            total = _hyperdet_sum(b, slice(None), _mask(base), [1 << t for t in tau])
            yield "hyperdeterminantal-relation", slice(None), 1, total != 0, f" tau={tau} I={base}"


def _hyperdet_gf4(rng: Rng, gf4_cases: int) -> tuple[int, list[str]]:
    drawn = []
    for _ in range(gf4_cases):
        n = rng.integers(3, 6)
        code = _draw_gf4(rng, n)
        tau = tuple(sorted(rng.sample(n, 3)))
        rest = [x for x in range(n) if x not in tau]
        base = tuple(x for x, bit in zip(rest, rng.integers(0, 2, n - 3)) if bit)
        drawn.append((n, code, _mask(tau), _mask(base)))

    def test(cases, b):
        taus = np.array([[1 << t for t in _members(tau)] for _, _, tau, _ in cases]).T
        bases = np.array([base for *_, base in cases])
        return _hyperdet_sum(b, np.arange(len(cases)), bases, taus) != 0

    def suffix(case):
        *_, tau, base = case
        return f" tau={_members(tau)} I={_members(base)}"

    return len(drawn), _run_gf4(drawn, ["hyperdet"], test, suffix)


def _hyperdet_sum(b: _Batch, cols, s, tau_masks) -> np.ndarray:
    """Sum over the splits {X, tau - X}, |X| even, of det B[S u X] det B[S u (tau - X)],
    off b.dets: squaring is additive and injective in characteristic 2, so it is zero
    where the squared four-term relation holds.  Masks are scalars or one per column (cols)."""
    i, j, k = tau_masks

    def pair(x, y):
        return b.spec.mul(b.dets[s | x, cols], b.dets[s | y, cols])

    return pair(0, i | j | k) ^ pair(i, j | k) ^ pair(j, i | k) ^ pair(k, i | j)


def _terminal_an_gf2(b: _Batch):
    """A terminal AN forces every order-(n-1) minor nonzero, principal or not."""
    if b.n < 2:
        return
    sel = np.flatnonzero((b.letters[b.n - 2] == 2) & (b.letters[b.n - 1] == 0))
    bad = (eng.deleted_minors(b.ent.take(sel, axis=2)) == 0).any(axis=(0, 1))
    yield "terminal-an-full-minors", sel, 1, bad, ""


def _append_gf2(b: _Batch):
    """Letterwise effect of duplicating the last index or appending a zero one."""
    bad_dup, bad_zero = _append_bad(b)
    yield "append-transforms", slice(None), 2, bad_dup | bad_zero, ""


def _append_gf4(rng: Rng, gf4_cases: int) -> tuple[int, list[str]]:
    drawn = [(n, _draw_gf4(rng, n)) for n in (rng.integers(1, 5) for _ in range(gf4_cases))]

    def test(cases, b):
        return np.stack(_append_bad(b), axis=1)

    return 2 * len(drawn), _run_gf4(drawn, ["append-dup", "append-zero"], test)


def _append_bad(b: _Batch) -> tuple[np.ndarray, np.ndarray]:
    """Where appending a copy of the last index or a zero index to a matrix of b
    breaks the rule: both end in N, the copy keeps letter 1, and every other
    letter becomes S unless it was N.  P B P^T's last index is one of B's, so a
    batch of orbit reps (b.sizes set) copies each of its indices in turn."""
    n = b.n
    damp = np.minimum(b.letters, 1)
    bad_dup = np.zeros(b.letters.shape[1], bool)
    for last in range(n) if b.sizes is not None else (n - 1,):
        dup = _batch(eng.gather_entries(b.ent, (*range(n), last)), b.spec).letters
        bad_dup |= (dup[n] != 0) | (dup[0] != b.letters[0]) | (dup[1:n] != damp[1:]).any(axis=0)
    zero = _batch(eng.gather_entries(b.ent, (*range(n), n)), b.spec).letters
    bad_zero = (zero[n] != 0) | (zero[:n] != damp).any(axis=0)
    return bad_dup, bad_zero


def _check_na_ns_parity(words: list[tuple[int, str]]) -> CheckResult:
    """NA/NS starts at odd positions only, with N at every odd position."""

    def holds(w: str) -> bool:
        starts = [k for k in range(len(w) - 1) if w[k : k + 2] in ("NA", "NS")]
        return all(k % 2 == 0 and set(w[::2]) == {"N"} for k in starts)

    return _examples("na-ns-parity", ((f"{n}:{w}", holds(w)) for n, w in words))


def _congruence_gf2(b: _Batch, grids: dict[int, list]):
    """Congruence by an invertible matrix preserves pr bits r_1..r_n, for each
    grid E drawn for order n."""
    for grid in grids.get(b.n, ()):
        yield "congruence-pr-invariance", slice(None), 1, _pr_changed(b, grid), f" E={grid}"


def _congruence_gf4(rng: Rng, gf4_cases: int) -> tuple[int, list[str]]:
    drawn = []  # E kept as its n * n entries, row by row
    for _ in range(gf4_cases):
        n = rng.integers(1, 5)
        code = _draw_gf4(rng, n)
        drawn.append((n, code, bytes(sum(_rand_invertible(rng, n, GF4), []))))

    def grids(n, cases):  # (cases, n, n)
        return np.frombuffer(b"".join(case[2] for case in cases), np.uint8).reshape(-1, n, n)

    def test(cases, b):
        return _pr_changed(b, grids(b.n, cases).transpose(1, 2, 0))

    def suffix(case):
        return f" E={grids(case[0], [case])[0].tolist()}"

    return len(drawn), _run_gf4(drawn, ["congruence"], test, suffix)


def _pr_changed(b: _Batch, e) -> np.ndarray:
    """Where congruence by E changes some pr bit r_k (letter k is not N) of a matrix of b."""
    after = _batch(eng.congruence_entries(b.ent, e, b.spec), b.spec).letters
    return ((after != 0) != (b.letters != 0)).any(axis=0)


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


def _gf2_halves(rng: Rng, max_n: int) -> tuple[list, list]:
    """The GF(2) half of each exhaustive check, as _gf2_pass's (per_code, per_orbit).
    The congruence half checks three grids E drawn for each order 2..max_n, and
    E (P B P^T) E^T = (E P) B (E P)^T, so it runs over every code; every other
    half judges each matrix of an S_n orbit alike."""
    grids = {n: [_rand_invertible(rng, n, GF2) for _ in range(3)] for n in range(2, max_n + 1)}
    per_orbit = [_inverse_gf2, _inheritance_gf2, _schur_gf2, _hyperdet_gf2, _terminal_an_gf2, _append_gf2]
    return [partial(_congruence_gf2, grids=grids)], per_orbit


def run_checks(max_n: int, seed: int, gf4_cases: int) -> list[CheckResult]:
    """The sixteen checks of eprseq.verify.theorem_suite, in report order."""
    words = _catalog_words(min(max_n + 1, 6))
    rng = Rng(seed)
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
