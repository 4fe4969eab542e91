"""Exhaustive and randomized verification suites.

``enumerate_epr`` iterates every symmetric matrix of a given small order
(free upper-triangle entries encoded as one integer) and aggregates the
attained epr words into a catalog.  ``compare_with_classifier`` checks
that the catalog and the template classifier agree exactly, in both
directions.  ``theorem_suite`` runs sixteen independent checks, one per
structural fact the rest of the library relies on, exhaustively over
GF(2) up to its bounds and with seeded random GF(4) cases for the
field-generic identities.  The GF(4) cases are drawn one at a time,
then grouped by order and run as entry batches through the same
field-generic code maps (:mod:`eprseq._engine`) as the GF(2) sweeps.

All randomness is seeded; reports are reproducible given the same seed
and bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import combinations, product

import numpy as np

from . import _engine as eng
from .classify import classify_epr_z2, rule_violations
from .gfield import GF2, GF4, FieldSpec
from .matrix import (
    SymMatrix,
    _eliminate,
    complete_graph,
    loop_complete_graph,
    loop_split_graph,
    pendant_loop_complete,
)
from .sequence import _planes, compute_epr, pr_of_epr

DEFAULT_SEED = 1729
_MAX_FAILURES_KEPT = 20


class BoundExceededError(ValueError):
    """Enumeration request beyond the gated bounds."""


@dataclass
class EprCatalog:
    """Attained epr words of one order with counts and first witnesses."""

    order: int
    field: str
    counts: dict[str, int]
    exemplar: dict[str, SymMatrix]

    def total(self) -> int:
        return sum(self.counts.values())

    def to_text(self) -> str:
        """Export: one "<epr> <count>" line per word, sorted lexicographically."""
        return "".join(f"{w} {self.counts[w]}\n" for w in sorted(self.counts))


@dataclass
class CheckResult:
    name: str
    cases: int
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class SuiteReport:
    checks: list[CheckResult]
    seed: int | None = None

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

    GF(2) is bounded at n <= 6 and GF(4) at n <= 4; one order more, GF(2)
    n == 7 (2^28 matrices) or GF(4) n == 5 (2^30), is gated behind
    ``force=True``.
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
    words = enumerate_epr(n, spec, force=force).counts
    return {str(pr_of_epr(w, w[0] != "A")) for w in words}


def compare_with_classifier(n: int, *, jobs: int = 1) -> SuiteReport:
    """Cross-check enumeration against the Z2 classifier at order n.

    Reports words attained but rejected (soundness breach) and words
    accepted but never attained (completeness breach); both must be
    empty.
    """
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

def _all_codes(n: int) -> np.ndarray:
    return np.arange(1 << eng.tri(n), dtype=np.uint32)


def _gf2_minor_tables(max_n: int) -> list[np.ndarray]:
    """Entry n is the (2^n, codes) table of every principal minor of every
    symmetric GF(2) matrix of order n, n = 0..max_n."""
    return [eng.minor_tables(eng.decode_entries(_all_codes(n), n), GF2) for n in range(max_n + 1)]


def _mask(idx) -> int:
    """Minor-table row of the index set idx."""
    return sum(1 << i for i in idx)


@lru_cache(maxsize=None)
def _subsets(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """(subset, minor-table row) of every subset of range(n), by size."""
    return tuple((a, _mask(a)) for size in range(n + 1) for a in combinations(range(n), size))


def _catalog_words(max_order: int) -> list[tuple[int, str]]:
    out = []
    for n in range(1, max_order + 1):
        keys = np.flatnonzero(np.bincount(eng.letters_to_keys(eng.letter_arrays(n)))).tolist()
        out.extend((n, w) for w in sorted(eng.key_to_word(key, n) for key in keys))
    return out


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


_upper = lru_cache(maxsize=None)(np.triu_indices)


def _draw_gf4(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random symmetric GF(4) matrix (n, n), its upper triangle drawn row by row."""
    b = np.zeros((n, n), np.uint8)
    b[_upper(n)] = rng.integers(0, GF4.order, size=eng.tri(n))
    return b | b.T


def _gf4_letters(ent: np.ndarray) -> list[np.ndarray]:
    return eng.table_letters(eng.minor_tables(ent, GF4))


def _run_gf4(drawn: list[tuple], failures: list[str], kinds, test, suffix=lambda case: "") -> None:
    """Run drawn GF(4) cases (key, matrix, ...) in batches sharing a key.

    test(key, cases, (n, n, B) entries) flags each case's failures, one
    column per kind; each is kept in draw order as "gf4 <kind> <matrix><suffix>".
    """
    groups: dict = {}
    for c, case in enumerate(drawn):
        groups.setdefault(case[0], []).append(c)
    bad = np.zeros((len(drawn), len(kinds)), bool)
    for key, idx in groups.items():
        batch = [drawn[c] for c in idx]
        flags = test(key, batch, np.stack([case[1] for case in batch], axis=2))
        bad[idx] = np.reshape(flags, (len(idx), -1))
    for c, kind in np.argwhere(bad).tolist():
        b = SymMatrix(GF4, drawn[c][1].tolist())
        _keep(failures, f"gf4 {kinds[kind]} {b!r}{suffix(drawn[c])}")


# ---------------------------------------------------------------------------
# the sixteen checks
# ---------------------------------------------------------------------------

def _check_nn(words: list[tuple[int, str]]) -> CheckResult:
    """Two consecutive Ns force N for the rest of every attained word."""
    outcomes = ((f"{n}:{w}", "NN" not in w.rstrip("N")) for n, w in words)
    return _examples("nn-forces-n-tail", outcomes)


def _check_inverse(max_n: int) -> CheckResult:
    """epr of the inverse is the reversed word with terminal A."""
    failures: list[str] = []
    cases = 0
    for n in range(1, max_n + 1):
        letters = eng.letter_arrays(n)
        nz = _all_codes(n)[eng.det_table(n) == 1]
        inv_codes = eng.encode_entries(eng.inverse(eng.decode_entries(nz, n))[1])
        bad = letters[n - 1][inv_codes] != 2
        for j in range(1, n):
            bad |= letters[j - 1][inv_codes] != letters[n - j - 1][nz]
        cases += int(nz.size)
        _keep_codes(failures, n, nz[bad])
    return CheckResult("inverse-reversal", cases, failures)


def _check_inheritance(max_n: int) -> CheckResult:
    """Letter inheritance between a matrix and its principal submatrices."""
    failures: list[str] = []
    cases = 0
    for n in range(2, max_n + 1):
        codes = _all_codes(n)
        ent = eng.decode_entries(codes, n)
        big = eng.letter_arrays(n)
        for m in range(1, n):
            small = eng.letter_arrays(m)
            seen = np.zeros((m, 3, codes.size), bool)  # [i, l]: some B[alpha] has letter i + 1 = l
            for alpha in combinations(range(n), m):
                sub = eng.encode_entries(eng.gather_entries(ent, alpha))
                for i in range(m):
                    seen[i] |= small[i][sub] == np.arange(3)[:, None]
            bad = np.zeros(codes.size, bool)
            for i, (some_n, some_s, some_a) in enumerate(seen):
                bad |= (big[i] == 0) & (some_s | some_a)
                bad |= (big[i] == 2) & (some_n | some_s)
                bad |= (big[i] == 1) & ~(some_s if i < m - 1 else some_n & some_a)
            cases += int(codes.size)
            _keep_codes(failures, n, codes[bad], f" m={m}")
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


def _schur_cases(tables: list[np.ndarray]) -> list:
    """(n, alpha, valid, Schur complement codes) for every proper pivot set
    alpha, where the mask valid picks the codes of order n whose pivot block
    B[alpha] is nonsingular."""
    cases = []
    for n in range(2, len(tables)):
        ent = eng.decode_entries(_all_codes(n), n)
        for alpha, row in _subsets(n)[1:-1]:
            valid = tables[n][row] == 1
            ccodes = eng.encode_entries(eng.schur_entries(ent[:, :, valid], alpha))
            cases.append((n, alpha, valid, ccodes))
    return cases


def _check_schur_identity(
    schur_cases: list, tables: list[np.ndarray], rng: np.random.Generator, gf4_cases: int
) -> CheckResult:
    """det C[gamma] * det B[alpha] = det B[gamma u alpha]; rank C = rank B - k."""
    failures: list[str] = []
    cases = 0
    for n, alpha, valid, ccodes in schur_cases:
        k = len(alpha)
        comp = tuple(i for i in range(n) if i not in alpha)
        bad = eng.rank_array(n - k)[ccodes] != eng.rank_array(n)[valid] - k
        for gamma, row in _subsets(n - k):
            union = _mask(alpha) | _mask(comp[g] for g in gamma)
            bad |= tables[n - k][row, ccodes] != tables[n][union, valid]
            cases += int(ccodes.size)
        _keep_codes(failures, n, np.flatnonzero(valid)[bad], f" alpha={alpha}")
    # GF(4): the quotient genuinely divides by a non-unit determinant.  The
    # pivot draw reads b's nonzero proper minors, so it stays in the draw loop.
    drawn = []
    for _ in range(gf4_cases):
        n = int(rng.integers(2, 6))
        b = _draw_gf4(rng, n)
        nonzero = reduce(int.__or__, _planes(b.tolist(), GF4))
        pivots = [a for a, row in _subsets(n)[1:-1] if nonzero >> row & 1]
        if pivots:
            alpha = pivots[int(rng.integers(0, len(pivots)))]
            gamma = np.flatnonzero(rng.integers(0, 2, size=n - len(alpha))).tolist()
            drawn.append(((n, alpha), b, gamma))

    def test(key, batch, ent):
        n, alpha = key
        comp = [i for i in range(n) if i not in alpha]
        bdets = eng.minor_tables(ent, GF4)
        cdets = eng.minor_tables(eng.schur_entries(ent, alpha, GF4), GF4)
        cols = np.arange(len(batch))
        left = eng.times(cdets[[_mask(g) for *_, g in batch], cols], bdets[_mask(alpha)], GF4)
        right = bdets[[_mask(alpha) | _mask(comp[i] for i in g) for *_, g in batch], cols]
        gap = eng.ranks(eng.table_letters(bdets)) - eng.ranks(eng.table_letters(cdets))
        return (left != right) | (gap != len(alpha))

    def suffix(case):
        (_, alpha), _, gamma = case
        return f" alpha={tuple(a + 1 for a in alpha)} gamma={tuple(g + 1 for g in gamma)}"

    _run_gf4(drawn, failures, ["schur"], test, suffix)
    return CheckResult("schur-complement-identity", cases + len(drawn), failures)


def _check_schur_letters(schur_cases: list) -> CheckResult:
    """Schur complement keeps the A/N letters shifted by the pivot size."""
    failures: list[str] = []
    cases = 0
    for n, alpha, valid, ccodes in schur_cases:
        k = len(alpha)
        m = n - k
        big = eng.letter_arrays(n)
        small = eng.letter_arrays(m)
        bad = np.zeros(ccodes.size, bool)
        for j in range(1, m + 1):
            top = big[j + k - 1][valid]
            fixed = (top == 0) | (top == 2)
            bad |= fixed & (small[j - 1][ccodes] != top)
        cases += int(ccodes.size) * m
        _keep_codes(failures, n, np.flatnonzero(valid)[bad], f" alpha={alpha}")
    return CheckResult("schur-complement-letters", cases, failures)


def _check_hyperdet(
    tables: list[np.ndarray], rng: np.random.Generator, gf4_cases: int
) -> CheckResult:
    """Four-term squared principal-minor identity in characteristic 2."""
    failures: list[str] = []
    cases = 0
    for n in range(3, len(tables)):
        dets = tables[n]
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
        b = _draw_gf4(rng, n)
        tau = tuple(sorted(rng.choice(n, size=3, replace=False).tolist()))
        rest = [x for x in range(n) if x not in tau]
        base = tuple(x for x, bit in zip(rest, rng.integers(0, 2, size=n - 3)) if bit)
        drawn.append((n, b, tau, base))

    def test(_, batch, ent):
        taus = np.array([[1 << t for t in tau] for _, _, tau, _ in batch]).T
        bases = np.array([_mask(base) for *_, base in batch])
        dets = eng.minor_tables(ent, GF4)
        return _hyperdet_sum(dets, np.arange(len(batch)), bases, taus, GF4) != 0

    _run_gf4(drawn, failures, ["hyperdet"], test, lambda case: f" tau={case[2]} I={case[3]}")
    return CheckResult("hyperdeterminantal-relation", cases + len(drawn), failures)


def _hyperdet_sum(dets: np.ndarray, cols, s, tau_masks, spec: FieldSpec) -> np.ndarray:
    """Sum over the splits {X, tau - X}, |X| even, of det B[S u X] det B[S u (tau - X)]:
    squaring is additive and injective in characteristic 2, so it is zero where the
    squared four-term relation holds.  Masks are scalars or one per column (cols)."""
    i, j, k = tau_masks

    def pair(a, b):
        return eng.times(dets[s | a, cols], dets[s | b, cols], spec)

    return pair(0, i | j | k) ^ pair(i, j | k) ^ pair(j, i | k) ^ pair(k, i | j)


def _check_terminal_an_minors(max_n: int) -> CheckResult:
    """A terminal AN forces every order-(n-1) minor nonzero, principal or not."""
    failures: list[str] = []
    cases = 0
    for n in range(2, max_n + 1):
        codes = _all_codes(n)
        letters = eng.letter_arrays(n)
        sel = codes[(letters[n - 2][codes] == 2) & (letters[n - 1][codes] == 0)]
        bad = (eng.deleted_minors(eng.decode_entries(sel, n)) == 0).any(axis=(0, 1))
        cases += int(sel.size)
        _keep_codes(failures, n, sel[bad])
    return CheckResult("terminal-an-full-minors", cases, failures)


def _appended(ent: np.ndarray) -> list[np.ndarray]:
    """Entries with a copy of the last index appended, and with a zero index appended."""
    n = ent.shape[0]
    return [eng.gather_entries(ent, (*range(n), last)) for last in (n - 1, n)]


def _check_append_transforms(max_n: int, rng: np.random.Generator, gf4_cases: int) -> CheckResult:
    """Letterwise effect of duplicating the last index or appending a zero one."""
    failures: list[str] = []
    cases = 0
    for n in range(1, max_n + 1):
        codes = _all_codes(n)
        big = eng.letter_arrays(n + 1)
        appended = [eng.encode_entries(e) for e in _appended(eng.decode_entries(codes, n))]
        dup, zero = ([arr[c] for arr in big] for c in appended)
        bad_dup, bad_zero = _append_bad(eng.letter_arrays(n), dup, zero)
        cases += int(codes.size) * 2
        _keep_codes(failures, n, codes[bad_dup | bad_zero])
    drawn = [(n, _draw_gf4(rng, n)) for n in (int(rng.integers(1, 5)) for _ in range(gf4_cases))]
    def test(_, batch, ent):
        dup, zero = _appended(ent)
        return np.stack(_append_bad(*map(_gf4_letters, (ent, dup, zero))), axis=1)

    _run_gf4(drawn, failures, ["append-dup", "append-zero"], test)
    return CheckResult("append-transforms", cases + 2 * len(drawn), failures)


def _append_bad(small, dup, zero) -> tuple[np.ndarray, np.ndarray]:
    """Where appending a copy of the last index (letters dup) or a zero index (zero)
    to a matrix with letters small breaks the rule: both end in N, the copy keeps
    letter 1, and every other letter becomes S unless it was N."""
    n = len(small)
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


def _check_congruence(max_n: int, rng: np.random.Generator, gf4_cases: int) -> CheckResult:
    """Congruence by an invertible matrix preserves pr bits r_1..r_n."""
    failures: list[str] = []
    cases = 0
    for n in range(2, max_n + 1):
        codes = _all_codes(n)
        ent = eng.decode_entries(codes, n)
        letters = eng.letter_arrays(n)
        for _ in range(3):
            grid = _rand_invertible(rng, n, GF2)
            new_codes = eng.encode_entries(eng.congruence_entries(ent, grid))
            cases += int(codes.size)
            bad = _pr_changed(letters, [arr[new_codes] for arr in letters])
            _keep_codes(failures, n, codes[bad], f" E={grid}")
    drawn = []
    for _ in range(gf4_cases):
        n = int(rng.integers(1, 5))
        b = _draw_gf4(rng, n)
        drawn.append((n, b, _rand_invertible(rng, n, GF4)))

    def test(_, batch, ent):
        e = np.array([case[2] for case in batch], np.uint8).transpose(1, 2, 0)
        return _pr_changed(_gf4_letters(ent), _gf4_letters(eng.congruence_entries(ent, e, GF4)))

    _run_gf4(drawn, failures, ["congruence"], test, lambda case: f" E={case[2]}")
    return CheckResult("congruence-pr-invariance", cases + len(drawn), failures)


def _pr_changed(before, after) -> np.ndarray:
    """Where some pr bit r_k (letter k is not N) differs between two letter lists."""
    return np.any([(a != 0) != (b != 0) for a, b in zip(before, after)], axis=0)


def _check_complete_graph_epr() -> CheckResult:
    """epr of the complete graph alternates NA, with a final N at odd order."""
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
    outcomes = []
    for n in range(4, 13, 2):
        w = compute_epr(pendant_loop_complete(n))
        outcomes.append((f"pendant_loop_complete({n}) -> {w}", w.startswith("SS") and w.endswith("AN")))
    return _examples("pendant-loop-endpoints", outcomes)


def _check_attained_rule_soundness(words: list[tuple[int, str]]) -> CheckResult:
    """No attained word violates any prohibition rule."""
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
    Every drawn case is held until its check's batches run, so
    ``gf4_cases`` is capped at 10^5, which adds at most about 20 s and
    70 MiB of peak RSS on a 2-vCPU host (both grow linearly with it).
    """
    if not 2 <= max_n <= 5:
        raise ValueError(f"max_n must be in [2, 5], got {max_n}")
    if not 0 <= gf4_cases <= 10**5:
        raise ValueError(f"gf4_cases must be in [0, 10^5], got {gf4_cases}")
    words = _catalog_words(min(max_n + 1, 6))
    tables = _gf2_minor_tables(max_n)
    schur_cases = _schur_cases(tables)
    rng = np.random.default_rng(seed)
    checks = [
        _check_nn(words),
        _check_inverse(max_n),
        _check_inheritance(max_n),
        _check_nsa(words),
        _check_schur_identity(schur_cases, tables, rng, gf4_cases),
        _check_schur_letters(schur_cases),
        _check_hyperdet(tables, rng, gf4_cases),
        _check_terminal_an_minors(max_n),
        _check_append_transforms(max_n, rng, gf4_cases),
        _check_na_ns_parity(words),
        _check_congruence(max_n, rng, gf4_cases),
        _check_complete_graph_epr(),
        _check_loop_split_det(),
        _check_loop_complete_nonsingular(),
        _check_pendant_loop_endpoints(),
        _check_attained_rule_soundness(words),
    ]
    return SuiteReport(checks, seed=seed)
