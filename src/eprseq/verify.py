"""Exhaustive and randomized verification suites.

``enumerate_epr`` iterates every symmetric matrix of a given small order
(free upper-triangle entries encoded as one integer) and aggregates the
attained epr words into a catalog.  ``compare_with_classifier`` checks
that the catalog and the template classifier agree exactly, in both
directions.  ``theorem_suite`` runs sixteen independent checks, one per
structural fact the rest of the library relies on, exhaustively over
GF(2) up to its bounds and with seeded random GF(4) cases for the
field-generic identities.

All randomness is seeded; reports are reproducible given the same seed
and bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
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
from .sequence import compute_epr, compute_pr, pr_of_epr, principal_minors

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


def _mask(idx, base: int = 0) -> int:
    """Minor-table row of the index set idx, whose first index is base."""
    return sum(1 << (i - base) for i in idx)


def _catalog_words(max_order: int) -> list[tuple[int, str]]:
    out = []
    for n in range(1, max_order + 1):
        keys = np.flatnonzero(np.bincount(eng.letters_to_keys(eng.letter_arrays(n)))).tolist()
        out.extend((n, w) for w in sorted(eng.key_to_word(key, n) for key in keys))
    return out


def _serialize_code(n: int, code: int) -> str:
    return f"order {n} code {code}"


def _keep(failures: list[str], item: str) -> None:
    if len(failures) < _MAX_FAILURES_KEPT:
        failures.append(item)


def _rand_sym(rng: np.random.Generator, n: int, spec: FieldSpec) -> SymMatrix:
    q = spec.order
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            v = int(rng.integers(0, q))
            rows[i][j] = rows[j][i] = v
    return SymMatrix(spec, rows)


def _rand_invertible(rng: np.random.Generator, n: int, spec: FieldSpec) -> list[list[int]]:
    q = spec.order
    while True:
        grid = [[int(rng.integers(0, q)) for _ in range(n)] for _ in range(n)]
        if _eliminate([row[:] for row in grid], spec, range(n))[0] == n:
            return grid


def _fe_matmul(a: list[list[int]], b: list[list[int]], spec: FieldSpec) -> list[list[int]]:
    mul = spec.mul
    rows = len(a)
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for j in range(cols):
            acc = 0
            for t in range(inner):
                acc ^= mul(a[i][t], b[t][j])
            out[i][j] = acc
    return out


# ---------------------------------------------------------------------------
# the sixteen checks
# ---------------------------------------------------------------------------

def _check_nn(words: list[tuple[int, str]]) -> CheckResult:
    """Two consecutive Ns force N for the rest of every attained word."""
    failures: list[str] = []
    cases = 0
    for n, w in words:
        cases += 1
        for k in range(n - 1):
            if w[k] == "N" and w[k + 1] == "N" and set(w[k:]) != {"N"}:
                _keep(failures, f"{n}:{w}")
                break
    return CheckResult("nn-forces-n-tail", cases, failures)


def _check_inverse(max_n: int) -> CheckResult:
    """epr of the inverse is the reversed word with terminal A."""
    failures: list[str] = []
    cases = 0
    for n in range(1, max_n + 1):
        letters = eng.letter_arrays(n)
        nz = _all_codes(n)[eng.det_table(n) == 1]
        inv_codes = eng.encode_entries(eng.gf2_inverse(eng.decode_entries(nz, n))[1])
        bad = letters[n - 1][inv_codes] != 2
        for j in range(1, n):
            bad |= letters[j - 1][inv_codes] != letters[n - j - 1][nz]
        cases += int(nz.size)
        for code in nz[bad][:_MAX_FAILURES_KEPT]:
            _keep(failures, _serialize_code(n, int(code)))
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
            all_n = [np.ones(codes.size, bool) for _ in range(m)]
            all_a = [np.ones(codes.size, bool) for _ in range(m)]
            any_s = [np.zeros(codes.size, bool) for _ in range(m)]
            any_a_top = np.zeros(codes.size, bool)
            any_n_top = np.zeros(codes.size, bool)
            for alpha in combinations(range(n), m):
                sub = eng.gather_codes(ent, alpha)
                for i in range(m):
                    li = small[i][sub]
                    all_n[i] &= li == 0
                    all_a[i] &= li == 2
                    any_s[i] |= li == 1
                top = small[m - 1][sub]
                any_a_top |= top == 2
                any_n_top |= top == 0
            bad = np.zeros(codes.size, bool)
            for i in range(m):
                bi = big[i][codes]
                bad |= (bi == 0) & ~all_n[i]
                bad |= (bi == 2) & ~all_a[i]
                if i < m - 1:
                    bad |= (bi == 1) & ~any_s[i]
            bad |= (big[m - 1][codes] == 1) & ~(any_a_top & any_n_top)
            cases += int(codes.size)
            for code in codes[bad][:_MAX_FAILURES_KEPT]:
                _keep(failures, _serialize_code(n, int(code)) + f" m={m}")
    return CheckResult("inheritance", cases, failures)


def _check_nsa(words: list[tuple[int, str]]) -> CheckResult:
    """NSA never occurs; ASN is never followed by a later A."""
    failures: list[str] = []
    cases = 0
    for n, w in words:
        cases += 1
        if "NSA" in w:
            _keep(failures, f"{n}:{w}")
            continue
        p = w.find("ASN")
        if p >= 0 and "A" in w[p + 3 :]:
            _keep(failures, f"{n}:{w}")
    return CheckResult("nsa-prohibition", cases, failures)


def _schur_cases(tables: list[np.ndarray]) -> list:
    """(n, alpha, valid, entries, Schur complement entries) for every proper
    pivot set alpha, where the mask valid picks the codes of order n whose
    pivot block B[alpha] is nonsingular."""
    cases = []
    for n in range(2, len(tables)):
        ent = eng.decode_entries(_all_codes(n), n)
        for k in range(1, n):
            for alpha in combinations(range(n), k):
                valid = tables[n][_mask(alpha)] == 1
                vent = ent[:, :, valid]
                cases.append((n, alpha, valid, vent, eng.schur_entries(vent, alpha)))
    return cases


def _check_schur_identity(
    schur_cases: list, tables: list[np.ndarray], rng: np.random.Generator, gf4_cases: int
) -> CheckResult:
    """det C[gamma] * det B[alpha] = det B[gamma u alpha]; rank C = rank B - k."""
    failures: list[str] = []
    cases = 0
    for n, alpha, valid, _, cent in schur_cases:
        k = len(alpha)
        m = n - k
        comp = tuple(i for i in range(n) if i not in alpha)
        ccodes = eng.encode_entries(cent)
        bad = eng.rank_array(m)[ccodes] != eng.rank_array(n)[valid] - k
        for gsize in range(0, m + 1):
            for gamma in combinations(range(m), gsize):
                left = tables[m][_mask(gamma), ccodes]
                right = tables[n][_mask(alpha) | _mask(comp[g] for g in gamma), valid]
                bad |= left != right
                cases += int(ccodes.size)
        for code in np.flatnonzero(valid)[bad][:_MAX_FAILURES_KEPT]:
            _keep(failures, _serialize_code(n, int(code)) + f" alpha={alpha}")
    # GF(4): the quotient genuinely divides by a non-unit determinant.
    for _ in range(gf4_cases):
        n = int(rng.integers(2, 6))
        b = _rand_sym(rng, n, GF4)
        dets = principal_minors(b).tolist()
        pivots = [
            a
            for size in range(1, n)
            for a in combinations(range(1, n + 1), size)
            if dets[_mask(a, 1)] != 0
        ]
        if not pivots:
            continue
        alpha = pivots[int(rng.integers(0, len(pivots)))]
        c = b.schur_complement(alpha)
        labels = [i for i in range(1, n + 1) if i not in alpha]
        gamma = tuple(
            j + 1 for j in range(len(labels)) if rng.integers(0, 2)
        )
        da = dets[_mask(alpha, 1)]
        left = int(principal_minors(c)[_mask(gamma, 1)])
        union = tuple(sorted(alpha + tuple(labels[g - 1] for g in gamma)))
        right = dets[_mask(union, 1)]
        cases += 1
        if GF4.mul(left, da) != right or c.rank() != b.rank() - len(alpha):
            _keep(failures, f"gf4 schur {b!r} alpha={alpha} gamma={gamma}")
    return CheckResult("schur-complement-identity", cases, failures)


def _check_schur_letters(schur_cases: list) -> CheckResult:
    """Schur complement keeps the A/N letters shifted by the pivot size."""
    failures: list[str] = []
    cases = 0
    for n, alpha, valid, _, cent in schur_cases:
        k = len(alpha)
        m = n - k
        ccodes = eng.encode_entries(cent)
        big = eng.letter_arrays(n)
        small = eng.letter_arrays(m)
        bad = np.zeros(ccodes.size, bool)
        for j in range(1, m + 1):
            top = big[j + k - 1][valid]
            fixed = (top == 0) | (top == 2)
            bad |= fixed & (small[j - 1][ccodes] != top)
        cases += int(ccodes.size) * m
        for code in np.flatnonzero(valid)[bad][:_MAX_FAILURES_KEPT]:
            _keep(failures, _serialize_code(n, int(code)) + f" alpha={alpha}")
    return CheckResult("schur-complement-letters", cases, failures)


def _check_hyperdet(tables: list[np.ndarray], rng: np.random.Generator, gf4_cases: int) -> CheckResult:
    """Four-term squared principal-minor identity in characteristic 2."""
    failures: list[str] = []
    cases = 0
    for n in range(3, len(tables)):
        dets = tables[n]
        for tau in combinations(range(n), 3):
            rest = [x for x in range(n) if x not in tau]
            i, j, k = (1 << t for t in tau)
            for rsize in range(len(rest) + 1):
                for base in combinations(rest, rsize):
                    s = _mask(base)
                    total = (
                        (dets[s] & dets[s | i | j | k])
                        ^ (dets[s | i] & dets[s | j | k])
                        ^ (dets[s | j] & dets[s | i | k])
                        ^ (dets[s | k] & dets[s | i | j])
                    )
                    cases += dets.shape[1]
                    for code in np.flatnonzero(total)[:_MAX_FAILURES_KEPT]:
                        _keep(
                            failures,
                            _serialize_code(n, int(code)) + f" tau={tau} I={base}",
                        )
    mul = GF4.mul
    for _ in range(gf4_cases):
        n = int(rng.integers(3, 6))
        b = _rand_sym(rng, n, GF4)
        tau = tuple(sorted(rng.choice(n, size=3, replace=False).tolist()))
        rest = [x for x in range(n) if x not in tau]
        base = tuple(x for x in rest if rng.integers(0, 2))
        dets = principal_minors(b).tolist()

        def sq_det(extra: tuple[int, ...]) -> int:
            d = dets[_mask(base + extra)]
            return mul(d, d)

        i, j, k = tau
        total = (
            mul(sq_det(()), sq_det((i, j, k)))
            ^ mul(sq_det((i,)), sq_det((j, k)))
            ^ mul(sq_det((j,)), sq_det((i, k)))
            ^ mul(sq_det((k,)), sq_det((i, j)))
        )
        cases += 1
        if total != 0:
            _keep(failures, f"gf4 hyperdet {b!r} tau={tau} I={base}")
    return CheckResult("hyperdeterminantal-relation", cases, failures)


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
        for code in sel[bad][:_MAX_FAILURES_KEPT].tolist():
            _keep(failures, _serialize_code(n, code))
    return CheckResult("terminal-an-full-minors", cases, failures)


def _check_append_transforms(max_n: int, rng: np.random.Generator, gf4_cases: int) -> CheckResult:
    """Letterwise effect of duplicating the last index or appending a zero one."""
    failures: list[str] = []
    cases = 0
    for n in range(1, max_n + 1):
        codes = _all_codes(n)
        ent = eng.decode_entries(codes, n)
        big = eng.letter_arrays(n + 1)
        small = eng.letter_arrays(n)
        dup = eng.gather_codes(ent, (*range(n), n - 1))
        zero = eng.gather_codes(ent, (*range(n), n))
        bad = big[n][dup] != 0
        bad |= big[n][zero] != 0
        bad |= big[0][dup] != small[0][codes]
        for i in range(1, n + 1):
            damp = np.where(small[i - 1][codes] == 0, 0, 1)
            if i >= 2:
                bad |= big[i - 1][dup] != damp
            bad |= big[i - 1][zero] != damp
        cases += int(codes.size) * 2
        for code in codes[bad][:_MAX_FAILURES_KEPT]:
            _keep(failures, _serialize_code(n, int(code)))
    for _ in range(gf4_cases):
        n = int(rng.integers(1, 5))
        b = _rand_sym(rng, n, GF4)
        word = compute_epr(b)
        damp = "".join("N" if ch == "N" else "S" for ch in word)
        cases += 2
        if compute_epr(b.append_duplicate_last()) != word[0] + damp[1:] + "N":
            _keep(failures, f"gf4 append-dup {b!r}")
        if compute_epr(b.append_zero()) != damp + "N":
            _keep(failures, f"gf4 append-zero {b!r}")
    return CheckResult("append-transforms", cases, failures)


def _check_na_ns_parity(words: list[tuple[int, str]]) -> CheckResult:
    """NA/NS starts at odd positions only, with N at every odd position."""
    failures: list[str] = []
    cases = 0
    for n, w in words:
        cases += 1
        for k in range(n - 1):
            if w[k] == "N" and w[k + 1] in "AS":
                if k % 2 == 1 or any(w[j] != "N" for j in range(0, n, 2)):
                    _keep(failures, f"{n}:{w}")
                    break
    return CheckResult("na-ns-parity", cases, failures)


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
            bad = np.zeros(codes.size, bool)
            for k in range(1, n + 1):
                bad |= (letters[k - 1][new_codes] != 0) != (letters[k - 1][codes] != 0)
            cases += int(codes.size)
            for code in codes[bad][:_MAX_FAILURES_KEPT]:
                _keep(failures, _serialize_code(n, int(code)) + f" E={grid}")
    for _ in range(gf4_cases):
        n = int(rng.integers(1, 5))
        b = _rand_sym(rng, n, GF4)
        e = _rand_invertible(rng, n, GF4)
        ebet = _fe_matmul(_fe_matmul(e, [list(r) for r in b.rows], GF4), _transpose(e), GF4)
        cases += 1
        if compute_pr(SymMatrix(GF4, ebet)).bits != compute_pr(b).bits:
            _keep(failures, f"gf4 congruence {b!r} E={e}")
    return CheckResult("congruence-pr-invariance", cases, failures)


def _transpose(grid: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*grid)]


def _check_complete_graph_epr() -> CheckResult:
    """epr of the complete graph alternates NA, with a final N at odd order."""
    failures: list[str] = []
    cases = 0
    for n in range(2, 13):
        want = "NA" * (n // 2) + ("N" if n % 2 else "")
        cases += 1
        if compute_epr(complete_graph(n)) != want:
            _keep(failures, f"complete_graph({n})")
    return CheckResult("complete-graph-epr", cases, failures)


def _check_loop_split_det() -> CheckResult:
    """loop_split_graph(n, k) is singular exactly for odd n and even k."""
    failures: list[str] = []
    cases = 0
    for n in range(0, 11):
        for k in range(0, n + 1):
            cases += 1
            singular = loop_split_graph(n, k).determinant() == 0
            if singular != (n % 2 == 1 and k % 2 == 0):
                _keep(failures, f"loop_split_graph({n},{k})")
    return CheckResult("loop-split-determinant", cases, failures)


def _check_loop_complete_nonsingular() -> CheckResult:
    """Adding one loop to the complete graph always gives full rank."""
    failures: list[str] = []
    cases = 0
    for n in range(2, 13):
        cases += 1
        if loop_complete_graph(n).determinant() == 0:
            _keep(failures, f"loop_complete_graph({n})")
    return CheckResult("loop-complete-nonsingular", cases, failures)


def _check_pendant_loop_endpoints() -> CheckResult:
    """pendant_loop_complete(n), n even, starts SS and ends AN."""
    failures: list[str] = []
    cases = 0
    for n in range(4, 13, 2):
        word = compute_epr(pendant_loop_complete(n))
        cases += 1
        if not (word.startswith("SS") and word.endswith("AN")):
            _keep(failures, f"pendant_loop_complete({n}) -> {word}")
    return CheckResult("pendant-loop-endpoints", cases, failures)


def _check_attained_rule_soundness(words: list[tuple[int, str]]) -> CheckResult:
    """No attained word violates any prohibition rule."""
    failures: list[str] = []
    cases = 0
    for n, w in words:
        cases += 1
        hits = rule_violations(w)
        if hits:
            _keep(failures, f"{n}:{w} -> {[str(h) for h in hits]}")
    return CheckResult("attained-rule-soundness", cases, failures)


def theorem_suite(
    *, max_n: int = 5, seed: int = DEFAULT_SEED, gf4_cases: int = 1000
) -> SuiteReport:
    """Run all sixteen checks; zero failures expected at default bounds.

    Matrix-quantified checks run exhaustively over GF(2) up to ``max_n``;
    word-level checks use catalogs up to ``max_n + 1``; field-generic
    identities additionally run ``gf4_cases`` seeded GF(4) cases each.
    """
    if not 2 <= max_n <= 5:
        raise ValueError(f"max_n must be in [2, 5], got {max_n}")
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
