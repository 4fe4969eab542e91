"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's elimination code paths: the
determinant is a recursive Laplace expansion (cofactor signs vanish in
characteristic 2) and the sequences re-enumerate index subsets with
itertools.  Slow, obviously correct, and kept independent of what they
check.  ``rebuild_from_recipe`` reads a witness's recipe header with its
own parser and calls ``eprseq.matrix`` directly, so it checks that the
printed provenance describes the matrix, independently of how the witness
code spells it.  ``catalog_count_failures`` checks a catalog's word counts
against closed forms that never enumerate a matrix.
"""

import re
from collections import Counter
from fractions import Fraction
from itertools import combinations

from eprseq import PrSequence, matrix


def laplace_det(rows, spec):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    acc = 0
    for j in range(n):
        if rows[0][j]:
            sub = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
            acc ^= spec.mul(rows[0][j], laplace_det(sub, spec))
    return acc


def matmul(a, b, spec):
    """Product of two entry grids (lists of rows) over spec."""
    out = [[0] * len(b[0]) for _ in a]
    for i, row in enumerate(a):
        for j in range(len(b[0])):
            acc = 0
            for t, x in enumerate(row):
                acc ^= spec.mul(x, b[t][j])
            out[i][j] = acc
    return out


def subgrid(m, row_idx, col_idx):
    return [[m.rows[i][j] for j in col_idx] for i in row_idx]


def naive_epr(m):
    letters = []
    for k in range(1, m.n + 1):
        dets = [
            laplace_det(subgrid(m, sub, sub), m.spec)
            for sub in combinations(range(m.n), k)
        ]
        nonzero = [d != 0 for d in dets]
        if all(nonzero):
            letters.append("A")
        elif any(nonzero):
            letters.append("S")
        else:
            letters.append("N")
    return "".join(letters)


def naive_pr(m):
    bits = []
    for k in range(1, m.n + 1):
        hit = any(
            laplace_det(subgrid(m, sub, sub), m.spec) != 0
            for sub in combinations(range(m.n), k)
        )
        bits.append("1" if hit else "0")
    r0 = 1 if any(m.rows[i][i] == 0 for i in range(m.n)) else 0
    return PrSequence(r0, "".join(bits))


def all_symmetric_gf2(n):
    """Every order-n symmetric GF(2) matrix as an entry grid, in code order."""
    from eprseq import GF2, SymMatrix

    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    for code in range(1 << len(pairs)):
        rows = [[0] * n for _ in range(n)]
        for p, (i, j) in enumerate(pairs):
            bit = (code >> p) & 1
            rows[i][j] = rows[j][i] = bit
        yield SymMatrix(GF2, rows)


def symmetric_rank_count(n, r, q):
    """Symmetric n x n matrices of rank r over GF(q), q even (F. J. MacWilliams,
    "Orthogonal matrices over finite fields", Amer. Math. Monthly 76, 1969)."""
    count = Fraction(1)
    for i in range(1, r // 2 + 1):
        count *= Fraction(q ** (2 * i), q ** (2 * i) - 1)
    for i in range(r):
        count *= q ** (n - i) - 1
    return count


def alternating_rank_count(n, r, q):
    """Alternating n x n matrices of rank r over GF(q): none at odd r."""
    if r % 2:
        return Fraction(0)
    s = r // 2
    count = Fraction(q ** (s * (s - 1)))
    for i in range(s):
        count *= Fraction((q ** (n - 2 * i) - 1) * (q ** (n - 2 * i - 1) - 1), q ** (2 * i + 2) - 1)
    return count


def catalog_count_failures(counts, n, q):
    """The closed-form facts that the word counts of an order-n catalog over
    GF(q), q even, break, of "rank", "alternating" and "inverse".

    A symmetric matrix has a nonsingular principal submatrix of order its
    rank, so the rank is the index of the word's last non-N letter; the
    counts of each rank sum to MacWilliams' number.  The words starting with
    N are the zero-diagonal matrices, the alternating ones in characteristic
    2.  Jacobi's B -> B^-1 maps the nonsingular matrices of word l_1..l_(n-1)A
    one to one onto those of l_(n-1)..l_1A.
    """
    rank, alternating = Counter(), Counter()
    for word, count in counts.items():
        r = len(word.rstrip("N"))
        rank[r] += count
        if word[0] == "N":
            alternating[r] += count
    failures = []
    if any(rank[r] != symmetric_rank_count(n, r, q) for r in range(n + 1)):
        failures.append("rank")
    if any(alternating[r] != alternating_rank_count(n, r, q) for r in range(n + 1)):
        failures.append("alternating")
    nonsingular = {w: c for w, c in counts.items() if w[-1] == "A"}
    if any(c != nonsingular.get(w[-2::-1] + "A", 0) for w, c in nonsingular.items()):
        failures.append("inverse")
    return failures


_CALL = re.compile(r"(\w+)\(")
_PARAMS = re.compile(r"(\d+(?:,\d+)*)\)")
_PIVOT = re.compile(r", \{(\d+)\}\)")


def _recipe_expr(text, pos):
    """(matrix, end) of ``atom ( (+) atom)*`` starting at text[pos]."""
    m, pos = _recipe_atom(text, pos)
    while text.startswith(" (+) ", pos):
        other, pos = _recipe_atom(text, pos + len(" (+) "))
        m = m.direct_sum(other)
    return m, pos


def _recipe_atom(text, pos):
    call = _CALL.match(text, pos)
    assert call, f"expected a call at {text[pos:]!r}"
    if call[1] in ("inverse", "schur_complement"):
        m, pos = _recipe_expr(text, call.end())
        if call[1] == "inverse":
            assert text.startswith(")", pos), text[pos:]
            return m.inverse(), pos + 1
        pivot = _PIVOT.match(text, pos)
        assert pivot, text[pos:]
        return m.schur_complement((int(pivot[1]),)), pivot.end()
    params = _PARAMS.match(text, call.end())
    assert params, text[call.end():]
    return getattr(matrix, call[1])(*map(int, params[1].split(","))), params.end()


def rebuild_from_recipe(header):
    """Matrix described by a ``# recipe: FORM: STEP; STEP ...`` line.

    The first step is a construction: ``name(a,b)``, ``X (+) Y``,
    ``inverse(X)`` or ``schur_complement(X, {k})``; the rest are
    ``append_zero`` / ``append_duplicate_last`` steps applied in order.
    """
    prefix, form, steps = header.rstrip("\n").split(": ", 2)
    assert prefix == "# recipe" and form, header
    first, *appended = steps.split("; ")
    m, end = _recipe_expr(first, 0)
    assert end == len(first), f"trailing text {first[end:]!r}"
    for step in appended:
        assert step in ("append_zero", "append_duplicate_last"), step
        m = getattr(m, step)()
    return m
