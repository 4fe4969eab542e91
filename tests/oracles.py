"""Independent brute-force oracles used by the tests.

These deliberately avoid the library's elimination code paths: the
determinant is a recursive Laplace expansion (cofactor signs vanish in
characteristic 2) and the sequences re-enumerate index subsets with
itertools.  Slow, obviously correct, and kept independent of what they
check.
"""

from itertools import combinations

from eprseq import PrSequence


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
