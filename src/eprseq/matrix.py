"""Exact symmetric-matrix linear algebra over GF(2^k).

A :class:`SymMatrix` is an immutable order-n symmetric matrix over a
:class:`~eprseq.gfield.FieldSpec`.  Entries are stored densely as field
elements, and every operation that eliminates (determinant, rank,
minor, inverse, Schur complement) runs the one routine ``_eliminate``
over every field; there is no separate GF(2) path.  It is the
independent check on the char-2 bordering kernel of
:mod:`eprseq.sequence`.  There is no bit-packed kernel: ``_gf2_det`` is
only another name for ``_generic_det``, kept because ``bench/tracer.py``
wraps both names.

Each named construction, and each operation that rearranges entries into
a new matrix, is one entry rule that ``_build`` fills a matrix from.

Index sets handed to the public operations are 1-based, matching the
usual B[alpha] notation for principal submatrices.  All operations are
pure; instances are safe to share between threads.
"""

from __future__ import annotations

import io
from collections.abc import Callable, Iterable

from .gfield import GF2, GF4, FieldSpec


class SingularMatrixError(ValueError):
    """An operation required a nonsingular (sub)matrix."""


class MatrixFormatError(ValueError):
    """Malformed matrix text; carries a 1-based line/column diagnostic."""

    def __init__(self, line: int, column: int, message: str):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _index_set(indices: Iterable[int], n: int, what: str = "index set") -> tuple[int, ...]:
    """Normalize a 1-based index set: sorted, distinct, within [1, n]."""
    seen = []
    for i in indices:
        if not isinstance(i, int) or not 1 <= i <= n:
            raise IndexError(f"{what}: index {i!r} out of range 1..{n}")
        if i in seen:
            raise IndexError(f"{what}: duplicate index {i}")
        seen.append(i)
    return tuple(sorted(seen))


def complement_labels(n: int, alpha: Iterable[int]) -> tuple[int, ...]:
    """Original 1-based labels kept by a Schur complement on pivot set alpha.

    Position j of the complement corresponds to original index
    ``complement_labels(n, alpha)[j - 1]``; order is preserved.
    """
    a = set(_index_set(alpha, n, "alpha"))
    return tuple(i for i in range(1, n + 1) if i not in a)


# ---------------------------------------------------------------------------
# low-level determinant / elimination kernels
# ---------------------------------------------------------------------------

def _eliminate(grid: list[list[int]], spec: FieldSpec, pivots: Iterable[int]) -> tuple[int, int]:
    """Eliminate a square entry grid on the pivot columns (destructive).

    Each pivot column c pivots on the first unused row of ``pivots`` with
    a nonzero entry in c; a multiple of that row is then added to every
    other unused row, rows outside ``pivots`` included, to clear their
    entry in c.  Returns (rank, det) of the pivot block grid[pivots][pivots]:
    det is the product of the pivots, since row order carries no sign in
    characteristic 2, and 0 when some column found no pivot.  The rows
    and columns outside ``pivots`` end up holding the Schur complement
    of that block.
    """
    mul = spec.mul
    inv = spec.inv
    pivots = list(pivots)
    free = pivots[:]
    unused = list(range(len(grid)))
    det = 1
    for c in pivots:
        p = next((r for r in free if grid[r][c]), None)
        if p is None:
            det = 0
            continue
        free.remove(p)
        unused.remove(p)
        prow = grid[p]
        det = mul(det, prow[c])
        pinv = inv(prow[c])
        for r in unused:
            f = grid[r][c]
            if f:
                f = mul(f, pinv)
                row = grid[r]
                for j, x in enumerate(prow):
                    if x:
                        row[j] ^= mul(f, x)
    return len(pivots) - len(free), det


def _generic_det(grid: list[list[int]], spec: FieldSpec) -> int:
    """Determinant of a square entry grid (destructive).

    ``bench/tracer.py`` counts ``matrix.det.calls`` by this name.
    """
    return _eliminate(grid, spec, range(len(grid)))[1]


_gf2_det = _generic_det  # the second name bench/tracer.py wraps; nothing here calls it


# ---------------------------------------------------------------------------
# SymMatrix
# ---------------------------------------------------------------------------

class SymMatrix:
    """Immutable symmetric matrix over a small binary field."""

    __slots__ = ("spec", "n", "rows")

    def __init__(self, spec: FieldSpec, rows: Iterable[Iterable[int]]):
        grid = tuple(tuple(row) for row in rows)
        n = len(grid)
        for i, row in enumerate(grid):
            if len(row) != n:
                raise ValueError(f"row {i + 1} has {len(row)} entries, expected {n}")
            for j, x in enumerate(row):
                spec.validate(x)
                if j < i and grid[j][i] != x:
                    raise ValueError(
                        f"asymmetric entries at ({i + 1},{j + 1}) and ({j + 1},{i + 1})"
                    )
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "rows", grid)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("SymMatrix is immutable")

    # -- basics ------------------------------------------------------------

    def entry(self, i: int, j: int) -> int:
        """Entry at 1-based position (i, j)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"entry ({i},{j}) out of range 1..{self.n}")
        return self.rows[i - 1][j - 1]

    def has_zero_diagonal(self) -> bool:
        return any(self.rows[i][i] == 0 for i in range(self.n))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymMatrix)
            and self.spec == other.spec
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.spec, self.rows))

    def __repr__(self) -> str:
        return f"SymMatrix({self.spec.name}, {[list(r) for r in self.rows]})"

    # -- determinant / rank / inverse ---------------------------------------

    def determinant(self) -> int:
        """Exact determinant; the order-0 determinant is 1."""
        return _generic_det([list(r) for r in self.rows], self.spec)

    def rank(self) -> int:
        return _eliminate([list(r) for r in self.rows], self.spec, range(self.n))[0]

    def inverse(self) -> "SymMatrix":
        """Inverse matrix, the Schur complement of B in [[B, I], [I, 0]].

        Raises SingularMatrixError when det == 0.
        """
        n = self.n
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        grid = [list(r) + e for r, e in zip(self.rows, eye)] + [e + [0] * n for e in eye]
        if _eliminate(grid, self.spec, range(n))[1] == 0:
            raise SingularMatrixError("matrix is singular")
        return SymMatrix(self.spec, [row[n:] for row in grid[n:]])

    # -- submatrices ---------------------------------------------------------

    def principal_submatrix(self, alpha: Iterable[int]) -> "SymMatrix":
        """B[alpha]: rows and columns restricted to the 1-based set alpha."""
        idx = [i - 1 for i in _index_set(alpha, self.n, "alpha")]
        return _build(len(idx), lambda i, j: self.rows[idx[i]][idx[j]], self.spec)

    def minor(self, row_set: Iterable[int], col_set: Iterable[int]) -> int:
        """Determinant of the (possibly non-principal) submatrix B[rows|cols]."""
        ri = _index_set(row_set, self.n, "rows")
        ci = _index_set(col_set, self.n, "cols")
        if len(ri) != len(ci):
            raise ValueError(f"minor needs |rows| == |cols|, got {len(ri)} and {len(ci)}")
        grid = [[self.rows[i - 1][j - 1] for j in ci] for i in ri]
        return _generic_det(grid, self.spec)

    # -- derived matrices -----------------------------------------------------

    def schur_complement(self, alpha: Iterable[int]) -> "SymMatrix":
        """Schur complement of the principal block B[alpha].

        Returns B(alpha) - B[comp, alpha] B[alpha]^{-1} B[alpha, comp]
        (minus is plus in characteristic 2), an order n-|alpha| symmetric
        matrix whose positions are renumbered 1..n-|alpha| in the original
        order; recover labels with :func:`complement_labels`.  Eliminating
        on alpha leaves it in the complement block.
        """
        a = _index_set(alpha, self.n, "alpha")
        grid = [list(r) for r in self.rows]
        if _eliminate(grid, self.spec, [i - 1 for i in a])[1] == 0:
            raise SingularMatrixError(f"pivot block at {set(a)} is singular")
        comp = [i - 1 for i in complement_labels(self.n, a)]
        return SymMatrix(self.spec, [[grid[i][j] for j in comp] for i in comp])

    def direct_sum(self, other: "SymMatrix") -> "SymMatrix":
        if self.spec != other.spec:
            raise ValueError(
                f"direct sum needs matching fields, got {self.spec.name} and {other.spec.name}"
            )
        n, a, b = self.n, self.rows, other.rows
        return _build(
            n + other.n,
            lambda i, j: (i < n) == (j < n) and (a[i][j] if i < n else b[i - n][j - n]),
            self.spec,
        )

    def append_duplicate_last(self) -> "SymMatrix":
        """Copy the last row down and the last column across (order n+1)."""
        if self.n < 1:
            raise ValueError("append_duplicate_last needs order >= 1")
        idx = [*range(self.n), self.n - 1]
        return _build(self.n + 1, lambda i, j: self.rows[idx[i]][idx[j]], self.spec)

    def append_zero(self) -> "SymMatrix":
        """Direct sum with the 1x1 zero matrix."""
        n, rows = self.n, self.rows
        return _build(n + 1, lambda i, j: i < n and j < n and rows[i][j], self.spec)

    # -- text format -----------------------------------------------------------

    def to_text(self) -> str:
        """Serialize in the exchange format (gf2/gf4 only)::

            field gf2
            n 3
            0 1 1
            1 0 1
            1 1 0
        """
        if self.spec not in (GF2, GF4):
            raise ValueError(f"text format supports gf2 and gf4, not {self.spec.name}")
        sym = self.spec.to_symbol
        lines = [f"field {self.spec.name}", f"n {self.n}"]
        lines += [" ".join(sym(x) for x in row) for row in self.rows]
        return "\n".join(lines) + "\n"

    def write(self, stream: io.TextIOBase) -> None:
        stream.write(self.to_text())


def read_matrix(source: str | io.TextIOBase) -> SymMatrix:
    """Parse the exchange format; leading '#' comment lines are skipped.

    Anything else malformed raises MatrixFormatError with a 1-based
    line/column diagnostic.
    """
    stream = io.StringIO(source) if isinstance(source, str) else source
    lines = stream.read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    pos = 0
    while pos < len(lines) and lines[pos].startswith("#"):
        pos += 1
    if pos >= len(lines):
        raise MatrixFormatError(pos + 1, 1, "missing 'field' header")
    header = lines[pos].split(" ")
    if len(header) != 2 or header[0] != "field":
        raise MatrixFormatError(pos + 1, 1, "expected 'field gf2' or 'field gf4'")
    if header[1] == "gf2":
        spec = GF2
    elif header[1] == "gf4":
        spec = GF4
    else:
        raise MatrixFormatError(pos + 1, 7, f"unknown field {header[1]!r}")
    pos += 1
    if pos >= len(lines):
        raise MatrixFormatError(pos + 1, 1, "missing 'n' header")
    order_line = lines[pos].split(" ")
    digits = order_line[-1]  # ASCII only: int() also reads other scripts' digits
    if len(order_line) != 2 or order_line[0] != "n" or not (digits.isascii() and digits.isdigit()):
        raise MatrixFormatError(pos + 1, 1, "expected 'n <order>'")
    n = int(digits)
    pos += 1
    rows = []
    for r in range(n):
        if pos >= len(lines):
            raise MatrixFormatError(pos + 1, 1, f"missing matrix row {r + 1}")
        tokens = lines[pos].split(" ")
        if len(tokens) != n:
            raise MatrixFormatError(
                pos + 1, 1, f"row {r + 1} has {len(tokens)} entries, expected {n}"
            )
        row = []
        for c, tok in enumerate(tokens):
            try:
                row.append(spec.from_symbol(tok))
            except Exception:
                raise MatrixFormatError(
                    pos + 1, c + 1, f"bad element symbol {tok!r} for {spec.name}"
                ) from None
        rows.append(row)
        pos += 1
    if pos != len(lines):
        raise MatrixFormatError(pos + 1, 1, "trailing content after matrix rows")
    try:
        return SymMatrix(spec, rows)
    except ValueError as exc:
        raise MatrixFormatError(pos - n + 1, 1, str(exc)) from None


# ---------------------------------------------------------------------------
# named constructions
# ---------------------------------------------------------------------------

def _build(n: int, entry: Callable[[int, int], int], spec: FieldSpec = GF2) -> SymMatrix:
    """The order-n matrix whose 0-based (i, j) entry is ``entry(i, j)``; a bool reads as 0/1."""
    return SymMatrix(spec, [[int(entry(i, j)) for j in range(n)] for i in range(n)])


def identity(n: int, spec: FieldSpec = GF2) -> SymMatrix:
    return _build(n, lambda i, j: i == j, spec)


def zeros(n: int, spec: FieldSpec = GF2) -> SymMatrix:
    return _build(n, lambda i, j: 0, spec)


def ones(n: int, spec: FieldSpec = GF2) -> SymMatrix:
    """The all-ones matrix J_n."""
    return _build(n, lambda i, j: 1, spec)


def complete_graph(n: int, spec: FieldSpec = GF2) -> SymMatrix:
    """Adjacency matrix of the complete graph K_n (J_n minus the diagonal)."""
    return _build(n, lambda i, j: i != j, spec)


def loop_split_graph(n: int, k: int) -> SymMatrix:
    """Adjacency of the complete split graph with loops on the independent side.

    Vertices 1..k are pairwise non-adjacent and each carries a loop;
    vertices k+1..n form a clique without loops; every cross edge is
    present.  k == n gives the identity, k == 0 the complete graph.
    """
    if not 0 <= k <= n:
        raise ValueError(f"loop_split_graph needs 0 <= k <= n, got k={k}, n={n}")
    return _build(n, lambda i, j: i < k if i == j else max(i, j) >= k)


def loop_complete_graph(n: int) -> SymMatrix:
    """Complete graph K_n with one loop added at vertex 1 (n >= 2)."""
    if n < 2:
        raise ValueError(f"loop_complete_graph needs n >= 2, got {n}")
    return _build(n, lambda i, j: i != j or i == 0)


def pendant_loop_complete(n: int) -> SymMatrix:
    """A looped pendant vertex attached to the loop vertex of a looped K_{n-1}.

    Row 1 is (1, 1, 0, ..., 0); the trailing block is
    loop_complete_graph(n - 1).  Defined for n >= 3.
    """
    if n < 3:
        raise ValueError(f"pendant_loop_complete needs n >= 3, got {n}")
    return _build(n, lambda i, j: (i != j or i == 1) if i and j else i + j < 2)


def perfect_matching(n: int) -> SymMatrix:
    """Adjacency of a perfect matching on n vertices (n even >= 2)."""
    if n < 2 or n % 2:
        raise ValueError(f"perfect_matching needs even n >= 2, got {n}")
    return _build(n, lambda i, j: i ^ j == 1)


def coned_matching(n: int) -> SymMatrix:
    """Perfect matching on n-1 vertices joined to one loopless apex (n odd >= 3)."""
    if n < 3 or n % 2 == 0:
        raise ValueError(f"coned_matching needs odd n >= 3, got {n}")
    return _build(n, lambda i, j: i != j and (i ^ j == 1 or max(i, j) == n - 1))


def loop_biclique(a: int, b: int) -> SymMatrix:
    """Complete bipartite graph K_{a,b} with a loop on every vertex."""
    if a < 1 or b < 1:
        raise ValueError(f"loop_biclique needs a, b >= 1, got {a}, {b}")
    return _build(a + b, lambda i, j: i == j or (i < a) != (j < a))


def clique_matching(n: int) -> SymMatrix:
    """Looped clique on n/2 vertices matched to a looped independent set.

    Block form [[J, I], [I, I]] with half-order blocks; defined for
    n == 2 (mod 4), n >= 6.
    """
    if n < 6 or n % 4 != 2:
        raise ValueError(f"clique_matching needs n == 2 (mod 4), n >= 6, got {n}")
    m = n // 2
    return _build(n, lambda i, j: max(i, j) < m or i % m == j % m)


def wide_clique_matching(n: int) -> SymMatrix:
    """Variant of clique_matching with a wider independent side.

    Block form [[J, W], [W^T, I]] where the clique has n/2 - 1 vertices,
    the looped independent set n/2 + 1, and W = [I | J(:, 2)]; defined
    for n == 0 (mod 4), n >= 8.
    """
    if n < 8 or n % 4 != 0:
        raise ValueError(f"wide_clique_matching needs n == 0 (mod 4), n >= 8, got {n}")
    a = n // 2 - 1

    def entry(i, j):  # J on vertices 0..a-1, I on the rest, W = [I | J(:, 2)] between them
        lo, hi = sorted((i, j))
        return lo == hi if lo >= a else hi < a or hi - lo == a or hi >= 2 * a

    return _build(n, entry)


_NAMED = {
    "identity": (identity, 1),
    "zeros": (zeros, 1),
    "ones": (ones, 1),
    "complete_graph": (complete_graph, 1),
    "loop_split_graph": (loop_split_graph, 2),
    "loop_complete_graph": (loop_complete_graph, 1),
    "pendant_loop_complete": (pendant_loop_complete, 1),
    "perfect_matching": (perfect_matching, 1),
    "coned_matching": (coned_matching, 1),
    "loop_biclique": (loop_biclique, 2),
    "clique_matching": (clique_matching, 1),
    "wide_clique_matching": (wide_clique_matching, 1),
}


def construct_named(kind: str, params: Iterable[int], spec: FieldSpec = GF2) -> SymMatrix:
    """Dispatch constructor for the named matrices.

    Only identity/zeros/ones/complete_graph accept a non-GF(2) spec; the
    witness constructions are GF(2) by definition.
    """
    if kind not in _NAMED:
        raise ValueError(f"unknown construction {kind!r}; choose from {sorted(_NAMED)}")
    fn, arity = _NAMED[kind]
    args = list(params)
    if len(args) != arity:
        raise ValueError(f"{kind} takes {arity} parameter(s), got {len(args)}")
    if kind in ("identity", "zeros", "ones", "complete_graph"):
        return fn(*args, spec)
    if spec is not GF2:
        raise ValueError(f"{kind} is a GF(2) construction")
    return fn(*args)
