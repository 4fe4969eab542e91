import hashlib
import random
from itertools import combinations, product

import pytest

from eprseq import (
    GF2,
    GF4,
    MatrixFormatError,
    SingularMatrixError,
    SymMatrix,
    clique_matching,
    complement_labels,
    complete_graph,
    coned_matching,
    construct_named,
    field_make,
    identity,
    loop_biclique,
    loop_complete_graph,
    loop_split_graph,
    ones,
    pendant_loop_complete,
    perfect_matching,
    read_matrix,
    wide_clique_matching,
    zeros,
)
from eprseq.matrix import _NAMED
from eprseq.sequence import _nonzero_per_order, minor_planes
from oracles import all_symmetric_gf2, laplace_det, matmul, subgrid


# -- construction -----------------------------------------------------------

def test_construction_validates():
    SymMatrix(GF2, [[0, 1], [1, 0]])
    with pytest.raises(ValueError):
        SymMatrix(GF2, [[0, 1], [0, 0]])  # asymmetric
    with pytest.raises(ValueError):
        SymMatrix(GF2, [[0, 1]])  # not square
    with pytest.raises(Exception):
        SymMatrix(GF2, [[2]])  # not a field element


def test_gf4_example_matrix_accepted():
    z, w = 2, 3
    m = SymMatrix(GF4, [[1, z, w], [z, 1, 0], [w, 0, 1]])
    assert m.entry(1, 2) == z
    assert m.determinant() == 0


def test_entry_and_hash():
    m = complete_graph(3)
    with pytest.raises(IndexError) as info:
        m.entry(0, 1)
    assert str(info.value) == "entry (0,1) out of range 1..3"
    assert hash(m) == hash(complete_graph(3)) and len({m, complete_graph(3), identity(3)}) == 2


def test_immutability():
    m = identity(2)
    with pytest.raises(AttributeError):
        m.n = 3


# -- determinant / rank ------------------------------------------------------

def test_determinant_examples():
    assert identity(5).determinant() == 1
    assert complete_graph(3).determinant() == 0
    assert complete_graph(4).determinant() == 1
    assert loop_complete_graph(6).determinant() == 1
    assert zeros(0).determinant() == 1  # empty minor convention


def test_determinant_matches_laplace_exhaustive_order3():
    for n in range(4):
        for m in all_symmetric_gf2(n):
            assert m.determinant() == laplace_det([list(r) for r in m.rows], GF2)


def test_determinant_matches_laplace_sampled():
    rng = random.Random(20250809)
    for _ in range(10_000):
        spec = GF2 if rng.random() < 0.5 else GF4
        n = rng.randint(0, 4)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randrange(spec.order)
        m = SymMatrix(spec, rows)
        assert m.determinant() == laplace_det([list(r) for r in rows], spec)


def test_rank_examples():
    assert zeros(7).rank() == 0
    # brute force: the largest nonzero minor of A(K_3) has order 2
    k3 = complete_graph(3)
    orders = [
        k
        for k in range(1, 4)
        for sub in combinations(range(3), k)
        if laplace_det([[k3.rows[i][j] for j in sub] for i in sub], GF2) != 0
    ]
    assert max(orders) == 2
    assert k3.rank() == 2
    assert perfect_matching(6).rank() == 6


def _random_sym(rng, spec, n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randrange(spec.order)
    return SymMatrix(spec, rows)


def test_elimination_agrees_with_minor_kernel():
    # a symmetric matrix's rank is the largest order of a nonsingular principal submatrix
    rng = random.Random(99)
    for trial in range(6_000):
        spec = GF2 if trial % 2 else GF4
        m = _random_sym(rng, spec, rng.randint(1, 12) if trial % 20 else rng.randint(13, 18))
        planes = minor_planes(m)
        full = (1 << m.n) - 1
        assert m.determinant() == sum((p >> full & 1) << t for t, p in enumerate(planes))
        counts = _nonzero_per_order(m, None)  # nonzero minors of each order, off the same planes
        assert m.rank() == max(k for k, c in enumerate(counts) if c)


# -- submatrices and minors ---------------------------------------------------

def test_principal_submatrix():
    assert identity(4).principal_submatrix([1, 3]) == identity(2)
    assert complete_graph(5).principal_submatrix([2, 4, 5]) == complete_graph(3)
    empty = identity(3).principal_submatrix([])
    assert empty.n == 0 and empty.determinant() == 1
    with pytest.raises(IndexError):
        identity(3).principal_submatrix([0])
    with pytest.raises(IndexError):
        identity(3).principal_submatrix([4])
    with pytest.raises(IndexError) as info:
        identity(3).principal_submatrix([1, 1])
    assert str(info.value) == "alpha: duplicate index 1"


def test_minor():
    assert identity(3).minor([1, 2], [2, 3]) == 0
    # cofactor expansion of [[0,1],[1,1]]
    assert laplace_det([[0, 1], [1, 1]], GF2) == 1
    assert complete_graph(3).minor([1, 2], [1, 3]) == 1
    m = loop_split_graph(4, 2)
    assert m.minor([1, 2, 3, 4], [1, 2, 3, 4]) == m.determinant()
    with pytest.raises(ValueError):
        m.minor([1], [1, 2])


def test_minor_matches_laplace_sampled():
    rng = random.Random(5)
    for trial in range(2_000):
        spec = GF2 if trial % 2 else GF4
        m = _random_sym(rng, spec, rng.randint(1, 5))
        k = rng.randint(0, m.n)
        rows, cols = sorted(rng.sample(range(m.n), k)), sorted(rng.sample(range(m.n), k))
        want = laplace_det(subgrid(m, rows, cols), spec)
        assert m.minor([i + 1 for i in rows], [j + 1 for j in cols]) == want


# -- inverse -------------------------------------------------------------------

def test_inverse_examples():
    assert identity(4).inverse() == identity(4)
    k2 = complete_graph(2)
    assert k2.inverse() == k2
    with pytest.raises(SingularMatrixError):
        complete_graph(3).inverse()


def test_inverse_reverses_epr():
    from eprseq import compute_epr

    # every nonsingular matrix attaining SAA inverts to one attaining ASA
    for m in all_symmetric_gf2(3):
        if m.determinant() and compute_epr(m) == "SAA":
            assert compute_epr(m.inverse()) == "ASA"


def test_inverse_exhaustive_small():
    # inverse(B) * B = I for every nonsingular symmetric GF(2) matrix, n <= 5
    checked = 0
    for n in range(1, 6):
        eye = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for m in all_symmetric_gf2(n):
            if m.determinant() == 0:
                continue
            inv = m.inverse()
            assert matmul([list(r) for r in inv.rows], [list(r) for r in m.rows], GF2) == eye
            checked += 1
    # 1 + 4 + 28 + 448 + 13888 nonsingular symmetric matrices of orders 1..5
    assert checked == 14369


# -- Schur complement -----------------------------------------------------------

def test_schur_examples():
    assert identity(3).schur_complement([1]) == identity(2)
    for n in range(3, 9):
        assert loop_complete_graph(n).schur_complement([1]) == identity(n - 1)
    # 1 - [1 1] I2 [1;1] = 1 over GF(2); det identity det(B) = det(I2) * result
    core = loop_biclique(2, 1)
    s = core.schur_complement([1, 2])
    assert s.rows == ((1,),)
    assert core.determinant() == GF2.mul(
        core.principal_submatrix([1, 2]).determinant(), s.determinant()
    )
    with pytest.raises(SingularMatrixError):
        complete_graph(3).schur_complement([1])


def test_schur_identity_exhaustive_order4():
    for n in range(2, 5):
        for m in all_symmetric_gf2(n):
            for k in range(1, n):
                for alpha in combinations(range(1, n + 1), k):
                    if m.principal_submatrix(alpha).determinant() == 0:
                        continue
                    c = m.schur_complement(alpha)
                    labels = complement_labels(n, alpha)
                    assert c.rank() == m.rank() - k
                    for gsize in range(n - k + 1):
                        for gamma in combinations(range(1, n - k + 1), gsize):
                            lhs = c.principal_submatrix(gamma).determinant()
                            union = sorted(alpha + tuple(labels[g - 1] for g in gamma))
                            assert lhs == m.principal_submatrix(union).determinant()


def test_schur_complement_empty_pivot():
    m = complete_graph(4)
    assert m.schur_complement([]) == m


@pytest.mark.parametrize("spec", [GF4, field_make(3)], ids=["gf4", "gf8"])
def test_schur_and_inverse_follow_sylvester(spec):
    # Sylvester's determinant identity: (B / B[a])_ij = det B[a+i, a+j] / det B[a],
    # and B^-1_ij = det B[i', j'] / det B (cofactors carry no sign in char 2)
    rng = random.Random(8 + spec.degree)
    mul, inv = spec.mul, spec.inv
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = rng.randrange(spec.order)
        m = SymMatrix(spec, rows)
        for k in range(n + 1):
            alpha = sorted(rng.sample(range(n), k))
            piv = laplace_det(subgrid(m, alpha, alpha), spec)
            labels = [a + 1 for a in alpha]
            if piv == 0:
                with pytest.raises(SingularMatrixError):
                    m.schur_complement(labels)
                continue
            comp = [i for i in range(n) if i not in alpha]
            want = [
                [mul(laplace_det(subgrid(m, alpha + [i], alpha + [j]), spec), inv(piv)) for j in comp]
                for i in comp
            ]
            assert [list(r) for r in m.schur_complement(labels).rows] == want
        det = laplace_det(subgrid(m, range(n), range(n)), spec)
        if det == 0:
            with pytest.raises(SingularMatrixError):
                m.inverse()
            continue
        keep = [[r for r in range(n) if r != i] for i in range(n)]
        want = [
            [mul(laplace_det(subgrid(m, keep[i], keep[j]), spec), inv(det)) for j in range(n)]
            for i in range(n)
        ]
        assert [list(r) for r in m.inverse().rows] == want


def test_complement_labels():
    assert complement_labels(5, [2, 4]) == (1, 3, 5)
    assert complement_labels(3, []) == (1, 2, 3)


# -- structural ops ---------------------------------------------------------------

def test_direct_sum():
    d = identity(2).direct_sum(zeros(1))
    assert d.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 0))
    m1 = complete_graph(2)
    assert m1.direct_sum(m1).direct_sum(m1) == perfect_matching(6)
    with pytest.raises(ValueError):
        identity(2).direct_sum(identity(2, GF4))


def test_append_duplicate_last():
    got = identity(2).append_duplicate_last()
    assert got.rows == ((1, 0, 0), (0, 1, 1), (0, 1, 1))


def test_append_zero():
    got = zeros(1).append_zero()
    assert got == zeros(2)
    got = identity(1).append_zero()
    assert got.rows == ((1, 0), (0, 0))


def test_append_count_matches_repeated_appends():
    for m in (identity(2), loop_split_graph(3, 1), zeros(1, GF4)):
        for step in ("append_duplicate_last", "append_zero"):
            one_at_a_time = m
            for count in range(4):
                assert getattr(m, step)(count) == one_at_a_time, (m, step, count)
                one_at_a_time = getattr(one_at_a_time, step)()


def _outcome(build):
    """The rows ``build()`` returns, or the text of the error it raises."""
    try:
        return build().rows
    except (ValueError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}"


# sha256 over 400 seeded random GF(2)/GF(4) matrices of order 0..8 and the rows
# (or error text) that each structural op below builds from them; recompute it
# only when an op is meant to change.
STRUCTURAL_DIGEST = "2ef9444c6babd06ed81d682a1fdfee7218117dfa4ec500024599e2827b0bbe44"


def test_structural_ops_match_golden_digest():
    rng = random.Random(2016)
    digest = hashlib.sha256()
    for trial in range(400):
        spec = GF2 if trial % 2 else GF4
        m = _random_sym(rng, spec, rng.randint(0, 8))
        other = _random_sym(rng, spec if trial % 7 else GF4, rng.randint(0, 5))
        alpha = [i for i in range(1, m.n + 1) if rng.random() < 0.5]
        rng.shuffle(alpha)
        built = (
            _outcome(lambda: m.principal_submatrix(alpha)),
            _outcome(lambda: m.direct_sum(other)),
            _outcome(m.append_duplicate_last),
            _outcome(m.append_zero),
        )
        digest.update(repr((m.rows, other.rows, alpha, built)).encode())
    assert digest.hexdigest() == STRUCTURAL_DIGEST


# -- named constructions -----------------------------------------------------------

def test_complete_graph_is_ones_minus_identity():
    n = 4
    j = ones(n)
    eye = identity(n)
    expect = [[j.rows[a][b] ^ eye.rows[a][b] for b in range(n)] for a in range(n)]
    assert complete_graph(n).rows == tuple(tuple(r) for r in expect)


def test_loop_split_graph_entries():
    assert loop_split_graph(4, 1).rows == (
        (1, 1, 1, 1),
        (1, 0, 1, 1),
        (1, 1, 0, 1),
        (1, 1, 1, 0),
    )
    assert loop_split_graph(4, 4) == identity(4)
    assert loop_split_graph(4, 0) == complete_graph(4)
    with pytest.raises(ValueError):
        loop_split_graph(3, 4)


def test_loop_split_determinant_law():
    for n in range(0, 11):
        for k in range(n + 1):
            singular = loop_split_graph(n, k).determinant() == 0
            assert singular == (n % 2 == 1 and k % 2 == 0), (n, k)


def test_loop_complete_graph_nonsingular_up_to_12():
    assert loop_complete_graph(2).rows == ((1, 1), (1, 0))
    for n in range(2, 13):
        assert loop_complete_graph(n).determinant() == 1


def test_pendant_loop_complete_entries():
    g4 = pendant_loop_complete(4)
    assert g4.rows[0] == (1, 1, 0, 0)
    assert g4.principal_submatrix([2, 3, 4]) == loop_complete_graph(3)


def test_matching_matrices():
    assert perfect_matching(2) == complete_graph(2)
    assert coned_matching(3) == complete_graph(3)
    m2 = coned_matching(5)
    assert m2.rows[4] == (1, 1, 1, 1, 0)
    with pytest.raises(ValueError):
        perfect_matching(3)
    with pytest.raises(ValueError):
        coned_matching(4)


def test_loop_biclique_entries():
    assert loop_biclique(2, 1).rows == ((1, 0, 1), (0, 1, 1), (1, 1, 1))
    assert loop_biclique(2, 2).rows == (
        (1, 0, 1, 1),
        (0, 1, 1, 1),
        (1, 1, 1, 0),
        (1, 1, 0, 1),
    )


def test_clique_matchings():
    b = clique_matching(6)
    assert b.principal_submatrix([1, 2, 3]) == ones(3)
    assert b.principal_submatrix([4, 5, 6]) == identity(3)
    assert b.entry(1, 4) == 1 and b.entry(1, 5) == 0
    w = wide_clique_matching(8)
    assert w.principal_submatrix([1, 2, 3]) == ones(3)
    assert w.principal_submatrix([4, 5, 6, 7, 8]) == identity(5)
    assert w.entry(1, 4) == 1 and w.entry(1, 5) == 0
    assert w.entry(1, 7) == 1 and w.entry(1, 8) == 1
    with pytest.raises(ValueError):
        clique_matching(8)
    with pytest.raises(ValueError):
        wide_clique_matching(6)


def test_construct_named_dispatch():
    assert construct_named("identity", [3]) == identity(3)
    assert construct_named("loop_split_graph", [4, 1]) == loop_split_graph(4, 1)
    with pytest.raises(ValueError):
        construct_named("mystery", [1])
    with pytest.raises(ValueError):
        construct_named("identity", [1, 2])
    with pytest.raises(ValueError):
        construct_named("perfect_matching", [4], GF4)


# sha256 over the rows of every named construction, over GF(2) and GF(4), for
# every parameter tuple in 0..20 (orders up to 20, and up to 40 for
# loop_biclique), or the error text of each one it refuses; recompute it only
# when a construction is meant to change.
NAMED_DIGEST = "3f73beb1713773e3f314e30723ad603b83c356f44969490e734ec4078cce9e76"


def test_named_constructions_match_golden_digest():
    digest = hashlib.sha256()
    for kind, (_, arity) in _NAMED.items():
        for params in product(range(21), repeat=arity):
            for spec in (GF2, GF4):
                built = _outcome(lambda: construct_named(kind, params, spec))
                digest.update(repr((kind, params, spec.name, built)).encode())
    assert digest.hexdigest() == NAMED_DIGEST


# -- text format ---------------------------------------------------------------

def test_text_round_trip():
    for m in (complete_graph(3), identity(1), loop_split_graph(5, 2)):
        assert read_matrix(m.to_text()) == m
    z, w = 2, 3
    m4 = SymMatrix(GF4, [[1, z], [z, w]])
    text = m4.to_text()
    assert text == "field gf4\nn 2\n1 z\nz w\n"
    assert read_matrix(text) == m4


def test_text_refuses_gf8():
    with pytest.raises(ValueError) as info:
        identity(2, field_make(3)).to_text()
    assert str(info.value) == "text format supports gf2 and gf4, not gf8"


def test_text_comments_skipped():
    text = "# recipe: N2: complete_graph(3)\n" + complete_graph(3).to_text()
    assert read_matrix(text) == complete_graph(3)


@pytest.mark.parametrize(
    "text,line,column",
    [
        ("field gf5\nn 1\n0\n", 1, 7),
        ("field gf2\nn 2\n0 1\n1\n", 4, 1),
        ("field gf2\nn 1\nz\n", 3, 1),
        ("field gf2\nn 2\n0 1\n1 0\nextra\n", 5, 1),
        ("n 1\n0\n", 1, 1),
        ("field gf2\nn 2\n0 1\n0 0\n", 3, 1),
        ("field gf2\nn ²\n1\n", 2, 1),
    ],
)
def test_text_rejects_with_diagnostics(text, line, column):
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(text)
    assert err.value.line == line
    assert err.value.column == column


@pytest.mark.parametrize(
    "text, message",
    [
        ("# recipe only\n", "line 2, column 1: missing 'field' header"),
        ("field gf2\n", "line 2, column 1: missing 'n' header"),
        ("field gf2\nn 2\n0 1\n", "line 4, column 1: missing matrix row 2"),
    ],
)
def test_text_rejects_a_truncated_file(text, message):
    with pytest.raises(MatrixFormatError) as err:
        read_matrix(text)
    assert str(err.value) == message
