import random
from pathlib import Path

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprseq import (
    DEFAULT_MAX_ORDER,
    GF2,
    GF4,
    OrderLimitError,
    PrSequence,
    SymMatrix,
    complete_graph,
    compute_epr,
    compute_pr,
    coned_matching,
    field_make,
    identity,
    loop_split_graph,
    ones,
    parse_epr,
    parse_pr,
    perfect_matching,
    pr_of_epr,
    read_matrix,
    zeros,
)
from eprseq import sequence
from eprseq._engine import minor_tables, table_letters
from eprseq.sequence import _nonzero_per_order, minor_planes
from oracles import all_symmetric_gf2, laplace_det, naive_epr, naive_pr, subgrid

DATA = Path(__file__).parent / "data"


def rand_sym(rng, n, spec):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randrange(spec.order)
    return SymMatrix(spec, rows)


# -- parsing ------------------------------------------------------------------

def test_parse_epr():
    assert parse_epr("NSNA") == "NSNA"
    for bad in ("", "NXA", "nsn", "N A"):
        with pytest.raises(ValueError):
            parse_epr(bad)


def test_parse_pr():
    p = parse_pr("1]01")
    assert p == PrSequence(1, "01")
    assert p.order == 2
    assert str(p) == "1]01"
    for bad in ("101", "2]01", "1]", "1]02", ""):
        with pytest.raises(ValueError):
            parse_pr(bad)


def test_pr_of_epr():
    assert str(pr_of_epr("NAN", 1)) == "1]010"
    assert str(pr_of_epr("AAA", 0)) == "0]111"
    assert str(pr_of_epr("SSN", True)) == "1]110"


# -- epr examples ---------------------------------------------------------------

def test_epr_examples():
    assert compute_epr(identity(4)) == "AAAA"
    assert compute_epr(complete_graph(5)) == "NANAN"
    assert compute_epr(loop_split_graph(4, 1)) == "SASA"
    assert compute_epr(perfect_matching(4)) == "NSNA"
    assert compute_epr(perfect_matching(6)) == "NSNSNA"
    assert compute_epr(coned_matching(7)) == "NSNSNAN"


def test_epr_gf4_fixture():
    m = read_matrix((DATA / "sasn.txt").read_text())
    assert m.spec == GF4
    assert compute_epr(m) == "SASN"


def test_pr_examples():
    assert str(compute_pr(identity(3))) == "0]111"
    assert str(compute_pr(complete_graph(3))) == "1]010"
    assert str(compute_pr(zeros(2))) == "1]00"
    assert str(compute_pr(ones(3))) == "0]100"


def test_order_guardrail():
    big = identity(25)
    with pytest.raises(OrderLimitError):
        compute_epr(big)
    with pytest.raises(OrderLimitError):
        compute_pr(big, max_order=10)
    assert compute_epr(identity(5), max_order=5) == "AAAAA"
    with pytest.raises(ValueError):
        compute_epr(zeros(0))
    with pytest.raises(OrderLimitError):
        minor_planes(big)
    with pytest.raises(OrderLimitError, match="physical memory"):
        compute_epr(identity(40), max_order=None)  # lifting the guardrail keeps the ceiling
    assert minor_planes(zeros(0)) == [1]


def test_memory_ceiling_falls_back_to_the_guardrail_table(monkeypatch):
    """Where os.sysconf cannot say, physical memory reads as the 2^24-byte table of the guardrail."""
    def unknown(name):
        raise ValueError(f"unrecognized configuration name {name!r}")

    monkeypatch.setattr(sequence.os, "sysconf", unknown)
    assert sequence._physical_memory() == 1 << DEFAULT_MAX_ORDER
    with pytest.raises(OrderLimitError, match="physical memory"):
        compute_epr(identity(25), max_order=None)


# -- properties -------------------------------------------------------------------

def test_pr_equals_pr_of_epr_exhaustive():
    # both aggregations of the minor table must agree for every GF(2) matrix, n <= 5
    for n in range(1, 6):
        for m in all_symmetric_gf2(n):
            epr = compute_epr(m)
            assert compute_pr(m) == pr_of_epr(epr, m.has_zero_diagonal())


def test_epr_matches_naive_reenumeration():
    for n in range(1, 4):
        for m in all_symmetric_gf2(n):
            assert compute_epr(m) == naive_epr(m)
    rng = random.Random(4242)
    for _ in range(150):
        n = rng.randint(1, 6)
        spec = GF2 if rng.random() < 0.6 else GF4
        m = rand_sym(rng, n, spec)
        assert compute_epr(m) == naive_epr(m)
        assert compute_pr(m) == naive_pr(m)


def test_border_operation_letter_transforms():
    # duplicating the last index: A-letters of inner orders soften to S
    assert compute_epr(identity(3).append_duplicate_last()) == "ASSN"
    assert compute_epr(identity(2).append_duplicate_last().append_duplicate_last()) == "ASNN"
    # adjoining a zero index softens every order, including the first
    assert compute_epr(complete_graph(2).append_zero()) == "NSN"
    assert compute_epr(zeros(1).append_zero()) == "NN"
    assert compute_epr(identity(1).append_zero()) == "SN"


def test_last_letter_never_s():
    rng = random.Random(77)
    for _ in range(300):
        m = rand_sym(rng, rng.randint(1, 6), GF2)
        word = compute_epr(m)
        assert word[-1] in "AN"
        assert (word[-1] == "A") == (m.determinant() != 0)


# -- the principal-minor kernel against the Laplace oracle ----------------------

@st.composite
def symmetric_matrices(draw, spec, max_n=7):
    n = draw(st.integers(1, max_n))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(0, spec.order - 1))
    return SymMatrix(spec, rows)


def _plane_dets(planes, n):
    """det B[S] for S = 0 .. 2^n - 1, read bit by bit off the planes of minor_planes."""
    return [sum((p >> s & 1) << t for t, p in enumerate(planes)) for s in range(1 << n)]


FIELDS = pytest.mark.parametrize("spec", [GF2, GF4, field_make(3), field_make(4)], ids=lambda s: s.name)
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@FIELDS
@PROPERTY
@given(data=st.data())
def test_principal_minors_match_laplace(spec, data):
    m = data.draw(symmetric_matrices(spec))
    dets = _plane_dets(minor_planes(m), m.n)
    assert len(dets) == 1 << m.n
    for mask in range(1 << m.n):
        idx = [i for i in range(m.n) if mask >> i & 1]
        assert dets[mask] == laplace_det(subgrid(m, idx, idx), spec), idx


# GF(16) would add about 2 s here; its minors are held to Laplace above
@pytest.mark.parametrize("spec", [GF2, GF4, field_make(3)], ids=lambda s: s.name)
@PROPERTY
@given(data=st.data())
def test_sequences_match_naive_enumeration(spec, data):
    m = data.draw(symmetric_matrices(spec))
    assert compute_epr(m) == naive_epr(m)
    assert compute_pr(m) == naive_pr(m)


# -- invariance properties: each word read through both kernels and the oracle ------

def _epr_every_way(m):
    """The epr word of m through minor_planes, minor_tables and the Laplace oracle."""
    dets = minor_tables(np.array(m.rows, np.uint8)[:, :, None], m.spec)
    batched = "".join("NSA"[letter[0]] for letter in table_letters(dets))
    words = {compute_epr(m), batched, naive_epr(m)}
    assert len(words) == 1, words
    return words.pop()


def _entrywise(m, f):
    """The matrix with entries f(i, j, b_ij)."""
    rows = [[f(i, j, x) for j, x in enumerate(row)] for i, row in enumerate(m.rows)]
    return SymMatrix(m.spec, rows)


INVARIANCE = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@FIELDS
@INVARIANCE
@given(data=st.data())
def test_epr_invariant_under_permutation_similarity(spec, data):
    m = data.draw(symmetric_matrices(spec, max_n=5))
    p = data.draw(st.permutations(range(m.n)))
    assert _epr_every_way(_entrywise(m, lambda i, j, x: m.rows[p[i]][p[j]])) == _epr_every_way(m)


@FIELDS
@INVARIANCE
@given(data=st.data())
def test_epr_invariant_under_diagonal_congruence(spec, data):
    m = data.draw(symmetric_matrices(spec, max_n=5))
    d = data.draw(st.lists(st.integers(1, spec.order - 1), min_size=m.n, max_size=m.n))
    dbd = _entrywise(m, lambda i, j, x: spec.mul(spec.mul(d[i], x), d[j]))
    assert _epr_every_way(dbd) == _epr_every_way(m)


@FIELDS
@INVARIANCE
@given(data=st.data())
def test_epr_invariant_under_frobenius(spec, data):
    m = data.draw(symmetric_matrices(spec, max_n=5))
    assert _epr_every_way(_entrywise(m, lambda i, j, x: spec.mul(x, x))) == _epr_every_way(m)


@pytest.mark.parametrize("spec", [GF2, GF4], ids=lambda s: s.name)
@PROPERTY
@given(data=st.data())
def test_text_round_trip(spec, data):
    m = data.draw(symmetric_matrices(spec))
    assert read_matrix(m.to_text()) == m


@st.composite
def matrix_stacks(draw, spec, max_n=5, max_batch=4):
    """Entries (n, n, B) of B > 1 matrices; each entry position is 0, 1 or one other
    value in every column, or mixed, so every kind of kernel term runs."""
    n = draw(st.integers(1, max_n))
    batch = draw(st.integers(2, max_batch))
    value = st.integers(0, spec.order - 1)
    column = st.one_of(
        st.sampled_from([0, 1]).map(lambda c: [c] * batch),
        value.map(lambda c: [c] * batch),
        st.lists(value, min_size=batch, max_size=batch),
    )
    entries = np.zeros((n, n, batch), np.uint8)
    for i in range(n):
        for j in range(i, n):
            entries[i, j] = entries[j, i] = draw(column)
    return entries


@FIELDS
@PROPERTY
@given(data=st.data())
def test_batched_minor_tables_match_laplace(spec, data):
    entries = data.draw(matrix_stacks(spec))
    n, _, batch = entries.shape
    dets = minor_tables(entries, spec)
    assert dets.dtype == np.uint8 and dets.shape == (1 << n, batch)
    for b in range(batch):
        rows = entries[:, :, b].tolist()
        for mask in range(1 << n):
            idx = [i for i in range(n) if mask >> i & 1]
            assert dets[mask, b] == laplace_det([[rows[i][j] for j in idx] for i in idx], spec), (b, idx)


# -- the one-matrix bit-sliced kernel against the batched numpy kernel ----------

def _table_counts(column):
    """Nonzero minors of each order 0..n, read off one column of minor_tables."""
    n = column.size.bit_length() - 1
    counts = np.zeros(n + 1, np.int64)
    for start in range(0, column.size, 1 << 16):  # small index arrays at order 24
        subsets = start + np.flatnonzero(column[start : start + (1 << 16)])
        counts += np.bincount(np.bitwise_count(subsets), minlength=n + 1)
    return counts.tolist()


@FIELDS
@PROPERTY
@given(data=st.data())
def test_bit_sliced_kernel_matches_batched_kernel(spec, data):
    entries = data.draw(matrix_stacks(spec, max_n=10))
    dets = minor_tables(entries, spec)
    for b in range(entries.shape[2]):
        m = SymMatrix(spec, entries[:, :, b].tolist())
        assert _plane_dets(minor_planes(m), m.n) == dets[:, b].tolist()
        assert _nonzero_per_order(m, None) == _table_counts(dets[:, b])


@pytest.mark.parametrize("spec,n", [(GF2, 20), (GF4, 14), (GF2, 24)], ids=["gf2-20", "gf4-14", "gf2-24"])
def test_bit_sliced_counts_match_batched_kernel_at_scale(spec, n):
    # GF(2) n=20 and n=24 count in 16 and 256 blocks of 2^16 subsets, the last one holding
    # subsets of 8 indices above 16; GF(4) n=14 counts two bit-planes in one block
    m = rand_sym(random.Random(n), n, spec)
    column = minor_tables(np.array(m.rows, np.uint8)[:, :, None], spec)[:, 0]
    assert _nonzero_per_order(m, None) == _table_counts(column)
