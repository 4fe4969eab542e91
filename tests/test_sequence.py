import random
from pathlib import Path

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eprseq import (
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
from eprseq.sequence import principal_minors
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
        principal_minors(big)
    assert principal_minors(zeros(0)).tolist() == [1]


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


FIELDS = pytest.mark.parametrize("spec", [GF2, GF4, field_make(3)], ids=lambda s: s.name)
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@FIELDS
@PROPERTY
@given(data=st.data())
def test_principal_minors_match_laplace(spec, data):
    m = data.draw(symmetric_matrices(spec))
    dets = principal_minors(m)
    assert dets.dtype == np.uint8 and dets.size == 1 << m.n
    for mask in range(1 << m.n):
        idx = [i for i in range(m.n) if mask >> i & 1]
        assert dets[mask] == laplace_det(subgrid(m, idx, idx), spec), idx


@FIELDS
@PROPERTY
@given(data=st.data())
def test_sequences_match_naive_enumeration(spec, data):
    m = data.draw(symmetric_matrices(spec))
    assert compute_epr(m) == naive_epr(m)
    assert compute_pr(m) == naive_pr(m)
