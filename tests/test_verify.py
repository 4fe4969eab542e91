import random

import numpy as np
import pytest

from eprseq import (
    GF2,
    GF4,
    BoundExceededError,
    SymMatrix,
    attained_pr_sequences,
    compare_with_classifier,
    compute_epr,
    compute_pr,
    enumerate_epr,
    theorem_suite,
)
from eprseq import _engine as eng
from oracles import all_symmetric_gf2


# -- enumeration ---------------------------------------------------------------

def test_enumerate_order_1():
    cat = enumerate_epr(1)
    assert cat.counts == {"A": 1, "N": 1}
    assert cat.exemplar["N"].rows == ((0,),)
    assert cat.exemplar["A"].rows == ((1,),)


def test_enumerate_order_2_matches_hand_enumeration():
    by_hand = {}
    for m in all_symmetric_gf2(2):
        by_hand[compute_epr(m)] = by_hand.get(compute_epr(m), 0) + 1
    cat = enumerate_epr(2)
    assert cat.counts == by_hand
    assert set(cat.counts) == {"AA", "AN", "NA", "NN", "SA", "SN"}


def test_enumerate_order_3_key_set():
    cat = enumerate_epr(3)
    assert set(cat.counts) == {
        "NAN", "NSN", "NNN", "AAA", "ANN", "ASN",
        "ASA", "SNN", "SSN", "SSA", "SAN", "SAA",
    }
    assert cat.total() == 64


def test_catalog_invariants():
    for n in (2, 3, 4):
        cat = enumerate_epr(n)
        assert cat.total() == 1 << (n * (n + 1) // 2)
        for word, count in cat.counts.items():
            assert count > 0
            assert word[-1] in "AN"
            assert compute_epr(cat.exemplar[word]) == word


def test_catalog_export_format():
    text = enumerate_epr(2).to_text()
    lines = text.splitlines()
    assert lines == sorted(lines)
    assert lines[0] == "AA 1"


def test_enumerate_jobs_independent():
    a = enumerate_epr(4, jobs=1)
    b = enumerate_epr(4, jobs=3)
    assert a.counts == b.counts
    assert {w: m for w, m in a.exemplar.items()} == b.exemplar


def test_enumerate_bounds():
    with pytest.raises(BoundExceededError):
        enumerate_epr(7)  # gated without force
    with pytest.raises(BoundExceededError):
        enumerate_epr(8, force=True)
    with pytest.raises(BoundExceededError):
        enumerate_epr(5, GF4)
    with pytest.raises(BoundExceededError):
        enumerate_epr(0)


def test_gf4_enumeration_contains_aan():
    gf4 = enumerate_epr(3, GF4)
    gf2 = enumerate_epr(3, GF2)
    assert "AAN" in gf4.counts
    assert "AAN" not in gf2.counts
    assert gf4.total() == 4 ** 6
    m = gf4.exemplar["AAN"]
    assert compute_epr(m) == "AAN"


def test_compare_with_classifier_small():
    for n in (2, 3, 5):
        report = compare_with_classifier(n)
        assert report.ok, report.to_text()


def test_attained_pr_matches_library_route():
    for n in (2, 3, 4):
        by_hand = {str(compute_pr(m)) for m in all_symmetric_gf2(n)}
        assert attained_pr_sequences(n) == by_hand


# -- engine vs library (dual route) ----------------------------------------------

def test_engine_det_table_matches_library():
    rng = random.Random(11)
    for n in range(1, 7):
        table = eng.det_table(n)
        codes = [rng.randrange(1 << (n * (n + 1) // 2)) for _ in range(200)]
        for code in codes:
            m = SymMatrix(GF2, eng.gf2_entries_from_code(code, n))
            assert int(table[code]) == m.determinant()


def test_engine_letters_match_library():
    rng = random.Random(12)
    for n in range(1, 7):
        letters = eng.letter_arrays(n)
        for _ in range(60):
            code = rng.randrange(1 << (n * (n + 1) // 2))
            m = SymMatrix(GF2, eng.gf2_entries_from_code(code, n))
            word = compute_epr(m)
            got = "".join("NSA"[letters[k][code]] for k in range(n))
            assert got == word


def test_engine_schur_matches_library():
    rng = random.Random(13)
    for n in (3, 4, 5):
        for _ in range(40):
            code = rng.randrange(1 << (n * (n + 1) // 2))
            m = SymMatrix(GF2, eng.gf2_entries_from_code(code, n))
            k = rng.randint(1, n - 1)
            alpha = tuple(sorted(rng.sample(range(1, n + 1), k)))
            if m.principal_submatrix(alpha).determinant() == 0:
                continue
            codes = np.array([code], np.uint32)
            alpha0 = tuple(a - 1 for a in alpha)
            ccode = int(eng.batch_schur_codes2(codes, n, alpha0)[0])
            got = SymMatrix(GF2, eng.gf2_entries_from_code(ccode, n - k))
            assert got == m.schur_complement(alpha)


def test_engine_rank_matches_library():
    rng = random.Random(14)
    for n in range(1, 7):
        ranks = eng.rank_array(n)
        for _ in range(60):
            code = rng.randrange(1 << (n * (n + 1) // 2))
            m = SymMatrix(GF2, eng.gf2_entries_from_code(code, n))
            assert int(ranks[code]) == m.rank()


def test_engine_letters_order_7_sampled():
    # the gated n=7 path has no full det table; spot-check its letters
    rng = random.Random(15)
    codes = np.array(
        sorted(rng.randrange(1 << 28) for _ in range(40)), np.uint32
    )
    letters = eng._letters_for_codes(codes, 7)
    for pos, code in enumerate(codes.tolist()):
        m = SymMatrix(GF2, eng.gf2_entries_from_code(code, 7))
        word = compute_epr(m)
        got = "".join("NSA"[letters[k][pos]] for k in range(7))
        assert got == word


# -- theorem suite ----------------------------------------------------------------

def test_theorem_suite_reduced_bounds():
    report = theorem_suite(max_n=3, gf4_cases=120)
    assert len(report.checks) == 16
    assert report.ok, report.to_text()
    assert report.seed is not None


def test_theorem_suite_reproducible():
    a = theorem_suite(max_n=2, gf4_cases=60, seed=5)
    b = theorem_suite(max_n=2, gf4_cases=60, seed=5)
    assert a.to_text() == b.to_text()


def test_suite_report_format():
    report = theorem_suite(max_n=2, gf4_cases=30)
    lines = report.to_text().splitlines()
    assert len(lines) >= 16
    name, cases, failures = lines[0].split()
    assert int(cases) > 0 and failures == "0"


def test_catalog_threads_clamped_to_cpu_count(monkeypatch):
    import concurrent.futures
    import os

    class Stop(Exception):
        pass

    seen = []

    class RecordingPool:  # stands in for ThreadPoolExecutor; starts no thread
        def __init__(self, max_workers):
            seen.append(max_workers)
            raise Stop

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    with pytest.raises(Stop):
        eng.catalog_gf2(6, jobs=4096)
    assert seen == [2]
