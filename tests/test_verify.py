import random
from itertools import combinations

import numpy as np
import pytest

from eprseq import (
    GF2,
    GF4,
    BoundExceededError,
    accepted_pr_sequences,
    attained_pr_sequences,
    compare_with_classifier,
    compute_epr,
    compute_pr,
    enumerate_epr,
    theorem_suite,
)
from eprseq import _engine as eng
from eprseq import verify
from eprseq.sequence import minor_tables
from oracles import all_symmetric_gf2, laplace_det, naive_epr, subgrid


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
    for n in (4, 6):  # at n = 6, 3 jobs give chunks rounded up to whole trailing blocks
        a = enumerate_epr(n, jobs=1)
        b = enumerate_epr(n, jobs=3)
        assert a.counts == b.counts
        assert {w: m for w, m in a.exemplar.items()} == b.exemplar


def test_enumerate_bounds():
    with pytest.raises(BoundExceededError):
        enumerate_epr(7)  # gated without force
    with pytest.raises(BoundExceededError):
        enumerate_epr(8, force=True)
    with pytest.raises(BoundExceededError):
        enumerate_epr(5, GF4)  # gated without force
    with pytest.raises(BoundExceededError):
        enumerate_epr(6, GF4, force=True)
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


def test_gf4_pr_words_match_char2_classifier():
    # classify_pr_char2 claims every field of characteristic 2; check GF(4) exhaustively
    for n in range(1, 5):
        assert attained_pr_sequences(n, GF4) == set(accepted_pr_sequences(n))
    with pytest.raises(BoundExceededError):
        attained_pr_sequences(5, GF4)


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
            m = eng.code_matrix(code, n)
            assert int(table[code]) == m.determinant()


def test_engine_letters_match_library():
    # the engine and compute_epr share one kernel, so the Laplace oracle checks both
    rng = random.Random(12)
    for n in range(1, 7):
        letters = eng.letter_arrays(n)
        for _ in range(60):
            code = rng.randrange(1 << (n * (n + 1) // 2))
            m = eng.code_matrix(code, n)
            got = "".join("NSA"[letters[k][code]] for k in range(n))
            assert got == naive_epr(m)


def _sweep_words(codes, n, spec=GF2):
    """epr words of single codes, each read off the sweep of its trailing block."""
    block = 1 << (spec.degree * n)
    words = []
    for code in codes:
        start = code - code % block
        words.append(eng.key_to_word(int(eng.sweep_keys(start, start + block, n, spec)[code - start]), n))
    return words


def test_engine_letters_gf4_sampled():
    rng = random.Random(16)
    for n in range(1, 5):
        codes = np.array(sorted(rng.randrange(1 << (n * (n + 1))) for _ in range(40)), np.uint32)
        words = _sweep_words(codes.tolist(), n, GF4)
        for pos, code in enumerate(codes.tolist()):
            m = eng.code_matrix(code, n, GF4)
            got = words[pos]
            assert got == naive_epr(m)


def _table_keys(codes, n, spec):
    """Letter keys read off each code's own full minor table, one order at a time."""
    dets = minor_tables(eng.decode_entries(codes, n, spec), spec)
    keys = np.zeros(codes.size, np.uint32)
    for k in range(1, n + 1):
        minors = dets[[m for m in range(1 << n) if m.bit_count() == k]] != 0
        keys |= (minors.any(axis=0).astype(np.uint32) + minors.all(axis=0)) << (2 * k - 2)
    return keys


def test_sweep_matches_per_code_tables_exhaustive():
    for spec, top in ((GF2, 5), (GF4, 3)):
        for n in range(1, top + 1):
            codes = np.arange(1 << (spec.degree * n * (n + 1) // 2), dtype=np.uint32)
            keys = eng.sweep_keys(0, codes.size, n, spec)
            assert (keys == _table_keys(codes, n, spec)).all()


def test_sweep_whole_blocks_match_laplace():
    rng = random.Random(19)
    for spec, n, blocks in ((GF2, 7, 2), (GF4, 1, 1), (GF4, 2, 1), (GF4, 3, 1), (GF4, 4, 1), (GF4, 5, 1)):
        q = spec.degree
        for _ in range(blocks):
            start = rng.randrange(1 << (q * (n - 1) * n // 2)) << (q * n)
            keys = eng.sweep_keys(start, start + (1 << (q * n)), n, spec).tolist()
            for r, key in enumerate(keys):
                assert eng.key_to_word(key, n) == naive_epr(eng.code_matrix(start + r, n, spec))


def test_engine_schur_matches_library():
    rng = random.Random(13)
    for n in (3, 4, 5):
        for _ in range(40):
            code = rng.randrange(1 << (n * (n + 1) // 2))
            m = eng.code_matrix(code, n)
            k = rng.randint(1, n - 1)
            alpha = tuple(sorted(rng.sample(range(1, n + 1), k)))
            if m.principal_submatrix(alpha).determinant() == 0:
                continue
            ent = eng.decode_entries(np.array([code], np.uint32), n)
            alpha0 = tuple(a - 1 for a in alpha)
            ccode = int(eng.encode_entries(eng.schur_entries(ent, alpha0))[0])
            got = eng.code_matrix(ccode, n - k)
            assert got == m.schur_complement(alpha)


def test_engine_rank_matches_library():
    rng = random.Random(14)
    for n in range(1, 7):
        ranks = eng.rank_array(n)
        for _ in range(60):
            code = rng.randrange(1 << (n * (n + 1) // 2))
            m = eng.code_matrix(code, n)
            assert int(ranks[code]) == m.rank()


def test_engine_letters_order_7_sampled():
    # the gated n=7 path has no full det table; spot-check its letters
    rng = random.Random(15)
    codes = np.array(
        sorted(rng.randrange(1 << 28) for _ in range(40)), np.uint32
    )
    words = _sweep_words(codes.tolist(), 7)
    for pos, code in enumerate(codes.tolist()):
        m = eng.code_matrix(code, 7)
        got = words[pos]
        assert got == naive_epr(m)


# -- code layout and entry-batch code maps ------------------------------------------

def _grid(ent, b):
    """Matrix b of an (n, n, B) entry batch as a tuple of rows."""
    return tuple(tuple(row) for row in ent[:, :, b].tolist())


def test_code_layout_round_trips():
    rng = random.Random(17)
    for spec, top in ((GF2, 6), (GF4, 4)):
        for n in range(1, top + 1):
            codes = np.arange(1 << (spec.degree * n * (n + 1) // 2), dtype=np.uint32)
            ent = eng.decode_entries(codes, n, spec)
            assert (ent == ent.transpose(1, 0, 2)).all() and ent.max() < spec.order
            assert (eng.encode_entries(ent, spec) == codes).all()
            for code in rng.sample(range(codes.size), min(codes.size, 100)):
                assert eng.code_matrix(code, n, spec).rows == _grid(ent, code)
    # row-major upper triangle, as the independent enumeration in oracles lays it out
    for n in range(1, 5):
        for code, m in enumerate(all_symmetric_gf2(n)):
            assert eng.code_matrix(code, n) == m


def test_gather_codes_match_library_exhaustive():
    for n in range(1, 5):
        mats = list(all_symmetric_gf2(n))
        ent = eng.decode_entries(np.arange(len(mats), dtype=np.uint32), n)
        assert (eng.gather_codes(ent, ()) == 0).all()
        for k in range(1, n + 1):
            for alpha in combinations(range(n), k):
                sub = eng.gather_codes(ent, alpha).tolist()
                labels = tuple(a + 1 for a in alpha)
                for code, m in enumerate(mats):
                    assert eng.code_matrix(sub[code], k) == m.principal_submatrix(labels)
        zero = eng.gather_codes(ent, (*range(n), n)).tolist()
        dup = eng.gather_codes(ent, (*range(n), n - 1)).tolist()
        for code, m in enumerate(mats):
            assert eng.code_matrix(zero[code], n + 1) == m.append_zero()
            assert eng.code_matrix(dup[code], n + 1) == m.append_duplicate_last()


def test_gf2_inverse_matches_library_exhaustive():
    for n in range(1, 5):
        mats = [m for m in all_symmetric_gf2(n) if m.determinant() == 1]
        det, inv = eng.gf2_inverse(np.array([m.rows for m in mats], np.uint8).transpose(1, 2, 0))
        assert det.tolist() == [1] * len(mats)
        for b, m in enumerate(mats):
            assert _grid(inv, b) == m.inverse().rows


def test_deleted_minors_match_laplace_exhaustive():
    for n in range(1, 5):
        mats = list(all_symmetric_gf2(n))
        minors = eng.deleted_minors(np.array([m.rows for m in mats], np.uint8).transpose(1, 2, 0))
        assert minors.shape == (n, n, len(mats))
        for i in range(n):
            rows = [r for r in range(n) if r != i]
            for j in range(n):
                cols = [c for c in range(n) if c != j]
                want = [laplace_det(subgrid(m, rows, cols), GF2) for m in mats]
                assert minors[i, j].tolist() == want


def test_congruence_entries_match_matmul_exhaustive():
    rng = np.random.default_rng(18)
    for n in range(1, 5):
        mats = list(all_symmetric_gf2(n))
        ent = np.array([m.rows for m in mats], np.uint8).transpose(1, 2, 0)
        for _ in range(2):
            e = verify._rand_invertible(rng, n, GF2)
            et = [list(col) for col in zip(*e)]
            got = eng.congruence_entries(ent, e)
            for b, m in enumerate(mats):
                want = verify._fe_matmul(verify._fe_matmul(e, [list(r) for r in m.rows], GF2), et, GF2)
                assert _grid(got, b) == tuple(map(tuple, want))


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
