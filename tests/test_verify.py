import ast
import random
import re
from itertools import combinations

import numpy as np
import pytest

from eprseq import (
    GF2,
    GF4,
    BoundExceededError,
    SymMatrix,
    accepted_pr_sequences,
    attained_pr_sequences,
    compare_with_classifier,
    compute_epr,
    compute_pr,
    enumerate_epr,
    field_make,
    theorem_suite,
)
from eprseq import _engine as eng
from eprseq import verify
from eprseq._engine import minor_tables
from oracles import all_symmetric_gf2, laplace_det, matmul, naive_epr, subgrid

GF8 = field_make(3)


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
    for spec in (GF2, GF4):
        for n in (3, 4, 5):
            for _ in range(40):
                code = rng.randrange(1 << (spec.degree * n * (n + 1) // 2))
                m = eng.code_matrix(code, n, spec)
                k = rng.randint(1, n - 1)
                alpha = tuple(sorted(rng.sample(range(1, n + 1), k)))
                if m.principal_submatrix(alpha).determinant() == 0:
                    continue
                ent = eng.decode_entries(np.array([code], np.uint32), n, spec)
                alpha0 = tuple(a - 1 for a in alpha)
                ccode = int(eng.encode_entries(eng.schur_entries(ent, alpha0, spec), spec)[0])
                got = eng.code_matrix(ccode, n - k, spec)
                assert got == m.schur_complement(alpha)
    # whole sampled GF(4) and GF(8) batches, one pivot set at a time
    for spec, mats, ent in _sampled_batches(22, orders=range(2, 6)):
        n = ent.shape[0]
        for alpha in combinations(range(n), n // 2):
            labels = tuple(a + 1 for a in alpha)
            keep = [b for b, m in enumerate(mats) if m.principal_submatrix(labels).determinant()]
            got = eng.schur_entries(ent[:, :, keep], alpha, spec)
            for col, b in enumerate(keep):
                assert _grid(got, col) == mats[b].schur_complement(labels).rows


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
        assert (eng.encode_entries(eng.gather_entries(ent, ())) == 0).all()
        for k in range(1, n + 1):
            for alpha in combinations(range(n), k):
                sub = eng.encode_entries(eng.gather_entries(ent, alpha)).tolist()
                labels = tuple(a + 1 for a in alpha)
                for code, m in enumerate(mats):
                    assert eng.code_matrix(sub[code], k) == m.principal_submatrix(labels)
        zero = eng.encode_entries(eng.gather_entries(ent, (*range(n), n))).tolist()
        dup = eng.encode_entries(eng.gather_entries(ent, (*range(n), n - 1))).tolist()
        for code, m in enumerate(mats):
            assert eng.code_matrix(zero[code], n + 1) == m.append_zero()
            assert eng.code_matrix(dup[code], n + 1) == m.append_duplicate_last()


def _sampled_batches(seed, fields=(GF4, GF8), orders=range(1, 6), batch=60):
    """(spec, matrices, (n, n, B) entries) of seeded random symmetric matrices."""
    rng = random.Random(seed)
    for spec in fields:
        for n in orders:
            mats = []
            for _ in range(batch):
                rows = [[0] * n for _ in range(n)]
                for i in range(n):
                    for j in range(i, n):
                        rows[i][j] = rows[j][i] = rng.randrange(spec.order)
                mats.append(SymMatrix(spec, rows))
            yield spec, mats, np.array([m.rows for m in mats], np.uint8).transpose(1, 2, 0)


def test_gf2_inverse_matches_library_exhaustive():
    for n in range(1, 5):
        mats = [m for m in all_symmetric_gf2(n) if m.determinant() == 1]
        det, inv = eng.inverse(np.array([m.rows for m in mats], np.uint8).transpose(1, 2, 0))
        assert det.tolist() == [1] * len(mats)
        for b, m in enumerate(mats):
            assert _grid(inv, b) == m.inverse().rows
    # sampled GF(4) and GF(8) batches, singular columns included
    for spec, mats, ent in _sampled_batches(20):
        det, inv = eng.inverse(ent, spec)
        assert det.tolist() == [m.determinant() for m in mats]
        for b, m in enumerate(mats):
            if det[b]:
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
    for spec, mats, ent in _sampled_batches(23, orders=range(1, 5), batch=20):
        n = ent.shape[0]
        minors = eng.deleted_minors(ent, spec)
        for i, j in np.ndindex(n, n):
            rows, cols = [r for r in range(n) if r != i], [c for c in range(n) if c != j]
            want = [laplace_det(subgrid(m, rows, cols), spec) for m in mats]
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
                want = matmul(matmul(e, [list(r) for r in m.rows], GF2), et, GF2)
                assert _grid(got, b) == tuple(map(tuple, want))
    # sampled GF(4) and GF(8) batches: one E for the batch, then one E per column
    for spec, mats, ent in _sampled_batches(21):
        n = ent.shape[0]
        grids = [verify._rand_invertible(rng, n, spec) for _ in mats]
        one = eng.congruence_entries(ent, grids[0], spec)
        each = eng.congruence_entries(ent, np.array(grids, np.uint8).transpose(1, 2, 0), spec)
        for b, m in enumerate(mats):
            for got, e in ((one, grids[0]), (each, grids[b])):
                et = [list(c) for c in zip(*e)]
                want = matmul(matmul(e, [list(r) for r in m.rows], spec), et, spec)
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


# -- fault injection: each batched GF(4) path reports a wrong component ------------

def _parse(failure, pattern):
    """The literal fields of a failure string that fully matches pattern."""
    match = re.fullmatch(pattern, failure)
    assert match, failure
    return [ast.literal_eval(group) for group in match.groups()]


def _det(m, labels):
    return m.principal_submatrix(labels).determinant()


def test_gf4_schur_batch_reports_a_wrong_complement(monkeypatch):
    orig = eng.schur_entries
    monkeypatch.setattr(eng, "schur_entries", lambda ent, alpha, spec: orig(ent, alpha, spec) ^ 1)
    result = verify._check_schur_identity([], [], np.random.default_rng(3), 100)
    assert 0 < len(result.failures) <= 20 and result.cases > 0
    for failure in result.failures:
        rows, alpha, gamma = _parse(
            failure, r"gf4 schur SymMatrix\(gf4, (\[.*\])\) alpha=(\(.*\)) gamma=(\(.*\))"
        )
        b = SymMatrix(GF4, rows)
        c = SymMatrix(GF4, [[x ^ 1 for x in row] for row in b.schur_complement(alpha).rows])
        labels = [i for i in range(1, b.n + 1) if i not in alpha]
        union = sorted(alpha + tuple(labels[g - 1] for g in gamma))
        left = GF4.mul(_det(c, gamma), _det(b, alpha))
        assert left != _det(b, union) or c.rank() != b.rank() - len(alpha)


def test_gf4_hyperdet_batch_reports_a_wrong_minor_table(monkeypatch):
    orig = eng.minor_tables
    monkeypatch.setattr(eng, "minor_tables", lambda ent, spec: orig(ent, spec) ^ 1)
    result = verify._check_hyperdet([], np.random.default_rng(4), 100)
    assert 0 < len(result.failures) <= 20 and result.cases == 100
    for failure in result.failures:
        rows, tau, base = _parse(
            failure, r"gf4 hyperdet SymMatrix\(gf4, (\[.*\])\) tau=(\(.*\)) I=(\(.*\))"
        )
        b = SymMatrix(GF4, rows)

        def sq(extra):  # the squared minor the faulty table gives
            d = _det(b, [x + 1 for x in sorted(base + extra)]) ^ 1
            return GF4.mul(d, d)

        i, j, k = tau
        total = 0
        for x, y in (((), (i, j, k)), ((i,), (j, k)), ((j,), (i, k)), ((k,), (i, j))):
            total ^= GF4.mul(sq(x), sq(y))
        assert total != 0


def test_gf4_append_batch_reports_a_wrong_appended_index(monkeypatch):
    orig = eng.gather_entries

    def copy_index_0(ent, idx):  # the appended zero index becomes a copy of index 0
        return orig(ent, tuple(i % ent.shape[0] for i in idx))

    monkeypatch.setattr(eng, "gather_entries", copy_index_0)
    result = verify._check_append_transforms(0, np.random.default_rng(5), 100)
    assert 0 < len(result.failures) <= 20 and result.cases == 200
    for failure in result.failures:
        (rows,) = _parse(failure, r"gf4 append-zero SymMatrix\(gf4, (\[.*\])\)")
        b = SymMatrix(GF4, rows)
        idx = [i % b.n for i in range(b.n + 1)]
        faulty = SymMatrix(GF4, [[b.rows[i][j] for j in idx] for i in idx])
        damp = "".join("N" if ch == "N" else "S" for ch in compute_epr(b))
        assert compute_epr(faulty) != damp + "N" and compute_epr(b.append_zero()) == damp + "N"


def test_gf4_congruence_batch_reports_a_wrong_congruence(monkeypatch):
    orig = eng.congruence_entries
    monkeypatch.setattr(eng, "congruence_entries", lambda ent, e, spec: orig(ent, e, spec) * 0)
    result = verify._check_congruence(1, np.random.default_rng(6), 100)
    assert 0 < len(result.failures) <= 20 and result.cases == 100
    for failure in result.failures:
        rows, e = _parse(failure, r"gf4 congruence SymMatrix\(gf4, (\[.*\])\) E=(\[.*\])")
        assert "1" in compute_pr(SymMatrix(GF4, rows)).bits  # the zero matrix's pr word differs
        assert laplace_det(e, GF4) != 0


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
