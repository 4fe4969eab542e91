import ast
import random
import re
import tracemalloc
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product

import numpy as np
import pytest

from eprseq import (
    GF2,
    GF4,
    BoundExceededError,
    SingularMatrixError,
    SymMatrix,
    accepted_pr_sequences,
    attained_pr_sequences,
    compare_with_classifier,
    complement_labels,
    compute_epr,
    compute_pr,
    enumerate_epr,
    field_make,
    rule_violations,
    theorem_suite,
)
from eprseq import _engine as eng
from eprseq import _suite as suite
from eprseq import _sweep as sw
from eprseq import verify
from eprseq._engine import minor_tables
from oracles import (
    all_symmetric_gf2,
    alternating_rank_count,
    catalog_count_failures,
    laplace_det,
    matmul,
    naive_epr,
    subgrid,
    symmetric_rank_count,
)

GF8, GF16, GF256 = field_make(3), field_make(4), field_make(8)


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


def _assert_partition_independent(monkeypatch, cases, chunkings):
    """The catalog of each (spec, n) gives the counts and first-attaining codes of
    the default runs, for every run size."""
    default = sw._CHUNK_BITS
    for spec, n in cases:
        want = sw._catalog(n, spec)
        block = 1 << (spec.degree * n)
        sizes = {
            "default": default,
            "one block": block,
            "three blocks": 3 * block,
            "whole range": 1 << (spec.degree * sw.tri(n)),
        }
        for chunking in chunkings:
            monkeypatch.setattr(sw, "_CHUNK_BITS", sizes[chunking])
            got = verify._catalog_raw.__wrapped__(n, spec)  # past the cache
            assert got == want, (spec.name, n, chunking)


def test_enumerate_jobs_independent(monkeypatch):
    """The catalog does not depend on the sweep run size: the default, one
    orbit rep's borders, three reps', or every rep of an orbit size at once."""
    small = [(GF2, n) for n in range(1, 6)] + [(GF4, n) for n in range(1, 4)]
    _assert_partition_independent(
        monkeypatch, small, ("default", "one block", "three blocks", "whole range")
    )
    _assert_partition_independent(monkeypatch, [(GF2, 6), (GF4, 4)], ("default", "whole range"))


@pytest.mark.slow
def test_enumerate_jobs_independent_at_small_chunks(monkeypatch):
    """GF(2) n = 6 and GF(4) n = 4 in runs of one and of three orbit reps
    (544 and 816 runs of one rep)."""
    _assert_partition_independent(monkeypatch, [(GF2, 6), (GF4, 4)], ("one block", "three blocks"))


def _every_code_catalog(n, spec):
    """Counts and first-attaining codes of every word at order n, read off each
    code's own numpy minor table, in runs of 2^16 codes."""
    total = 1 << (spec.degree * sw.tri(n))
    counts, first = {}, {}
    for lo in range(0, total, 1 << 16):
        keys = _table_keys(np.arange(lo, min(lo + (1 << 16), total)), n, spec)
        cnt = np.bincount(keys)
        for key in np.flatnonzero(cnt).tolist():
            word = _key_word(key, n)
            counts[word] = counts.get(word, 0) + int(cnt[key])
            first.setdefault(word, lo + int(np.argmax(keys == key)))
    return counts, first


def _every_block_catalog(n, spec):
    """The catalog the bit-sliced sweep gives over every trailing block, each
    standing for itself alone (orbit size 1), in ascending runs."""
    blocks = range(1 << (spec.degree * sw.tri(n - 1)))
    step = max(1, sw._CHUNK_BITS >> (spec.degree * n))
    seen = set()
    runs = (sw._sweep(blocks[lo : lo + step], 1, n, spec, seen) for lo in range(0, len(blocks), step))
    return sw._merge_chunks(runs)


def test_orbit_catalog_matches_every_code_sweep():
    """Orbit-weighted counts and exemplars equal the histogram and first codes
    of the per-code numpy tables, and those of the sweep over every block."""
    cases = [(GF2, n) for n in range(1, 7)] + [(GF4, n) for n in range(1, 5)]
    for spec, n in cases + [(GF8, n) for n in range(1, 4)]:
        want = _every_code_catalog(n, spec)
        assert sw._catalog(n, spec) == want, (spec.name, n)
        assert _every_block_catalog(n, spec) == want, (spec.name, n)


@pytest.mark.slow
def test_gated_orbit_catalogs_match_every_code_sweep():
    """GF(2) n = 7 and GF(4) n = 5 against the sweep of all 2^28 and 2^30 codes
    (about half a minute)."""
    for spec, n in ((GF2, 7), (GF4, 5)):
        assert sw._catalog(n, spec) == _every_block_catalog(n, spec), (spec.name, n)


def _burnside_orbits(k, q):
    """Number of S_k orbits of symmetric order-k matrices with q entry values:
    the mean over permutations of q^(cycles on the entry positions {i, j})."""
    from itertools import permutations
    from math import factorial

    total = 0
    for perm in permutations(range(k)):
        seen, cycles = set(), 0
        for pos in combinations_with_replacement(range(k), 2):
            if pos in seen:
                continue
            cycles += 1
            while pos not in seen:
                seen.add(pos)
                pos = tuple(sorted((perm[pos[0]], perm[pos[1]])))
        total += q**cycles
    return total // factorial(k)


def test_orbit_reps_counts():
    # OEIS A000666, graphs with loops on k nodes
    assert [len(sw.orbit_reps(k)[0]) for k in range(7)] == [1, 2, 6, 20, 90, 544, 5096]
    for spec, top in ((GF2, 6), (GF4, 4), (GF8, 3)):
        for k in range(top + 1):
            reps, sizes = sw.orbit_reps(k, spec)
            assert sum(sizes) == spec.order ** sw.tri(k)
            assert list(reps) == sorted(set(reps))
            assert len(reps) == _burnside_orbits(k, spec.order), (spec.name, k)


def _least_images(k, spec):
    """Least image of every code of order k under B -> P B P^T, over every P
    (numpy brute force)."""
    codes = np.arange(spec.order ** sw.tri(k), dtype=np.int64)
    ent = eng.decode_entries(codes, k, spec).astype(np.int64)
    pairs = list(combinations_with_replacement(range(k), 2))
    least = codes
    for p in permutations(range(k)):
        image = sum(ent[p[i], p[j]] << (spec.degree * f) for f, (i, j) in enumerate(pairs))
        least = np.minimum(least, image)
    return least


def test_orbit_reps_are_least_codes():
    """Brute force: each code's least image over every permutation, and how many
    codes share it, give the reps and orbit sizes."""
    for spec, top in ((GF2, 5), (GF4, 4), (GF8, 3)):
        for k in range(top + 1):
            reps, sizes = np.unique(_least_images(k, spec), return_counts=True)
            assert sw.orbit_reps(k, spec) == (tuple(reps.tolist()), tuple(sizes.tolist())), (spec.name, k)


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
        enumerate_epr(4, GF8)  # gated without force
    with pytest.raises(BoundExceededError):
        enumerate_epr(5, GF8, force=True)
    with pytest.raises(BoundExceededError):
        enumerate_epr(0)


@pytest.mark.parametrize("verb", [enumerate_epr, compare_with_classifier])
def test_catalog_verbs_take_numpy_integers_and_refuse_other_orders(verb):
    assert verb(np.int64(3)).to_text() == verb(np.uint8(3)).to_text() == verb(3).to_text()
    for n in (2.5, "3", None):
        with pytest.raises(TypeError) as info:
            verb(n)
        assert str(info.value) == f"n must be an int, got {n!r}"


# the rules of classify.py that hold over every field of characteristic 2
_ANY_FIELD_RULES = {
    "NN-theorem", "NSA-prohibition", "ASN-A-prohibition", "terminal-S",
    "NA-NS-parity", "N-even", "nonN-start-N-tail",
}


def _any_field_words(n):
    """The order-n words that break none of the any-field rules."""
    words = ("".join(w) for w in product("NSA", repeat=n))
    return {w for w in words if not _ANY_FIELD_RULES & {hit.rule for hit in rule_violations(w)}}


def test_small_catalogs_are_the_any_field_rule_words():
    """Over GF(4) up to n = 4 and GF(8) up to n = 3 the seven any-field rules
    are the only restrictions: every word they allow is attained."""
    for spec, top in ((GF4, 4), (GF8, 3)):
        for n in range(1, top + 1):
            catalog = enumerate_epr(n, spec)
            assert catalog.total() == spec.order ** sw.tri(n)
            assert set(catalog.counts) == _any_field_words(n), (spec.name, n)


@pytest.mark.slow
def test_gated_gf8_order_4_catalog_is_the_any_field_rule_words():
    """The gated GF(8) n = 4 catalog (2^30 matrices, several seconds)."""
    catalog = enumerate_epr(4, GF8, force=True)
    assert catalog.total() == 8 ** 10
    assert set(catalog.counts) == _any_field_words(4)


def test_closed_form_rank_counts_partition_the_matrices():
    for q in (2, 4, 8):
        for n in range(6):
            symmetric = [symmetric_rank_count(n, r, q) for r in range(n + 1)]
            alternating = [alternating_rank_count(n, r, q) for r in range(n + 1)]
            assert all(c.denominator == 1 for c in symmetric + alternating), (q, n)
            assert sum(symmetric) == q ** sw.tri(n) and sum(alternating) == q ** sw.tri(n - 1)
    assert [symmetric_rank_count(2, r, 2) for r in range(3)] == [1, 3, 4]  # by hand
    assert [alternating_rank_count(2, r, 2) for r in range(3)] == [1, 0, 1]


@pytest.mark.parametrize("spec, top", [(GF2, 6), (GF4, 4), (GF8, 3)], ids=["gf2", "gf4", "gf8"])
def test_catalog_counts_meet_the_closed_forms(spec, top):
    """Rank sums, alternating rank sums and Jacobi's inverse symmetry of every
    open catalog of the field."""
    for n in range(1, top + 1):
        assert catalog_count_failures(enumerate_epr(n, spec).counts, n, spec.order) == [], (spec.name, n)


@pytest.mark.parametrize("spec, n, moved, to, broken", [
    (GF2, 6, "SSSNNN", "SSNNNN", "rank"),
    (GF2, 6, "SSSSSA", "SSSSAA", "inverse"),
    (GF4, 4, "NSNN", "SSNN", "alternating"),
])
def test_each_closed_form_catches_one_moved_matrix(spec, n, moved, to, broken):
    counts = dict(enumerate_epr(n, spec).counts)
    counts[moved] -= 1
    counts[to] = counts.get(to, 0) + 1
    assert catalog_count_failures(counts, n, spec.order) == [broken]


@pytest.mark.slow
def test_gated_catalog_counts_meet_the_closed_forms():
    """The same three facts on GF(2) n = 7, GF(4) n = 5 and GF(8) n = 4."""
    for spec, n in ((GF2, 7), (GF4, 5), (GF8, 4)):
        catalog = enumerate_epr(n, spec, force=True)
        assert catalog_count_failures(catalog.counts, n, spec.order) == [], (spec.name, n)


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


# -- the numpy tables and the catalog sweep against SymMatrix and the Laplace oracle --

def test_engine_det_table_matches_library():
    rng = random.Random(11)
    for n in range(1, 7):
        table = eng.det_table(n)
        codes = [rng.randrange(1 << (n * (n + 1) // 2)) for _ in range(200)]
        for code in codes:
            m = sw.code_matrix(code, n)
            assert int(table[code]) == m.determinant()


def test_engine_letters_match_library():
    # letter_arrays reads numpy minor_tables, not compute_epr's minor_planes: the
    # Laplace oracle checks it on its own
    rng = random.Random(12)
    for n in range(1, 7):
        letters = eng.letter_arrays(n)
        for _ in range(60):
            code = rng.randrange(1 << (n * (n + 1) // 2))
            m = sw.code_matrix(code, n)
            got = "".join("NSA"[letters[k][code]] for k in range(n))
            assert got == naive_epr(m)


def _kernel_words(blocks, n, spec=GF2):
    """{code: epr word} of every matrix bordering the trailing blocks (one run),
    read bit by bit off the kernel's letter planes."""
    shift = spec.degree * n
    width = len(blocks) << shift
    some, every = ([format(p, f"0{width}b")[::-1] for p in planes] for planes in sw._letter_planes(blocks, n, spec))
    words = {}
    for pos in range(width):
        r, i = divmod(pos, len(blocks))
        words[blocks[i] << shift | r] = "".join("NSA"[int(some[k][pos]) + int(every[k][pos])] for k in range(1, n + 1))
    return words


def _sweep_words(codes, n, spec=GF2):
    """epr words of single codes, each read off the sweep of its trailing block."""
    shift = spec.degree * n
    return [_kernel_words([code >> shift], n, spec)[code] for code in codes]


def test_sweep_letters_gf4_sampled():
    rng = random.Random(16)
    for n in range(1, 5):
        codes = sorted(rng.randrange(1 << (n * (n + 1))) for _ in range(40))
        for code, got in zip(codes, _sweep_words(codes, n, GF4)):
            assert got == naive_epr(sw.code_matrix(code, n, GF4))


def _table_keys(codes, n, spec):
    """Letter keys read off each code's own full minor table, one order at a time."""
    dets = minor_tables(eng.decode_entries(codes, n, spec), spec)
    keys = np.zeros(codes.size, np.intp)
    for k in range(1, n + 1):
        minors = dets[[m for m in range(1 << n) if m.bit_count() == k]] != 0
        keys |= (minors.any(axis=0).astype(np.intp) + minors.all(axis=0)) << (2 * k - 2)
    return keys


def _key_word(key, n):
    """The epr word of a letter key: letter k + 1 is bits 2k, 2k + 1 (0=N, 1=S, 2=A)."""
    return "".join("NSA"[key >> 2 * k & 3] for k in range(n))


def test_sweep_matches_per_code_tables_exhaustive():
    """The kernel's word of every code, its trailing blocks swept in runs of
    three, against the letters of each code's own numpy minor table."""
    # GF(8) twice: x^3 = x + 1 under the default modulus, x^3 = x^2 + 1 under 0b1101
    for spec, top in ((GF2, 5), (GF4, 3), (GF8, 2), (field_make(3, 0b1101), 2)):
        for n in range(1, top + 1):
            codes = np.arange(1 << (spec.degree * sw.tri(n)))
            want = [_key_word(key, n) for key in _table_keys(codes, n, spec).tolist()]
            blocks = range(1 << (spec.degree * sw.tri(n - 1)))
            got = {}
            for lo in range(0, len(blocks), 3):
                got.update(_kernel_words(blocks[lo : lo + 3], n, spec))
            assert [got[code] for code in range(codes.size)] == want, (spec.name, n)


def test_sweep_whole_blocks_match_laplace():
    """Every matrix bordering sampled blocks (two at once at GF(2) n = 7)."""
    rng = random.Random(19)
    for spec, n, count in ((GF2, 7, 2), (GF4, 1, 1), (GF4, 2, 1), (GF4, 3, 1), (GF4, 4, 1), (GF4, 5, 1)):
        blocks = [rng.randrange(1 << (spec.degree * sw.tri(n - 1))) for _ in range(count)]
        for code, word in _kernel_words(blocks, n, spec).items():
            assert word == naive_epr(sw.code_matrix(code, n, spec))


def test_engine_rank_matches_library():
    rng = random.Random(14)
    for n in range(1, 7):
        ranks = eng.rank_array(n)
        for _ in range(60):
            code = rng.randrange(1 << (n * (n + 1) // 2))
            m = sw.code_matrix(code, n)
            assert int(ranks[code]) == m.rank()


def test_sweep_letters_order_7_sampled():
    # the gated n=7 path has no full det table; spot-check its letters
    rng = random.Random(15)
    codes = sorted(rng.randrange(1 << 28) for _ in range(40))
    for code, got in zip(codes, _sweep_words(codes, 7)):
        assert got == naive_epr(sw.code_matrix(code, 7))


# -- code layout and sampled entry batches ------------------------------------------

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
            for code in rng.sample(range(codes.size), min(codes.size, 100)):
                assert sw.code_matrix(code, n, spec).rows == _grid(ent, code)
    # row-major upper triangle, as the independent enumeration in oracles lays it out
    for n in range(1, 5):
        for code, m in enumerate(all_symmetric_gf2(n)):
            assert sw.code_matrix(code, n) == m


def _sampled_batches(seed, fields=(GF4, GF8, GF16, GF256), orders=range(1, 6), batch=60):
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


def test_letter_arrays_refuse_order_7():
    with pytest.raises(ValueError, match=r"^letter arrays are built up to order 6$"):
        eng.letter_arrays(7)


# -- the suite's bit-sliced tables against eprseq._engine, its code maps against the library --

def _planes(ent, spec):
    """Entry planes of an (n, m, B) entry batch: bit b of grid[i][j][t] is bit t
    of entry (i, j) of matrix b."""
    n, m, _ = ent.shape
    return [[sw._transpose(ent[i, j].tolist(), spec.degree) for j in range(m)] for i in range(n)]


def _bits(mask, width):
    """The low width bits of mask as a (width,) 0/1 array."""
    raw = np.frombuffer((mask & ((1 << width) - 1)).to_bytes(-(-width // 8), "little"), np.uint8)
    return np.unpackbits(raw, bitorder="little")[:width]


def _values(planes, width):
    """The (width,) values of one entry's planes."""
    return sum((_bits(p, width) << t for t, p in enumerate(planes)), np.zeros(width, np.uint8))


def _entries(grid, width):
    """The (n, m, width) entry batch of a grid of entry planes."""
    out = np.zeros((len(grid), len(grid[0]) if grid else 0, width), np.uint8)
    for i, row in enumerate(grid):
        for j, planes in enumerate(row):
            out[i, j] = _values(planes, width)
    return out


def _matrices(grid, width):
    """The width matrices of a grid of entry planes, each a tuple of rows."""
    ent = _entries(grid, width)
    return [_grid(ent, b) for b in range(width)]


def _plane_batches(seed):
    """(spec, the B matrices, their (n, n, B) entries, planes, mask of the B matrices)
    of every GF(2) matrix of order 1..4 in code order, seeded GF(4), GF(8), GF(16)
    and GF(256) samples of order 1..5, and empty batches of order 1..4."""
    batches = [(GF2, list(all_symmetric_gf2(n)), eng.decode_entries(np.arange(1 << sw.tri(n)), n)) for n in range(1, 5)]
    batches += _sampled_batches(seed)
    batches += [(spec, [], np.zeros((n, n, 0), np.uint8)) for spec in (GF2, GF4, GF8) for n in range(1, 5)]
    for spec, mats, ent in batches:
        yield spec, mats, ent, _planes(ent, spec), (1 << ent.shape[2]) - 1


def test_plane_batches_match_engine():
    """A batch's bit-sliced minor table, letters and ranks equal the engine's."""
    for spec, _, ent, grid, ones in _plane_batches(24):
        n, width = ent.shape[0], ent.shape[2]
        b = suite._batch(grid, ones, spec)
        dets = eng.minor_tables(ent, spec)
        assert np.array_equal([_values(det, width) for det in b.dets], dets), (spec.name, n)
        letters = eng.table_letters(dets)
        got = [_bits(b.some[k], width) + _bits(b.every[k], width) for k in range(1, n + 1)]
        assert np.array_equal(np.reshape(got, letters.shape), letters), (spec.name, n)
        ranks = eng.ranks(letters)
        assert np.array_equal([_bits(b.rank[r], width) for r in range(n + 1)], [ranks == r for r in range(n + 1)])


def test_gather_codes_match_library_exhaustive():
    """Every principal submatrix, both appended indices and the reversed order."""
    for spec, mats, ent, grid, _ in _plane_batches(25):
        n, width = ent.shape[0], ent.shape[2]

        def gathered(idx):
            return _matrices(suite._gather(grid, idx, spec), width)

        assert gathered(()) == [()] * width
        for k in range(1, n + 1):
            for alpha in combinations(range(n), k):
                labels = tuple(a + 1 for a in alpha)
                assert gathered(alpha) == [m.principal_submatrix(labels).rows for m in mats], (spec.name, alpha)
        assert gathered((*range(n), n)) == [m.append_zero().rows for m in mats], spec.name
        assert gathered((*range(n), n - 1)) == [m.append_duplicate_last().rows for m in mats], spec.name
        back = range(n - 1, -1, -1)
        assert gathered(tuple(back)) == [tuple(tuple(m.rows[i][j] for j in back) for i in back) for m in mats]


def _congruent(e, m):
    """E B E^T by the oracle's products, as a tuple of rows."""
    et = [list(col) for col in zip(*e)]
    return tuple(map(tuple, matmul(matmul(e, m.rows, m.spec), et, m.spec)))


def _square_entries(code, n, spec):
    """Rows of the n x n matrix whose code holds entry (i, j) at bit q (i n + j) up."""
    q = spec.degree
    values = [code >> q * p & (1 << q) - 1 for p in range(n * n)]
    return [values[i * n : i * n + n] for i in range(n)]


def test_congruence_entries_match_matmul_exhaustive():
    """One E for the whole batch, as planes of all-ones and zero masks, and one E per
    matrix, as the planes suite._square decodes; each E from the suite's batched draw."""
    rng = random.Random(26)
    for spec, mats, ent, grid, ones in _plane_batches(26):
        n, width, q = ent.shape[0], ent.shape[2], spec.degree
        e = _square_entries(suite._invertible_codes(rng, [n], spec)[0], n, spec)
        fixed = [[[ones if x >> t & 1 else 0 for t in range(q)] for x in row] for row in e]
        got = _matrices(suite._congruence(grid, fixed, spec), width)
        assert got == [_congruent(e, m) for m in mats], (spec.name, n)
        codes = suite._invertible_codes(rng, [n] * width, spec)
        got = _matrices(suite._congruence(grid, suite._square(codes, n, spec), spec), width)
        want = [_congruent(_square_entries(code, n, spec), m) for code, m in zip(codes, mats)]
        assert got == want, (spec.name, n)


@pytest.mark.parametrize("spec", [GF2, GF4, GF8], ids=lambda spec: spec.name)
def test_invertible_codes_are_invertible_and_seeded(spec):
    """Every E the batched draw returns is invertible, for orders 1..4 drawn in
    any mix, and prints as the rows it codes; one seed gives one draw; and
    order 1 reaches every nonzero entry, order 2 over GF(2) every one of its
    six invertible matrices."""
    orders = [n for n in range(1, 5) for _ in range(60)]
    random.Random(7).shuffle(orders)
    codes = suite._invertible_codes(random.Random(31), orders, spec)
    assert codes == suite._invertible_codes(random.Random(31), orders, spec)
    for n, code in zip(orders, codes):
        assert 0 <= code < 1 << spec.degree * n * n
        assert suite._square_rows(code, n, spec) == _square_entries(code, n, spec)  # the rows failures print
        assert laplace_det(_square_entries(code, n, spec), spec) != 0, (n, code)
    assert {code for n, code in zip(orders, codes) if n == 1} == set(range(1, spec.order))
    if spec is GF2:
        assert {code for n, code in zip(orders, codes) if n == 2} == {6, 9, 7, 11, 13, 14}


def test_reduce_rows_gives_every_principal_minor():
    """The elimination's determinant is det B[alpha] for every pivot set alpha,
    taken in either order, singular pivot blocks included."""
    for spec, mats, ent, grid, ones in _plane_batches(30):
        n, width = ent.shape[0], ent.shape[2]
        for k in range(n + 1):
            for alpha in combinations(range(n), k):
                want = [_det(m, tuple(a + 1 for a in alpha)) for m in mats]
                for pivots in (alpha, alpha[::-1]):
                    det = suite._reduce_rows([row[:] for row in grid], pivots, ones, spec)
                    assert _values(det, width).tolist() == want, (spec.name, n, pivots)


def test_gf2_inverse_matches_library_exhaustive():
    """The inverse of every nonsingular matrix."""
    for spec, mats, ent, grid, ones in _plane_batches(27):
        got = _matrices(suite._inverse(grid, ones, spec), ent.shape[2])
        dets = [m.determinant() for m in mats]
        assert [x for x, d in zip(got, dets) if d] == [m.inverse().rows for m, d in zip(mats, dets) if d], spec.name


def _schur_rows(m, labels):
    """The rows of m / m[labels], or None where the pivot block is singular."""
    try:
        return m.schur_complement(labels).rows
    except SingularMatrixError:
        return None


def test_schur_matches_library():
    """Every pivot set of every matrix whose pivot block is nonsingular."""
    for spec, mats, ent, grid, ones in _plane_batches(28):
        n, width = ent.shape[0], ent.shape[2]
        for k in range(1, n):
            for alpha in combinations(range(n), k):
                labels = tuple(a + 1 for a in alpha)
                got = _matrices(suite._schur(grid, alpha, ones, spec), width)
                want = [_schur_rows(m, labels) for m in mats]
                assert [x for x, w in zip(got, want) if w] == [w for w in want if w], (spec.name, n, alpha)


def test_deleted_minors_match_laplace_exhaustive():
    for spec, mats, ent, grid, ones in _plane_batches(29):
        n, width = ent.shape[0], ent.shape[2]
        minors = suite._deleted_minors(grid, ones, spec)
        for i, j in product(range(n), repeat=2):
            rows, cols = [r for r in range(n) if r != i], [c for c in range(n) if c != j]
            want = [laplace_det(subgrid(m, rows, cols), spec) for m in mats]
            assert _values(minors[i][j], width).tolist() == want, (spec.name, n, i, j)


def _empty_shape(grid, q):
    """(rows, columns) of a grid of entry planes of an empty batch: q planes per entry, each 0."""
    assert all(list(planes) == [0] * q for row in grid for planes in row)
    return len(grid), len(grid[0]) if grid else 0


def test_kernels_take_an_empty_batch():
    """Each kernel maps an (n, n, 0) batch to an empty batch of its image's shape:
    the engine's tables as arrays, the suite's batch and code maps as grids of planes."""
    for spec in (GF2, GF4, GF8):
        q = spec.degree
        for n in range(1, 5):
            ent = np.zeros((n, n, 0), np.uint8)
            dets = eng.minor_tables(ent, spec)
            letters = eng.table_letters(dets)
            shapes = [a.shape for a in (dets, letters, eng.ranks(letters))]
            assert shapes == [(1 << n, 0), (n, 0), (0,)], (spec.name, n)
            grid = _planes(ent, spec)
            b = suite._batch(grid, 0, spec)
            assert not any(b.nonzero + b.some + b.every + b.rank) and len(b.rank) == n + 1
            e = [[[0] * q for _ in range(n)] for _ in range(n)]  # any E's planes, over no matrices
            images = [
                [b.dets],
                [[suite._reduce_rows([row[:] for row in grid], range(n), 0, spec)]],
                suite._inverse(grid, 0, spec),
                suite._deleted_minors(grid, 0, spec),
                suite._schur(grid, (0,), 0, spec),
                suite._congruence(grid, e, spec),
                suite._gather(grid, (*range(n), n), spec),
            ]
            want = [(1, 1 << n), (1, 1), (n, n), (n, n), (n - 1, n - 1), (n, n), (n + 1, n + 1)]
            assert [_empty_shape(image, q) for image in images] == want, (spec.name, n)


# -- theorem suite ----------------------------------------------------------------

def test_theorem_suite_reduced_bounds():
    report = theorem_suite(max_n=3, gf4_cases=120)
    assert len(report.checks) == 16
    assert report.ok, report.to_text()
    assert report.seed is not None


def _traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes of the allocations tracemalloc traces while fn runs."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_theorem_suite_peak_memory():
    """The default suite holds one bit-sliced batch at a time (one order's orbit
    reps, up to 2^15 of its codes, or one group of drawn GF(4) cases) with the
    images of its code maps: 1.3 MiB at most, the cached orbit reps and word
    catalogs of a fresh process included, 0.7 MiB once they are cached."""
    verify._catalog_raw.cache_clear()  # the suite's word catalogs count too
    assert _traced_peak(theorem_suite) <= 2 * 2**20


def test_catalog_peak_memory():
    """The GF(2) n = 6 sweep holds one run of its reps (at most 2^20 bordered matrices) at a time."""
    assert _traced_peak(eng.catalog_gf2, 6) <= 4 * 2**20


@pytest.mark.parametrize("kwargs, message", [
    ({"max_n": 1}, "max_n must be in [2, 5], got 1"),
    ({"seed": -1}, "seed must be >= 0, got -1"),
])
def test_theorem_suite_refuses_arguments_out_of_range(kwargs, message):
    with pytest.raises(ValueError) as info:
        theorem_suite(**kwargs)
    assert str(info.value) == message


@pytest.mark.parametrize("kwargs, message", [
    ({"seed": 1.5}, "seed must be an int, got 1.5"),
    ({"max_n": 2.5}, "max_n must be an int, got 2.5"),
    ({"gf4_cases": 10.5}, "gf4_cases must be an int, got 10.5"),
    ({"seed": "3"}, "seed must be an int, got '3'"),
])
def test_theorem_suite_refuses_arguments_that_are_not_ints(kwargs, message):
    with pytest.raises(TypeError) as info:
        theorem_suite(**kwargs)
    assert str(info.value) == message


def test_theorem_suite_takes_numpy_integers_as_ints():
    plain = theorem_suite(max_n=2, gf4_cases=20, seed=2**63 + 3)
    wrapped = theorem_suite(max_n=np.int64(2), gf4_cases=np.uint8(20), seed=np.uint64(2**63 + 3))
    assert wrapped.to_text() == plain.to_text() and type(wrapped.seed) is int


def test_theorem_suite_reproducible():
    a = theorem_suite(max_n=2, gf4_cases=60, seed=5)
    b = theorem_suite(max_n=2, gf4_cases=60, seed=5)
    assert a.to_text() == b.to_text()


def test_gf2_halves_count_the_same_cases_for_every_seed():
    """The seed reaches the GF(2) halves only through the drawn congruence
    grids, and every grid checks every code once, so without GF(4) cases the
    report is the same for any seed; a golden can move only where a GF(4) half
    skips a draw (the Schur half, on a matrix with no nonzero proper pivot)."""
    first, *rest = (theorem_suite(max_n=4, gf4_cases=0, seed=seed) for seed in (0, 3, 1729))
    assert all(report.checks == first.checks for report in rest)
    assert all(check.ok for check in first.checks)


def test_suite_report_format():
    report = theorem_suite(max_n=2, gf4_cases=30)
    lines = report.to_text().splitlines()
    assert len(lines) >= 16
    name, cases, failures = lines[0].split()
    assert int(cases) > 0 and failures == "0"


def test_suite_report_lists_each_failure_after_the_counts():
    report = verify.SuiteReport([
        verify.CheckResult("schur", 4, ("case 1", "case 3")),
        verify.CheckResult("append", 2),
    ])
    assert not report.ok
    assert report.to_text() == "schur 4 2\nappend 2 0\nFAIL schur: case 1\nFAIL schur: case 3\n"


def test_per_orbit_halves_hold_over_gf4_and_gf8():
    """The six per-orbit halves read the field off the batch, so they run over
    GF(2^k) unchanged: none fails over every GF(4) matrix of order <= 3 and
    every GF(8) matrix of order <= 2.  This covers only those orders, one batch
    of every code per order."""
    per_orbit = suite._gf2_halves(random.Random(0), 2)[1]
    for spec, max_n in ((GF4, 3), (GF8, 2)):
        names = set()
        for n in range(1, max_n + 1):
            b = suite._code_batch(range(spec.order ** sw.tri(n)), n, spec)
            for half in per_orbit:
                for name, cols, _, bad, suffix in half(b):
                    names.add(name)
                    assert cols and not bad & cols, (spec.name, n, name, suffix)
        assert len(names) == {GF4: 7, GF8: 6}[spec], names  # no hyperdeterminantal case below order 3


# -- fault injection: each batched GF(4) path reports a wrong component ------------

def _flip_planes(grid, ones):
    """A grid of entry planes with every entry plus 1 (bit 0 flipped)."""
    return [[[p[0] ^ ones, *p[1:]] for p in row] for row in grid]


def _flip_schur(monkeypatch):
    """Make suite._schur add 1 to every entry of each complement it returns."""
    orig = suite._schur

    def flipped(ent, alpha, ones, spec):
        return _flip_planes(orig(ent, alpha, ones, spec), ones)

    monkeypatch.setattr(suite, "_schur", flipped)


def _parse(failure, pattern):
    """The literal fields of a failure string that fully matches pattern."""
    match = re.fullmatch(pattern, failure)
    assert match, failure
    return [ast.literal_eval(group) for group in match.groups()]


def _det(m, labels):
    return m.principal_submatrix(labels).determinant()


def test_gf4_schur_batch_reports_a_wrong_complement(monkeypatch):
    _flip_schur(monkeypatch)
    result = verify.CheckResult("schur", *suite._schur_gf4(random.Random(3), 100))
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


def test_gf4_schur_check_reports_a_complement_of_the_wrong_rank():
    # B = I_3, alpha = {1}: the true complement is I_2.  The fake one keeps the drawn
    # minor (gamma = {1}: det C[gamma] det B[alpha] = 1 = det B[{1, 2}]) but has rank 1.
    b = suite._batch(_planes(np.eye(3, dtype=np.uint8)[:, :, None], GF4), 1, GF4)
    for c, wrong in ((np.eye(2, dtype=np.uint8), False), (np.diag([1, 0]).astype(np.uint8), True)):
        c = suite._batch(_planes(c[:, :, None], GF4), 1, GF4)
        assert suite._schur_bad(b, (0,), c, [(1, 1)]) & 1 == wrong  # gamma: row 1 for matrix 0


def test_gf4_hyperdet_batch_reports_a_wrong_minor_table(monkeypatch):
    orig = suite._minor_table

    def flipped(grid, ones, spec):  # every minor plus 1
        return [[det[0] ^ ones, *det[1:]] for det in orig(grid, ones, spec)]

    monkeypatch.setattr(suite, "_minor_table", flipped)
    result = verify.CheckResult("hyperdet", *suite._hyperdet_gf4(random.Random(4), 100))
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


def _copy_index_0(monkeypatch):
    """Make suite._gather turn the appended zero index into a copy of index 0."""
    orig = suite._gather

    def copy_index_0(ent, idx, spec):
        return orig(ent, tuple(i % len(ent) for i in idx), spec)

    monkeypatch.setattr(suite, "_gather", copy_index_0)


def _assert_copy_breaks_append_zero(b):
    idx = [i % b.n for i in range(b.n + 1)]
    faulty = SymMatrix(b.spec, [[b.rows[i][j] for j in idx] for i in idx])
    damp = "".join("N" if ch == "N" else "S" for ch in compute_epr(b))
    assert compute_epr(faulty) != damp + "N" and compute_epr(b.append_zero()) == damp + "N"


def test_gf4_append_batch_reports_a_wrong_appended_index(monkeypatch):
    _copy_index_0(monkeypatch)
    result = verify.CheckResult("append", *suite._append_gf4(random.Random(5), 100))
    assert 0 < len(result.failures) <= 20 and result.cases == 200
    for failure in result.failures:
        (rows,) = _parse(failure, r"gf4 append-zero SymMatrix\(gf4, (\[.*\])\)")
        _assert_copy_breaks_append_zero(SymMatrix(GF4, rows))


def _zero_congruence(monkeypatch):
    """Make suite._congruence return the zero matrix for every congruence."""
    monkeypatch.setattr(suite, "_congruence", lambda ent, e, spec: [[[0] * spec.degree for _ in ent] for _ in ent])


def test_gf4_congruence_batch_reports_a_wrong_congruence(monkeypatch):
    _zero_congruence(monkeypatch)
    result = verify.CheckResult("congruence", *suite._congruence_gf4(random.Random(6), 100))
    assert 0 < len(result.failures) <= 20 and result.cases == 100
    for failure in result.failures:
        rows, e = _parse(failure, r"gf4 congruence SymMatrix\(gf4, (\[.*\])\) E=(\[.*\])")
        assert "1" in compute_pr(SymMatrix(GF4, rows)).bits  # the zero matrix's pr word differs
        assert laplace_det(e, GF4) != 0


# -- fault injection: the exhaustive GF(2) Schur loop reports a wrong complement -----

def _gf2_check(max_n, name, halves):
    """The check name as the every-code GF(2) pass over orders 1..max_n gives it, running halves."""
    return verify.CheckResult(name, *suite._gf2_pass(max_n, halves)[name])


def _every_half(seed, max_n):
    """Every GF(2) half of the suite, its congruence grids drawn from seed."""
    per_code, per_orbit = suite._gf2_halves(random.Random(seed), max_n)
    return per_code + per_orbit


def _gf2_schur_failures(complement):
    """Run the GF(2) half of the Schur check up to order 4 and check that each
    reported code, with complement(B, alpha) as its faulty C = B / B[alpha],
    breaks the identity under SymMatrix elimination."""
    result = _gf2_check(4, "schur-complement-identity", [suite._schur_gf2])
    assert 0 < len(result.failures) <= 20
    for failure in result.failures:
        n, code, alpha = _parse(failure, r"order (\d+) code (\d+) alpha=(\(.*\))")
        b = sw.code_matrix(code, n)
        alpha = tuple(a + 1 for a in alpha)
        c = complement(b, alpha)
        labels = [i for i in range(1, n + 1) if i not in alpha]
        broken = c.rank() != b.rank() - len(alpha)
        for size in range(c.n + 1):
            for gamma in combinations(range(1, c.n + 1), size):
                union = sorted(alpha + tuple(labels[g - 1] for g in gamma))
                broken |= GF2.mul(_det(c, gamma), _det(b, alpha)) != _det(b, union)
        assert broken, failure


def _flip(rows):
    return [[x ^ 1 for x in row] for row in rows]


def test_gf2_schur_loop_reports_a_wrong_complement(monkeypatch):
    _flip_schur(monkeypatch)
    _gf2_schur_failures(lambda b, alpha: SymMatrix(GF2, _flip(b.schur_complement(alpha).rows)))


def _flip_inverse(monkeypatch):
    """Make suite._inverse flip every entry of each inverse it returns."""
    orig = suite._inverse

    def flipped(ent, ones, spec):
        return _flip_planes(orig(ent, ones, spec), ones)

    monkeypatch.setattr(suite, "_inverse", flipped)


def _clear_nothing(monkeypatch):
    """Make the clearing step of suite._reduce_rows leave every row as it is."""
    monkeypatch.setattr(suite, "_clear", lambda *args: None)


def test_gf2_loops_report_an_elimination_that_clears_nothing(monkeypatch):
    """The pivot rows then clear no row, so B / B[alpha] comes out as the principal
    submatrix off alpha and the inverse as zero, and SymMatrix confirms each
    failure: the inverse check's against B's inverse, the Schur checks' against
    that submatrix as C (the identity fails) and B's true complement (the letters
    it keeps)."""
    _clear_nothing(monkeypatch)
    for b, _ in _gf2_failures(_gf2_check(3, "inverse-reversal", [suite._inverse_gf2])):
        want = compute_epr(b)[-2::-1] + "A"  # letters n-1..1 of B, then A
        zero = SymMatrix(GF2, [[0] * b.n] * b.n)  # the inverse the faulty elimination gives
        assert compute_epr(b.inverse()) == want != compute_epr(zero)

    def off_alpha(b, alpha):
        return b.principal_submatrix(complement_labels(b.n, alpha))

    _gf2_schur_failures(off_alpha)
    letters = _gf2_check(4, "schur-complement-letters", [suite._schur_gf2])
    for b, (alpha,) in _gf2_failures(letters, r" alpha=(\(.*\))"):
        alpha, word = tuple(a + 1 for a in alpha), compute_epr(b)
        kept = [x for x in word[len(alpha) :] if x in "AN"]

        def kept_by(c):  # C's letters at B's A and N positions past alpha
            return [x for x, y in zip(compute_epr(c), word[len(alpha) :]) if y in "AN"]

        assert kept_by(b.schur_complement(alpha)) == kept != kept_by(off_alpha(b, alpha))


# -- fault injection: the exhaustive GF(2) halves that read B's letters off each batch --

def _gf2_failures(result, suffix=""):
    """(matrix, parsed suffix fields) of each "order n code c<suffix>" failure."""
    assert 0 < len(result.failures) <= 20
    for failure in result.failures:
        n, code, *rest = _parse(failure, r"order (\d+) code (\d+)" + suffix)
        yield sw.code_matrix(code, n), rest


def test_gf2_inverse_loop_reports_a_wrong_inverse(monkeypatch):
    _flip_inverse(monkeypatch)
    for b, _ in _gf2_failures(_gf2_check(3, "inverse-reversal", [suite._inverse_gf2])):
        want = compute_epr(b)[-2::-1] + "A"  # letters n-1..1 of B, then A
        assert compute_epr(b.inverse()) == want
        assert compute_epr(SymMatrix(GF2, _flip(b.inverse().rows))) != want


def test_gf2_append_loop_reports_a_wrong_appended_index(monkeypatch):
    _copy_index_0(monkeypatch)
    result = _gf2_check(3, "append-transforms", [suite._append_gf2])
    assert result.cases == 2 * (2 + 8 + 64)
    for b, _ in _gf2_failures(result):
        _assert_copy_breaks_append_zero(b)


def test_gf2_congruence_loop_reports_a_wrong_congruence(monkeypatch):
    _zero_congruence(monkeypatch)
    result = _gf2_check(3, "congruence-pr-invariance", _every_half(6, 3))
    assert result.cases == 3 * (8 + 64)
    for b, (e,) in _gf2_failures(result, r" E=(\[.*\])"):
        congruent = matmul(matmul(e, b.rows, GF2), [list(col) for col in zip(*e)], GF2)
        assert laplace_det(e, GF2) != 0
        assert compute_pr(SymMatrix(GF2, congruent)).bits == compute_pr(b).bits
        assert "1" in compute_pr(b).bits  # the zero matrix's pr word differs


# -- the exhaustive GF(2) pass -----------------------------------------------------

def _gf2_pass_results(monkeypatch, chunk):
    """{check name: (cases, sorted failures)} of the GF(2) pass up to order 4 in
    batches of chunk codes."""
    monkeypatch.setattr(suite, "_RUN_CODES", chunk)
    found = suite._gf2_pass(4, _every_half(1, 4))
    return {name: (cases, sorted(failures)) for name, (cases, failures) in found.items()}


@pytest.mark.parametrize("faulty", [False, True], ids=["sound", "faulty-schur"])
def test_gf2_pass_does_not_depend_on_the_chunk_size(monkeypatch, faulty):
    """Batches of 2^3 and 2^7 codes split orders 3 and 4, and in some of them
    B[alpha] is singular for every code; with a wrong Schur complement every
    failure is kept, so the failure sets must match too."""
    if faulty:
        _flip_schur(monkeypatch)
        monkeypatch.setattr(suite, "_MAX_FAILURES_KEPT", 10**9)
    default = _gf2_pass_results(monkeypatch, suite._RUN_CODES)
    assert len(default) == 8
    assert bool(default["schur-complement-identity"][1]) == faulty
    for chunk in (1 << 3, 1 << 7):
        assert _gf2_pass_results(monkeypatch, chunk) == default, chunk


# cases of each exhaustive GF(2) check over every symmetric matrix of order 1..6
_ORDER_6_CASES = {
    "inverse-reversal": 903201,
    "inheritance": 10620040,
    "schur-complement-identity": 668872784,
    "schur-complement-letters": 183472168,
    "hyperdeterminantal-relation": 336863296,
    "terminal-an-full-minors": 14369,
    "append-transforms": 4262036,
    "congruence-pr-invariance": 6393048,
}


@pytest.mark.slow
def test_gf2_pass_at_order_6():
    """Every exhaustive GF(2) check over all 2^21 order-6 matrices and the lower
    orders (about 3 s); theorem_suite itself still refuses max_n = 6."""
    with pytest.raises(ValueError):
        theorem_suite(max_n=6)
    found = suite._gf2_pass(6, _every_half(verify.DEFAULT_SEED, 6))
    assert found == {name: [cases, []] for name, cases in _ORDER_6_CASES.items()}


@pytest.mark.slow
def test_orbit_gf2_pass_at_order_6():
    """The suite's own route to order 6: six halves over the 5096 order-6 orbit
    reps, weighted by orbit size, and congruence over every code."""
    halves = suite._gf2_halves(random.Random(verify.DEFAULT_SEED), 6)
    found = suite._gf2_pass(6, *halves)
    assert found == {name: [cases, []] for name, cases in _ORDER_6_CASES.items()}


@lru_cache(maxsize=None)
def _least_in_orbit(n, code):
    """Least code of the S_n orbit of code under B -> P B P^T, by trying every P."""
    rows = sw.code_rows(code, n)
    return min(sum(rows[p[i]][p[j]] << shift for shift, i, j in sw._layout(n, GF2)) for p in permutations(range(n)))


def _failing_orbits(found):
    """{check name: (cases, {(order, least code of the orbit)} of its failures)}."""
    out = {}
    for name, (cases, failures) in found.items():
        codes = {tuple(_parse(f, r"order (\d+) code (\d+).*")) for f in failures}
        out[name] = cases, {(n, _least_in_orbit(n, code)) for n, code in codes}
    return out


def _unloop_appended(monkeypatch):
    """Make suite._gather give the appended index no loop.  A copy of a looped
    index then breaks the append rule where a copy of an unlooped one does not, so
    an orbit rep that duplicated only its last index would miss failing orbits."""
    orig = suite._gather

    def unlooped(ent, idx, spec):
        out = orig(ent, idx, spec)
        out[-1][-1] = [0] * spec.degree
        return out

    monkeypatch.setattr(suite, "_gather", unlooped)


@pytest.mark.parametrize(
    "fault",
    [None, _flip_schur, _flip_inverse, _clear_nothing, _copy_index_0, _unloop_appended],
    ids=["sound", "schur", "inverse", "elimination", "append-zero", "append-copy"],
)
def test_orbit_pass_matches_every_code_pass(monkeypatch, fault):
    """With six halves over orbit reps, every check counts the cases the
    every-code pass counts, and fails on the least code of exactly the orbits
    with a failing matrix there (every failure kept)."""
    if fault:
        fault(monkeypatch)
        monkeypatch.setattr(suite, "_MAX_FAILURES_KEPT", 10**9)
    per_code, per_orbit = suite._gf2_halves(random.Random(2), 4)
    every = _failing_orbits(suite._gf2_pass(4, per_code + per_orbit))
    orbit = suite._gf2_pass(4, per_code, per_orbit)
    assert len(orbit) == 8
    assert _failing_orbits(orbit) == every
    failing = {name for name, (_, bad) in every.items() if bad}
    assert failing == {
        None: set(),
        _flip_schur: {"schur-complement-identity", "schur-complement-letters"},
        _flip_inverse: {"inverse-reversal"},
        _clear_nothing: {  # every check that eliminates: the drawn grids E are no longer all invertible
            "inverse-reversal",
            "schur-complement-identity",
            "schur-complement-letters",
            "terminal-an-full-minors",
            "congruence-pr-invariance",
        },
        _copy_index_0: {"append-transforms"},
        _unloop_appended: {"append-transforms"},
    }[fault]
    # each failing code of a per-orbit half is itself its orbit's least code
    for name in failing - {"congruence-pr-invariance"}:
        reps = {tuple(_parse(f, r"order (\d+) code (\d+).*")) for f in orbit[name][1]}
        assert reps == every[name][1], name
