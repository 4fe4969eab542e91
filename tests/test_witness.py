import hashlib
import io

import pytest

from eprseq import (
    EPR_FAMILIES,
    GF2,
    PR_FAMILIES,
    NotAttainableError,
    WitnessMismatchError,
    accepted_epr_sequences,
    accepted_pr_sequences,
    complete_graph,
    compute_epr,
    compute_pr,
    identity,
    loop_complete_graph,
    parse_pr,
    pendant_loop_complete,
    read_matrix,
    witness,
    witness_epr_z2,
    witness_pr_char2,
    write_witness,
)
from oracles import naive_epr, naive_pr, rebuild_from_recipe


def test_witness_examples():
    m, recipe = witness_epr_z2("NAN")
    assert m == complete_graph(3)
    assert recipe.form == "N2"

    m, recipe = witness_epr_z2("SSAN")
    assert m == pendant_loop_complete(4)

    m, recipe = witness_epr_z2("AAAA")
    assert m == identity(4)

    m, recipe = witness_epr_z2("SSA")
    assert m == loop_complete_graph(2).direct_sum(identity(1))


def test_not_attainable_raises_with_verdict():
    with pytest.raises(NotAttainableError) as err:
        witness_epr_z2("NSA")
    assert not err.value.verdict.attainable
    assert "NSA-prohibition" in err.value.verdict.render()
    with pytest.raises(NotAttainableError):
        witness_pr_char2("0]01")


def test_mixed_diagonal_tail_family_uses_brute_forced_construction():
    # The S S* A witness is cross-checked by independent minor enumeration
    # for every order up to 10.
    for n in range(2, 11):
        m, recipe = witness_epr_z2("S" * (n - 1) + "A")
        assert recipe.form == "S2"
        assert naive_epr(m) == "S" * (n - 1) + "A"


def test_all_epr_round_trips_small():
    for n in range(1, 10):
        for word in accepted_epr_sequences(n):
            m, recipe = witness_epr_z2(word)
            assert m.spec == GF2
            assert compute_epr(m) == word


def test_pr_witness_examples():
    m, _ = witness_pr_char2("1]010")
    assert str(compute_pr(m)) == "1]010"
    m, _ = witness_pr_char2("0]111")
    assert m == identity(3)
    m, _ = witness_pr_char2(parse_pr("0]110"))
    assert naive_pr(m) == parse_pr("0]110")


def test_all_pr_round_trips_small():
    for n in range(1, 9):
        for text in accepted_pr_sequences(n):
            m, _ = witness_pr_char2(text)
            assert m.spec == GF2
            assert str(compute_pr(m)) == text


def test_write_witness_round_trip():
    m, recipe = witness_epr_z2("ASAN")
    buf = io.StringIO()
    write_witness(m, recipe, buf)
    text = buf.getvalue()
    assert text.startswith("# recipe: A8: ")
    assert read_matrix(text) == m


def test_schur_based_recipes():
    m, recipe = witness_epr_z2("SSSAN")
    assert recipe.form == "S4"
    assert "schur_complement" in recipe.steps[0]
    m, recipe = witness_epr_z2("ASAN")
    assert recipe.form == "A8"
    assert compute_epr(m) == "ASAN"


def test_inverse_based_recipes():
    m, recipe = witness_epr_z2("ASASA")
    assert recipe.form == "A6"
    m, recipe = witness_epr_z2("SSAA")
    assert recipe.form == "S3"
    assert compute_epr(m) == "SSAA"


def test_wrong_construction_fails_reverification(monkeypatch):
    for family in ("A1", "P3"):
        monkeypatch.setitem(witness._CONSTRUCTIONS, family, lambda n, c: witness._named("zeros", n))
    with pytest.raises(WitnessMismatchError, match=r"A1: zeros\(3\) .* attaining NNN, wanted AAA"):
        witness_epr_z2("AAA")
    with pytest.raises(WitnessMismatchError, match=r"zeros\(2\) .* attaining 1\]00, wanted 1\]11"):
        witness_pr_char2("1]11")


def test_recipe_header_rebuilds_the_matrix():
    """The printed header alone, read by the oracle, gives back the witness."""
    assert tuple(witness._CONSTRUCTIONS) == EPR_FAMILIES + PR_FAMILIES
    for n in range(1, 13):
        words = [(w, witness_epr_z2) for w in accepted_epr_sequences(n)]
        words += [(w, witness_pr_char2) for w in accepted_pr_sequences(n)]
        for word, make in words:
            m, recipe = make(word)
            buf = io.StringIO()
            write_witness(m, recipe, buf)
            header = buf.getvalue().split("\n", 1)[0]
            assert rebuild_from_recipe(header) == m, (word, header)


# sha256 over (word, rendered recipe, steps, matrix rows) of every witness
# below; recompute it only when a construction is meant to change.
GOLDEN_DIGEST = "9b14167669394ae1c1fa9f66a34b797ee7ed5b5442ea6a049c4927a3aea5e3f1"


def test_witnesses_match_golden_digest():
    """Every accepted epr and pr word of order <= 20 (1233 witnesses)."""
    digest = hashlib.sha256()
    for n in range(1, 21):
        for word in accepted_epr_sequences(n):
            m, recipe = witness_epr_z2(word)
            digest.update(repr((word, recipe.render(), recipe.steps, m.rows)).encode())
        for word in accepted_pr_sequences(n):
            m, recipe = witness_pr_char2(word)
            digest.update(repr((word, recipe.render(), recipe.steps, m.rows)).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
