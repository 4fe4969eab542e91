import argparse
import contextlib
import hashlib
import io
from itertools import product

import pytest

from eprseq import (
    EPR_FAMILIES,
    PR_FAMILIES,
    accepted_epr_sequences,
    accepted_pr_sequences,
    classify_epr_z2,
    classify_pr_char2,
    cli,
    epr_instances,
    parse_pr,
    pr_instances,
    rule_violations,
    witness_pr_char2,
)


def hit_names(word):
    return {h.rule for h in rule_violations(word)}


# -- epr classification -----------------------------------------------------------

def test_examples_attainable():
    v = classify_epr_z2("NSNA")
    assert v.attainable and v.matched == ("N4",)
    assert v.render() == "ATTAINABLE N4"
    assert classify_epr_z2("NANA").matched == ("N1",)
    assert classify_epr_z2("A").matched == ("A1",)
    assert classify_epr_z2("N").matched == ("N3",)
    assert classify_epr_z2("ASSSAN").attainable  # even order
    assert classify_epr_z2("SASAN").matched == ("S7",)


def test_examples_not_attainable():
    v = classify_epr_z2("NSA")
    assert not v.attainable
    assert "NSA-prohibition" in {h.rule for h in v.violations}

    v = classify_epr_z2("AAN")
    assert not v.attainable
    assert "AA-non-terminal" in {h.rule for h in v.violations}

    # length-5 ASSAN fails the even-order side condition
    assert not classify_epr_z2("ASSAN").attainable
    assert not classify_epr_z2("SASSA").attainable
    assert not classify_epr_z2("S").attainable
    assert not classify_epr_z2("SS").attainable


def test_verdict_shape():
    v = classify_epr_z2("ASSAN")
    assert v.attainable == bool(v.matched)
    assert v.violations or "no form matches" in v.render()
    d = classify_epr_z2("NSNA").to_dict()
    assert d["attainable"] is True and d["matched"] == ["N4"]


def test_classification_is_deterministic():
    word = "AS" + "SA" * 30 + "N"  # length 64
    first = classify_epr_z2(word)
    for _ in range(3):
        again = classify_epr_z2(word)
        assert again == first


def test_invalid_letters_rejected():
    with pytest.raises(ValueError):
        classify_epr_z2("NXA")


# -- rules -----------------------------------------------------------------------

def test_rule_examples():
    assert {"NSA-prohibition", "N-even"} <= hit_names("ANSA")
    assert hit_names("NANN") == {"NA-Lemma"}
    assert hit_names("NANA") == set()


def test_rule_positions_are_1_based():
    hits = {h.rule: h.positions for h in rule_violations("ANSA")}
    assert hits["NSA-prohibition"] == (2, 3, 4)


def test_rules_fire_individually():
    assert "NN-theorem" in hit_names("ANNA")
    assert "ASN-A-prohibition" in hit_names("ASNNA")
    assert "terminal-S" in hit_names("AS")
    assert "SAXN-prohibition" in hit_names("SASN")
    assert "ASS-non-initial" in hit_names("SASSA")
    assert "ASA-parity" in hit_names("AASA")
    assert "ASA-forms" in hit_names("ASAASA")
    assert "A-AN-even-order" in hit_names("ASSAN")
    assert "SA-start-forms" in hit_names("SASS")
    assert "nonN-start-N-tail" in hit_names("SNSN")


def _first(word, sub, start=0):
    """1-based positions of the first occurrence of sub at index start or later, else None."""
    k = next((k for k in range(start, len(word)) if word.startswith(sub, k)), None)
    return None if k is None else tuple(range(k + 1, k + len(sub) + 1))


def test_subword_rules_match_a_plain_scan_at_order_9():
    # the golden digest pins every word of order <= 8; this reaches order 9
    for letters in product("NSA", repeat=9):
        word = "".join(letters)
        k = next((k for k in range(6) if word[k] == "S" and word[k + 1] == "A" and word[k + 3] == "N"), None)
        want = {
            "NSA-prohibition": _first(word, "NSA"),
            "SAXN-prohibition": None if k is None else (k + 1, k + 2, k + 3, k + 4),
            "ASS-non-initial": _first(word, "ASS", 1),
            "terminal-S": (9,) if word[-1] == "S" else None,
        }
        got = {h.rule: h.positions for h in rule_violations(word)}
        assert {rule: got.get(rule) for rule in want} == want, word


def test_accepted_sequences_never_violate_rules():
    # soundness of the rule engine against the template classifier
    for n in range(1, 13):
        for word in accepted_epr_sequences(n):
            assert rule_violations(word) == [], word


def test_template_instances_match_filtering():
    for n in range(1, 9):
        by_templates = set(accepted_epr_sequences(n))
        by_filter = {
            "".join(w)
            for w in product("ANS", repeat=n)
            if classify_epr_z2("".join(w)).attainable
        }
        assert by_templates == by_filter


def test_instances_refuse_an_unknown_family_and_order_0():
    with pytest.raises(ValueError, match=r"^unknown family 'X9'$"):
        epr_instances("X9", 3)
    with pytest.raises(ValueError, match=r"^order must be >= 1$"):
        accepted_epr_sequences(0)


def test_instances_respect_their_own_family():
    for n in range(1, 13):
        for fam in EPR_FAMILIES:
            for word in epr_instances(fam, n):
                assert fam in classify_epr_z2(word).matched, (fam, word)


# -- pr classification --------------------------------------------------------------

def test_pr_examples():
    v = classify_pr_char2("0]110")
    assert v.attainable and v.matched == ("P1",)
    v = classify_pr_char2("1]010")
    assert v.attainable and v.matched == ("P2",)
    assert classify_pr_char2(parse_pr("1]110")).matched == ("P3",)
    assert not classify_pr_char2("0]01").attainable
    assert classify_pr_char2("1]00").attainable  # zero matrix
    assert not classify_pr_char2("0]00").attainable


def test_pr_order_one_extension():
    v = classify_pr_char2("0]1")
    assert v.attainable and "order-1" in v.note
    v = classify_pr_char2("1]0")
    assert v.attainable and v.matched == ("P2",)
    v = classify_pr_char2("1]1")
    assert not v.attainable and "order-1" in v.note
    assert not classify_pr_char2("0]0").attainable


def test_pr_instances_respect_their_own_family_and_have_witnesses():
    for n in range(1, 9):
        for fam in PR_FAMILIES:
            for word in pr_instances(fam, n):
                assert fam in classify_pr_char2(word).matched, (fam, word)
                witness_pr_char2(word)  # builds and re-verifies, or raises


def test_accepted_pr_sequences_counts():
    # P1 and P3 each contribute n words, P2 contributes floor(n/2) + 1
    for n in range(2, 11):
        assert len(accepted_pr_sequences(n)) == 2 * n + n // 2 + 1
    assert accepted_pr_sequences(1) == ["0]1", "1]0"]


# -- golden outputs -------------------------------------------------------------------

# sha256 of the verdict texts, JSON and exit codes below, and of the accepted
# word lists; recompute it only when a verdict is meant to change.
GOLDEN_DIGEST = "1b990df5915bc2b8d86413fefa0a8d166a6c0afb4ac7e39f70def42c900e7714"


def verdict_output(verb: str, sequence: str, as_json: bool) -> str:
    """Exit code, stdout and stderr of one classify / classify-pr verb run."""
    args = argparse.Namespace(verb=verb, sequence=sequence, json=as_json)
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli._dispatch(args)
    return f"{code}\t{out.getvalue()}{err.getvalue()}"


def test_verdicts_and_accepted_lists_match_golden_digest(capsys):
    """Every epr word of order <= 8, every pr word of <= 10 bits, both output
    modes, and accepted_*_sequences(n) for n <= 20.  The verb runs skip only
    argument parsing, so one full cli.main run per verb pins that step."""
    for verb, word in (("classify", "NSNA"), ("classify-pr", "0]01")):
        code = cli.main([verb, "--json", word])
        assert f"{code}\t{capsys.readouterr().out}" == verdict_output(verb, word, True)
    words = [("classify", "".join(w)) for n in range(1, 9) for w in product("ASN", repeat=n)]
    words += [
        ("classify-pr", f"{b[0]}]{''.join(b[1:])}")
        for n in range(1, 10)
        for b in product("01", repeat=n + 1)
    ]
    digest = hashlib.sha256()
    for verb, word in words:
        for as_json in (False, True):
            digest.update(verdict_output(verb, word, as_json).encode())
    for n in range(1, 21):
        digest.update(repr((accepted_epr_sequences(n), accepted_pr_sequences(n))).encode())
    assert digest.hexdigest() == GOLDEN_DIGEST
