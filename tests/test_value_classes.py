"""The immutable value classes: repr, equality, hash, immutability, JSON round trip.

The expected reprs and messages are literal, so a change of representation
(these classes have been frozen dataclasses and namedtuples) cannot change
what callers see.
"""

import json

import pytest

from eprseq import (
    GF2,
    GF4,
    PrSequence,
    Recipe,
    RuleHit,
    Verdict,
    classify_epr_z2,
    classify_pr_char2,
    field_make,
    parse_pr,
    witness_epr_z2,
)

NSA_REPR = (
    "Verdict(attainable=False, matched=(), violations=(RuleHit(rule='NSA-prohibition', "
    "positions=(1, 2, 3)), RuleHit(rule='NA-NS-parity', positions=(1, 3))), note='')"
)
ORDER1_REPR = (
    "Verdict(attainable=True, matched=('P2',), violations=(), note='order-1 verdict extends "
    "the order>=2 characterization: only 0]1 and 1]0 are attainable, forced by the definitions')"
)


def test_reprs():
    assert repr(classify_epr_z2("NSA")) == NSA_REPR
    assert repr(classify_pr_char2("1]0")) == ORDER1_REPR
    assert repr(classify_epr_z2("NSNA")) == "Verdict(attainable=True, matched=('N4',), violations=(), note='')"
    assert repr(RuleHit("x", (1, 2))) == "RuleHit(rule='x', positions=(1, 2))"
    assert repr(PrSequence(1, "010")) == "PrSequence(r0=1, bits='010')"
    assert repr(witness_epr_z2("AAA")[1]) == "Recipe(form='A1', steps=('identity(3)',))"
    assert repr(GF2) == "FieldSpec(degree=1, modulus=0b10)"
    assert repr(field_make(8)) == "FieldSpec(degree=8, modulus=0b100011011)"


def test_str_and_render():
    assert str(RuleHit("NSA-prohibition", (1, 2, 3))) == "NSA-prohibition@1,2,3"
    assert str(parse_pr("1]010")) == "1]010" and parse_pr("1]010").order == 3
    assert Recipe("A1", ("identity(3)", "append_zero")).render() == "A1: identity(3); append_zero"
    assert Verdict(False).render() == "NOT ATTAINABLE no form matches"


def test_equality_and_hash():
    pairs = [
        (classify_epr_z2("NSA"), classify_epr_z2("NSA")),
        (Verdict(True, ("N4",)), classify_epr_z2("NSNA")),
        (RuleHit("r", (1,)), RuleHit("r", (1,))),
        (PrSequence(0, "110"), parse_pr("0]110")),
        (Recipe("A1", ("identity(3)",)), witness_epr_z2("AAA")[1]),
        (GF4, field_make(2, 0b111)),
    ]
    for a, b in pairs:
        assert a == b and not a != b and hash(a) == hash(b)
        assert len({a, b}) == 1
    assert PrSequence(0, "110") != PrSequence(1, "110")
    assert Verdict(True, ("N4",)) != Verdict(True, ("N4",), note="x")
    assert GF2 != GF4


def test_assignment_raises_attribute_error():
    objects = [
        (classify_epr_z2("NSA"), "attainable"),
        (RuleHit("r", (1,)), "rule"),
        (PrSequence(0, "1"), "bits"),
        (Recipe("A1", ()), "form"),
        (GF4, "degree"),
    ]
    for obj, field in objects:
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
        with pytest.raises(AttributeError):
            obj.extra = 0


@pytest.mark.parametrize(
    "args, message",
    [
        ((2, "0"), "r0 must be 0 or 1, got 2"),
        (("1", "0"), "r0 must be 0 or 1, got '1'"),
        ((0, ""), "pr bits must be a nonempty 0/1 word, got ''"),
        ((0, "012"), "pr bits must be a nonempty 0/1 word, got '012'"),
    ],
)
def test_pr_sequence_validation(args, message):
    with pytest.raises(ValueError) as info:
        PrSequence(*args)
    assert str(info.value) == message


def test_verdict_json_round_trip():
    for verdict in (classify_epr_z2("NSA"), classify_epr_z2("NSNA"), classify_pr_char2("1]0")):
        back = json.loads(json.dumps(verdict.to_dict()))
        rebuilt = Verdict(
            back["attainable"],
            tuple(back["matched"]),
            tuple(RuleHit(h["rule"], tuple(h["positions"])) for h in back["violations"]),
            back["note"],
        )
        assert rebuilt == verdict
