"""Attainability of epr- and pr-sequences over characteristic 2.

Over Z2 the attainable epr-sequences are exactly the instances of twenty
anchored word templates (five starting with N, eight with A, seven with
S); over any field of characteristic 2 the attainable pr-sequences of
order >= 2 are the instances of three templates.  Template matching is
the ground truth here.  Each template is stated once, as the pattern the
classifier matches; the instance lists behind accepted_epr_sequences and
accepted_pr_sequences expand those same patterns.

A separate rule engine reports every known prohibition an epr word
violates.  A subword rule is a pattern, hit at its first match; every
other rule is one search for its first trigger and one test of what that
trigger forces, and no later trigger can fire where the first one did
not.  The rules are necessary conditions only; they exist for
diagnostics and cross-checking, never as the accept/reject decision.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .sequence import PrSequence, parse_epr, parse_pr

# Each template: family id -> anchored pattern.  A pattern is a run of
# literals, X* and (XY)* units, where * means zero or more repetitions;
# epr_instances and pr_instances expand the same units.  A5's (SS)* states
# its even order: an odd count of S, at least three.
_EPR_FORM_SPECS: dict[str, str] = {
    "N1": r"NA(NA)*",
    "N2": r"NA(NA)*N",
    "N3": r"(NS)*NN*",
    "N4": r"NS(NS)*NA",
    "N5": r"NS(NS)*NAN",
    "A1": r"AA*",
    "A2": r"AS*NN*",
    "A3": r"ASSS*A",
    "A4": r"ASSS*AA",
    "A5": r"ASSS(SS)*AN",
    "A6": r"ASA(SA)*",
    "A7": r"ASA(SA)*A",
    "A8": r"ASA(SA)*N",
    "S1": r"SS*NN*",
    "S2": r"SS*A",
    "S3": r"SS*AA",
    "S4": r"SSS*AN",
    "S5": r"SASA(SA)*",
    "S6": r"SASA(SA)*A",
    "S7": r"SA(SA)*N",
}
EPR_FAMILIES = tuple(_EPR_FORM_SPECS)
_EPR_FORMS = tuple((fam, re.compile(pat)) for fam, pat in _EPR_FORM_SPECS.items())

_PR_FORM_SPECS: dict[str, str] = {
    "P1": r"0\]11*0*",
    "P2": r"1\](01)*0*",
    "P3": r"1\]11*0*",
}
PR_FAMILIES = tuple(_PR_FORM_SPECS)
_PR_FORMS = tuple((fam, re.compile(pat)) for fam, pat in _PR_FORM_SPECS.items())

# Order 1 is decided by the definitions, not the patterns (P3 would admit 1]1).
_PR_ORDER1 = {"0]1": "P1", "1]0": "P2"}
_ORDER1_NOTE = (
    "order-1 verdict extends the order>=2 characterization: "
    "only 0]1 and 1]0 are attainable, forced by the definitions"
)


class RuleHit(namedtuple("RuleHit", "rule positions")):
    """A violated prohibition rule with the offending 1-based positions."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.rule}@{','.join(map(str, self.positions))}"


class Verdict(namedtuple("Verdict", "attainable matched violations note", defaults=((), (), ""))):
    """Outcome of a classification query."""

    __slots__ = ()

    def render(self) -> str:
        if self.attainable:
            return "ATTAINABLE " + " ".join(self.matched)
        names = []
        for hit in self.violations:
            if hit.rule not in names:
                names.append(hit.rule)
        detail = " ".join(names) if names else "no form matches"
        return "NOT ATTAINABLE " + detail

    def to_dict(self) -> dict:
        return {
            "attainable": self.attainable,
            "matched": list(self.matched),
            "violations": [
                {"rule": h.rule, "positions": list(h.positions)} for h in self.violations
            ],
            "note": self.note,
        }


def classify_epr_z2(epr: str) -> Verdict:
    """Decide attainability of an epr word by a symmetric matrix over Z2.

    Matches the word against all twenty templates (several may match);
    non-matching words come back with the full list of violated
    prohibition rules for diagnosis.
    """
    word = parse_epr(epr)
    matched = tuple(fam for fam, rx in _EPR_FORMS if rx.fullmatch(word))
    if matched:
        return Verdict(True, matched)
    return Verdict(False, (), tuple(rule_violations(word)))


def classify_pr_char2(pr: PrSequence | str) -> Verdict:
    """Decide attainability of a pr-sequence over a field of characteristic 2.

    The characterization covers order >= 2; order-1 sequences are decided
    by the definitions directly (only 0]1 and 1]0 are attainable) and the
    verdict carries a note saying so.
    """
    seq = parse_pr(pr) if isinstance(pr, str) else pr
    text = str(seq)
    if seq.order == 1:
        matched = (_PR_ORDER1[text],) if text in _PR_ORDER1 else ()
        return Verdict(bool(matched), matched, note=_ORDER1_NOTE)
    matched = tuple(fam for fam, rx in _PR_FORMS if rx.fullmatch(text))
    return Verdict(bool(matched), matched)


# ---------------------------------------------------------------------------
# prohibition rules
# ---------------------------------------------------------------------------

def _subword(rule: str, pattern: str, start: int = 0):
    """The rule that no match of pattern begins at index start or later; hit the first."""
    rx = re.compile(pattern)

    def hits(s: str) -> RuleHit | None:
        m = rx.search(s, start)
        return RuleHit(rule, tuple(range(m.start() + 1, m.end() + 1))) if m else None

    return hits


def _n_tail(rule: str, s: str, k: int, start: int) -> RuleHit | None:
    # The trigger at index k forces N from index start on; hit the first A or S there.
    rest = s[start:].lstrip("N")
    return RuleHit(rule, (k + 1, len(s) - len(rest) + 1)) if rest else None


def _hits_nn(s: str) -> RuleHit | None:
    # Two consecutive Ns force N forever after.
    p = s.find("NN")
    return _n_tail("NN-theorem", s, p, p + 2) if p >= 0 else None


def _hits_asn_a(s: str) -> RuleHit | None:
    # ASN cannot be followed by a later A, over any field.
    p = s.find("ASN")
    q = s.find("A", p + 3) if p >= 0 else -1
    return RuleHit("ASN-A-prohibition", (p + 1, q + 1)) if q >= 0 else None


_NA_NS = re.compile(r"N[AS]")


def _hits_na_ns_parity(s: str) -> RuleHit | None:
    # In characteristic 2, NA or NS at position k forces k odd and N at
    # every odd position; a later NA or NS at an even position would need
    # A or S at an odd one, so the first trigger decides.
    m = _NA_NS.search(s)
    if m is None:
        return None
    k = m.start()
    if k % 2 == 1:  # 1-based position k+1 is even
        return RuleHit("NA-NS-parity", (k + 1,))
    odd = s[::2]  # the letters at odd positions
    rest = odd.lstrip("N")
    return RuleHit("NA-NS-parity", (k + 1, 2 * (len(odd) - len(rest)) + 1)) if rest else None


def _hits_n_even(s: str) -> RuleHit | None:
    # In characteristic 2, an N in an even position forces N forever after.
    i = s[1::2].find("N")
    return _n_tail("N-even", s, 2 * i + 1, 2 * i + 2) if i >= 0 else None


def _hits_nonn_start_n_tail(s: str) -> RuleHit | None:
    # In characteristic 2, once an A- or S-initial word hits N it stays N.
    p = s.find("N")
    return _n_tail("nonN-start-N-tail", s, p, p + 1) if p > 0 else None


_NA_TAIL = re.compile(r"NA(NA)*N?")


def _hits_na_lemma(s: str) -> RuleHit | None:
    # Over Z2, NA at position k forces the tail to alternate NA with at
    # most one trailing N.
    p = s.find("NA")
    return RuleHit("NA-Lemma", (p + 1,)) if p >= 0 and not _NA_TAIL.fullmatch(s, p) else None


def _hits_aa(s: str) -> RuleHit | None:
    # Over Z2, a non-terminal AA forces the all-A word.
    p = s.find("AA", 0, len(s) - 1)
    rest = s.lstrip("A")
    return RuleHit("AA-non-terminal", (p + 1, len(s) - len(rest) + 1)) if p >= 0 and rest else None


def _hits_a_an_even(s: str) -> RuleHit | None:
    # Over Z2, an A-initial word of order >= 3 ending in AN has even order.
    n = len(s)
    odd = n >= 3 and s[0] == "A" and s.endswith("AN") and n % 2 == 1
    return RuleHit("A-AN-even-order", (n - 1, n)) if odd else None


_SA_START = re.compile(r"(SA)+[AN]?")


def _hits_sa_start(s: str) -> RuleHit | None:
    # Over Z2, a word starting SA alternates SA throughout, with at most
    # one extra terminal A or N.
    broken = s.startswith("SA") and not _SA_START.fullmatch(s)
    return RuleHit("SA-start-forms", (1, 2)) if broken else None


def _hits_asa_parity(s: str) -> RuleHit | None:
    # Over Z2, ASA at position k needs a non-N start, and the start letter
    # fixes the parity of k (A-initial: k odd; S-initial: k even); the
    # trigger is the first ASA at a wrong position.
    if s[0] == "N":
        p = s.find("ASA")
        return RuleHit("ASA-parity", (1, p + 1)) if p >= 0 else None
    wrong = range(1 if s[0] == "A" else 0, len(s) - 2, 2)
    k = next((k for k in wrong if s.startswith("ASA", k)), None)
    return RuleHit("ASA-parity", (k + 1,)) if k is not None else None


_ASA_FORMS = re.compile(r"S?ASA(SA)*[AN]?")


def _hits_asa_forms(s: str) -> RuleHit | None:
    # Over Z2, a word containing ASA is an SA-alternation with optional
    # leading S and optional terminal A or N.
    p = s.find("ASA")
    return RuleHit("ASA-forms", (p + 1,)) if p >= 0 and not _ASA_FORMS.fullmatch(s) else None


_RULES = (
    _hits_nn,
    _subword("NSA-prohibition", "NSA"),  # over any field
    _hits_asn_a,
    _hits_na_ns_parity,
    _hits_n_even,
    _hits_nonn_start_n_tail,
    _hits_na_lemma,
    _hits_aa,
    _hits_a_an_even,
    _hits_sa_start,
    _subword("SAXN-prohibition", "SA.N"),  # over Z2: S A ? N
    _subword("ASS-non-initial", "ASS", 1),  # over Z2: ASS only as the initial subword
    _hits_asa_parity,
    _hits_asa_forms,
    _subword("terminal-S", "S$"),  # over any field: the order-n letter is never S
)


def rule_violations(epr: str) -> list[RuleHit]:
    """Every prohibition rule violated by the word, with positions.

    Attainable words always return an empty list; the converse does not
    hold (the rules are not jointly sufficient).
    """
    word = parse_epr(epr)
    return [hit for rule in _RULES if (hit := rule(word)) is not None]


# ---------------------------------------------------------------------------
# template instantiation
# ---------------------------------------------------------------------------

_UNIT = re.compile(r"\((\w+)\)\*|\\?(.)(\*?)")  # (XY)*, or one literal (maybe escaped) and maybe *


def _fill(units: list[tuple[str, bool]], length: int) -> list[str]:
    """Words of this length spelled by the units, each starred unit repeated any number of times."""
    if not units:
        return [""] if length == 0 else []
    (text, starred), rest = units[0], units[1:]
    counts = range(length // len(text) + 1) if starred else (1,)
    return [text * c + tail for c in counts for tail in _fill(rest, length - c * len(text))]


def _instances(specs: dict[str, str], family: str, length: int) -> list[str]:
    """Sorted words of this length that fully match one family's template."""
    if family not in specs:
        raise ValueError(f"unknown family {family!r}")
    units = [(group or char, bool(group or star)) for group, char, star in _UNIT.findall(specs[family])]
    return sorted(set(_fill(units, length)))


def epr_instances(family: str, n: int) -> list[str]:
    """All order-n instances of one epr template family, sorted."""
    return _instances(_EPR_FORM_SPECS, family, n)


def pr_instances(family: str, n: int) -> list[str]:
    """All order-n instances of one pr template family, as sorted text."""
    if n == 1 and family in _PR_FORM_SPECS:
        return [word for word, f in _PR_ORDER1.items() if f == family]
    return _instances(_PR_FORM_SPECS, family, n + 2)  # n bits after the two characters "r0]"


def _accepted(instances, families: tuple[str, ...], n: int) -> list[str]:
    if n < 1:
        raise ValueError("order must be >= 1")
    return sorted({word for family in families for word in instances(family, n)})


def accepted_epr_sequences(n: int) -> list[str]:
    """Sorted list of all order-n epr words accepted by classify_epr_z2."""
    return _accepted(epr_instances, EPR_FAMILIES, n)


def accepted_pr_sequences(n: int) -> list[str]:
    """Sorted list of all order-n pr words accepted by classify_pr_char2."""
    return _accepted(pr_instances, PR_FAMILIES, n)
