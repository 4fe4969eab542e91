"""Attainability of epr- and pr-sequences over characteristic 2.

Over Z2 the attainable epr-sequences are exactly the instances of twenty
anchored word templates (five starting with N, eight with A, seven with
S); over any field of characteristic 2 the attainable pr-sequences of
order >= 2 are the instances of three templates.  Template matching is
the ground truth here.

A separate rule engine reports every known prohibition an epr word
violates.  The rules are necessary conditions only; they exist for
diagnostics and cross-checking, never as the accept/reject decision.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .sequence import PrSequence, parse_epr, parse_pr

# Each epr form: family id, anchored pattern, extra side condition.
# In the pattern strings X* means zero or more repetitions of X.
_EPR_FORM_SPECS: tuple[tuple[str, str, str | None], ...] = (
    ("N1", r"NA(NA)*", None),
    ("N2", r"NA(NA)*N", None),
    ("N3", r"(NS)*NN*", None),
    ("N4", r"NS(NS)*NA", None),
    ("N5", r"NS(NS)*NAN", None),
    ("A1", r"AA*", None),
    ("A2", r"AS*NN*", None),
    ("A3", r"ASSS*A", None),
    ("A4", r"ASSS*AA", None),
    ("A5", r"ASSSS*AN", "even"),
    ("A6", r"ASA(SA)*", None),
    ("A7", r"ASA(SA)*A", None),
    ("A8", r"ASA(SA)*N", None),
    ("S1", r"SS*NN*", None),
    ("S2", r"SS*A", None),
    ("S3", r"SS*AA", None),
    ("S4", r"SSS*AN", None),
    ("S5", r"SASA(SA)*", None),
    ("S6", r"SASA(SA)*A", None),
    ("S7", r"SA(SA)*N", None),
)

EPR_FAMILIES = tuple(fam for fam, _, _ in _EPR_FORM_SPECS)
_EPR_FORMS = tuple((fam, re.compile(pat), cond) for fam, pat, cond in _EPR_FORM_SPECS)

_PR_FORM_SPECS: tuple[tuple[str, str], ...] = (
    ("P1", r"0\]11*0*"),
    ("P2", r"1\](01)*0*"),
    ("P3", r"1\]11*0*"),
)
PR_FAMILIES = tuple(fam for fam, _ in _PR_FORM_SPECS)
_PR_FORMS = tuple((fam, re.compile(pat)) for fam, pat in _PR_FORM_SPECS)

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
    matched = tuple(
        fam
        for fam, rx, cond in _EPR_FORMS
        if rx.fullmatch(word) and (cond != "even" or len(word) % 2 == 0)
    )
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
    if seq.order == 1:
        text = str(seq)
        if text == "0]1":
            return Verdict(True, ("P1",), note=_ORDER1_NOTE)
        if text == "1]0":
            return Verdict(True, ("P2",), note=_ORDER1_NOTE)
        return Verdict(False, note=_ORDER1_NOTE)
    text = str(seq)
    matched = tuple(fam for fam, rx in _PR_FORMS if rx.fullmatch(text))
    return Verdict(bool(matched), matched)


# ---------------------------------------------------------------------------
# prohibition rules
# ---------------------------------------------------------------------------

def _hits_nn(s: str) -> RuleHit | None:
    # Two consecutive Ns force N forever after.
    for k in range(len(s) - 1):
        if s[k] == "N" and s[k + 1] == "N":
            for i in range(k + 2, len(s)):
                if s[i] != "N":
                    return RuleHit("NN-theorem", (k + 1, i + 1))
    return None


def _hits_nsa(s: str) -> RuleHit | None:
    # NSA never occurs, over any field.
    p = s.find("NSA")
    if p >= 0:
        return RuleHit("NSA-prohibition", (p + 1, p + 2, p + 3))
    return None


def _hits_asn_a(s: str) -> RuleHit | None:
    # ASN cannot be followed by a later A, over any field.
    p = s.find("ASN")
    while p >= 0:
        q = s.find("A", p + 3)
        if q >= 0:
            return RuleHit("ASN-A-prohibition", (p + 1, q + 1))
        p = s.find("ASN", p + 1)
    return None


def _hits_na_ns_parity(s: str) -> RuleHit | None:
    # In characteristic 2, NA or NS at position k forces k odd and N at
    # every odd position.
    for k in range(len(s) - 1):
        if s[k] == "N" and s[k + 1] in "AS":
            if k % 2 == 1:  # 1-based position k+1 is even
                return RuleHit("NA-NS-parity", (k + 1,))
            for j in range(0, len(s), 2):
                if s[j] != "N":
                    return RuleHit("NA-NS-parity", (k + 1, j + 1))
    return None


def _hits_n_even(s: str) -> RuleHit | None:
    # In characteristic 2, an N in an even position forces N forever after.
    for k in range(1, len(s), 2):
        if s[k] == "N":
            for j in range(k + 1, len(s)):
                if s[j] != "N":
                    return RuleHit("N-even", (k + 1, j + 1))
    return None


def _hits_nonn_start_n_tail(s: str) -> RuleHit | None:
    # In characteristic 2, once an A- or S-initial word hits N it stays N.
    if s[0] == "N":
        return None
    p = s.find("N")
    if p >= 0:
        for j in range(p + 1, len(s)):
            if s[j] != "N":
                return RuleHit("nonN-start-N-tail", (p + 1, j + 1))
    return None


_NA_TAIL = re.compile(r"NA(NA)*N?")


def _hits_na_lemma(s: str) -> RuleHit | None:
    # Over Z2, NA at position k forces the tail to alternate NA with at
    # most one trailing N.
    for k in range(len(s) - 1):
        if s[k] == "N" and s[k + 1] == "A" and not _NA_TAIL.fullmatch(s[k:]):
            return RuleHit("NA-Lemma", (k + 1,))
    return None


def _hits_aa(s: str) -> RuleHit | None:
    # Over Z2, a non-terminal AA forces the all-A word.
    if set(s) == {"A"}:
        return None
    for k in range(len(s) - 2):
        if s[k] == "A" and s[k + 1] == "A":
            bad = next(i for i, ch in enumerate(s) if ch != "A")
            return RuleHit("AA-non-terminal", (k + 1, bad + 1))
    return None


def _hits_a_an_even(s: str) -> RuleHit | None:
    # Over Z2, an A-initial word of order >= 3 ending in AN has even order.
    n = len(s)
    if n >= 3 and s[0] == "A" and s.endswith("AN") and n % 2 == 1:
        return RuleHit("A-AN-even-order", (n - 1, n))
    return None


_SA_START = re.compile(r"(SA)+[AN]?")


def _hits_sa_start(s: str) -> RuleHit | None:
    # Over Z2, a word starting SA alternates SA throughout, with at most
    # one extra terminal A or N.
    if s.startswith("SA") and not _SA_START.fullmatch(s):
        return RuleHit("SA-start-forms", (1, 2))
    return None


def _hits_saxn(s: str) -> RuleHit | None:
    # Over Z2, S A ? N never occurs as a subword.
    for k in range(len(s) - 3):
        if s[k] == "S" and s[k + 1] == "A" and s[k + 3] == "N":
            return RuleHit("SAXN-prohibition", (k + 1, k + 2, k + 3, k + 4))
    return None


def _hits_ass(s: str) -> RuleHit | None:
    # Over Z2, ASS occurs only as the initial subword.
    p = s.find("ASS", 1)
    if p >= 0:
        return RuleHit("ASS-non-initial", (p + 1, p + 2, p + 3))
    return None


def _hits_asa_parity(s: str) -> RuleHit | None:
    # Over Z2, ASA at position k needs a non-N start, and the start letter
    # fixes the parity of k (A-initial: k odd; S-initial: k even).
    for k in range(len(s) - 2):
        if s[k : k + 3] == "ASA":
            if s[0] == "N":
                return RuleHit("ASA-parity", (1, k + 1))
            if s[0] == "A" and k % 2 == 1:
                return RuleHit("ASA-parity", (k + 1,))
            if s[0] == "S" and k % 2 == 0:
                return RuleHit("ASA-parity", (k + 1,))
    return None


_ASA_FORMS = re.compile(r"S?ASA(SA)*[AN]?")


def _hits_asa_forms(s: str) -> RuleHit | None:
    # Over Z2, a word containing ASA is an SA-alternation with optional
    # leading S and optional terminal A or N.
    p = s.find("ASA")
    if p >= 0 and not _ASA_FORMS.fullmatch(s):
        return RuleHit("ASA-forms", (p + 1,))
    return None


def _hits_terminal_s(s: str) -> RuleHit | None:
    # The last letter reflects the single order-n minor: never S.
    if s[-1] == "S":
        return RuleHit("terminal-S", (len(s),))
    return None


_RULES = (
    _hits_nn,
    _hits_nsa,
    _hits_asn_a,
    _hits_na_ns_parity,
    _hits_n_even,
    _hits_nonn_start_n_tail,
    _hits_na_lemma,
    _hits_aa,
    _hits_a_an_even,
    _hits_sa_start,
    _hits_saxn,
    _hits_ass,
    _hits_asa_parity,
    _hits_asa_forms,
    _hits_terminal_s,
)

def rule_violations(epr: str) -> list[RuleHit]:
    """Every prohibition rule violated by the word, with positions.

    Attainable words always return an empty list; the converse does not
    hold (the rules are not jointly sufficient).
    """
    word = parse_epr(epr)
    hits = []
    for rule in _RULES:
        hit = rule(word)
        if hit is not None:
            hits.append(hit)
    return hits


# ---------------------------------------------------------------------------
# template instantiation
# ---------------------------------------------------------------------------

def epr_instances(family: str, n: int) -> list[str]:
    """All order-n instances of one epr template family."""
    odd = n % 2
    if family == "N1":
        return ["NA" * (n // 2)] if n >= 2 and not odd else []
    if family == "N2":
        return ["NA" * (n // 2) + "N"] if n >= 3 and odd else []
    if family == "N3":
        return ["NS" * t + "N" * (n - 2 * t) for t in range((n - 1) // 2 + 1)]
    if family == "N4":
        return ["NS" * ((n - 2) // 2) + "NA"] if n >= 4 and not odd else []
    if family == "N5":
        return ["NS" * ((n - 3) // 2) + "NAN"] if n >= 5 and odd else []
    if family == "A1":
        return ["A" * n]
    if family == "A2":
        return ["A" + "S" * (n - 1 - t) + "N" * t for t in range(1, n)]
    if family == "A3":
        return ["A" + "S" * (n - 2) + "A"] if n >= 4 else []
    if family == "A4":
        return ["A" + "S" * (n - 3) + "AA"] if n >= 5 else []
    if family == "A5":
        return ["A" + "S" * (n - 3) + "AN"] if n >= 6 and not odd else []
    if family == "A6":
        return ["A" + "SA" * ((n - 1) // 2)] if n >= 3 and odd else []
    if family == "A7":
        return ["ASA" + "SA" * ((n - 4) // 2) + "A"] if n >= 4 and not odd else []
    if family == "A8":
        return ["ASA" + "SA" * ((n - 4) // 2) + "N"] if n >= 4 and not odd else []
    if family == "S1":
        return ["S" * s + "N" * (n - s) for s in range(1, n)]
    if family == "S2":
        return ["S" * (n - 1) + "A"] if n >= 2 else []
    if family == "S3":
        return ["S" * (n - 2) + "AA"] if n >= 3 else []
    if family == "S4":
        return ["S" * (n - 2) + "AN"] if n >= 4 else []
    if family == "S5":
        return ["SA" * (n // 2)] if n >= 4 and not odd else []
    if family == "S6":
        return ["SA" * ((n - 1) // 2) + "A"] if n >= 5 and odd else []
    if family == "S7":
        return ["SA" * ((n - 1) // 2) + "N"] if n >= 3 and odd else []
    raise ValueError(f"unknown family {family!r}")


def accepted_epr_sequences(n: int) -> list[str]:
    """Sorted list of all order-n epr words accepted by classify_epr_z2."""
    if n < 1:
        raise ValueError("order must be >= 1")
    out: set[str] = set()
    for family in EPR_FAMILIES:
        out.update(epr_instances(family, n))
    return sorted(out)


def pr_instances(family: str, n: int) -> list[str]:
    """All order-n instances of one pr template family, as text."""
    if family == "P1":
        return [f"0]{'1' * a}{'0' * (n - a)}" for a in range(1, n + 1)]
    if family == "P2":
        return [f"1]{'01' * t}{'0' * (n - 2 * t)}" for t in range(n // 2 + 1)]
    if family == "P3":
        return [f"1]{'1' * a}{'0' * (n - a)}" for a in range(1, n + 1)]
    raise ValueError(f"unknown family {family!r}")


def accepted_pr_sequences(n: int) -> list[str]:
    """Sorted list of all order-n pr words accepted by classify_pr_char2."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n == 1:
        return ["0]1", "1]0"]
    out: set[str] = set()
    for family in PR_FAMILIES:
        out.update(pr_instances(family, n))
    return sorted(out)
