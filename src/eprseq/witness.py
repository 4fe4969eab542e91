"""Witness matrices for attainable sequences over GF(2).

For every epr word accepted by the Z2 classifier (and every attainable
characteristic-2 pr word) this module builds an explicit symmetric GF(2)
matrix attaining it, together with a Recipe recording the construction;
the calls that build the matrix also spell its recipe.  Every witness is
re-verified by recomputing its sequence before it is returned; a
mismatch raises WitnessMismatchError and means a bug, so it aborts
loudly rather than returning a wrong certificate.
"""

from __future__ import annotations

from collections import namedtuple
from io import TextIOBase

from . import matrix as mx
from .classify import Verdict, classify_epr_z2, classify_pr_char2
from .matrix import SymMatrix
from .sequence import PrSequence, check_order, compute_epr, compute_pr, parse_epr, parse_pr


class NotAttainableError(ValueError):
    """The requested sequence is not attainable; carries the verdict."""

    def __init__(self, sequence: str, verdict: Verdict):
        super().__init__(f"{sequence}: {verdict.render()}")
        self.sequence = sequence
        self.verdict = verdict


class WitnessMismatchError(RuntimeError):
    """A recipe produced a matrix that fails re-verification (a bug)."""


class Recipe(namedtuple("Recipe", "form steps")):
    """Construction provenance: matched form plus ordered directives."""

    __slots__ = ()

    def render(self) -> str:
        return f"{self.form}: " + "; ".join(self.steps)


def write_witness(m: SymMatrix, recipe: Recipe, stream: TextIOBase) -> None:
    """Serialize a witness: recipe comment header plus the matrix text."""
    stream.write(f"# recipe: {recipe.render()}\n")
    stream.write(m.to_text())


# A construction is a (matrix, text) pair whose text is its recipe steps
# joined by "; ".  Each combinator builds the matrix and spells its text in
# the same call, so the printed recipe is the construction that ran.

def _named(kind: str, *params: int) -> tuple[SymMatrix, str]:
    return mx.construct_named(kind, params), f"{kind}({','.join(map(str, params))})"


def _sum(x, y):
    return x[0].direct_sum(y[0]), f"{x[1]} (+) {y[1]}"


def _inverse(x):
    return x[0].inverse(), f"inverse({x[1]})"


def _schur(x, k: int):
    return x[0].schur_complement((k,)), f"schur_complement({x[1]}, {{{k}}})"


def _appended(x, step: str, count: int):
    """x with count indices appended in one build, its recipe naming one step per index."""
    return getattr(x[0], step)(count), "; ".join((x[1],) + (step,) * count)


def _a3(n: int):
    return _sum(_named("identity", n - 3), _named("loop_biclique", 2, 1))


def _a5(n: int):
    return _named("clique_matching" if n % 4 == 2 else "wide_clique_matching", n)


# family -> construction of order n; c counts one letter of the word (one bit of a pr word)
_CONSTRUCTIONS = {
    "N1": lambda n, c: _named("complete_graph", n),
    "N2": lambda n, c: _named("complete_graph", n),
    "N3": lambda n, c: (
        _appended(_named("complete_graph", 2 * c("S")), "append_zero", n - 2 * c("S"))
        if c("S") else _named("zeros", n)
    ),
    "N4": lambda n, c: _named("perfect_matching", n),
    "N5": lambda n, c: _named("coned_matching", n),
    "A1": lambda n, c: _named("identity", n),
    "A2": lambda n, c: _appended(_named("identity", n - c("N")), "append_duplicate_last", c("N")),
    "A3": lambda n, c: _a3(n),
    "A4": lambda n, c: _sum(_named("identity", n - 4), _named("loop_biclique", 2, 2)),
    "A5": lambda n, c: _a5(n),
    "A6": lambda n, c: _inverse(_named("loop_split_graph", n, 1)),
    "A7": lambda n, c: _named("loop_biclique", n - 2, 2),
    "A8": lambda n, c: _schur(_named("loop_split_graph", n + 1, 2), 1),
    "S1": lambda n, c: _appended(_named("identity", n - c("N")), "append_zero", c("N")),
    "S2": lambda n, c: (
        _sum(_named("loop_complete_graph", 2), _named("identity", n - 2))
        if n > 2 else _named("loop_complete_graph", 2)
    ),
    "S3": lambda n, c: _inverse(_a3(n)) if n > 3 else _named("loop_split_graph", 3, 1),
    "S4": lambda n, c: _schur(_a5(n + 1), n + 1) if n % 2 else _named("pendant_loop_complete", n),
    "S5": lambda n, c: _named("loop_split_graph", n, 1),
    "S6": lambda n, c: _named("loop_split_graph", n, 1),
    "S7": lambda n, c: _named("loop_split_graph", n, 2),
    "P1": lambda n, c: (
        _sum(_named("identity", c("1") - 1), _named("ones", n - c("1") + 1))
        if c("1") < n else _named("identity", n)
    ),
    "P2": lambda n, c: (
        _named("zeros", n) if c("1") == 0
        else _named("perfect_matching", n) if 2 * c("1") == n
        else _sum(_named("perfect_matching", 2 * c("1")), _named("zeros", n - 2 * c("1")))
    ),
    "P3": lambda n, c: (
        _sum(_named("identity", c("1")), _named("zeros", n - c("1")))
        if c("1") < n else _named("loop_complete_graph", n)
    ),
}


def _certify(target, letters: str, verdict: Verdict, compute) -> tuple[SymMatrix, Recipe]:
    """Build the matched family's construction for target and re-verify it."""
    if not verdict.attainable:
        raise NotAttainableError(str(target), verdict)
    check_order(len(letters))
    family = verdict.matched[0]
    built, text = _CONSTRUCTIONS[family](len(letters), letters.count)
    recipe = Recipe(family, tuple(text.split("; ")))
    got = compute(built)
    if got != target:
        raise WitnessMismatchError(
            f"recipe {recipe.render()} built a matrix attaining {got}, wanted {target}"
        )
    return built, recipe


def witness_epr_z2(epr: str) -> tuple[SymMatrix, Recipe]:
    """Symmetric GF(2) matrix attaining the given epr word, with recipe.

    Raises NotAttainableError when the classifier rejects the word, and
    OrderLimitError above DEFAULT_MAX_ORDER before building anything.  The
    result is re-verified with compute_epr before returning.
    """
    word = parse_epr(epr)
    return _certify(word, word, classify_epr_z2(word), compute_epr)


def witness_pr_char2(pr: PrSequence | str) -> tuple[SymMatrix, Recipe]:
    """GF(2) matrix attaining the given pr-sequence, with recipe; raises as witness_epr_z2."""
    seq = parse_pr(pr) if isinstance(pr, str) else pr
    return _certify(seq, seq.bits, classify_pr_char2(seq), compute_pr)
