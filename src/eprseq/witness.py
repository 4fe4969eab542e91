"""Witness matrices for attainable sequences over GF(2).

For every epr word accepted by the Z2 classifier (and every attainable
characteristic-2 pr word) this module builds an explicit symmetric GF(2)
matrix attaining it, together with a Recipe recording the construction.
Every recipe output is re-verified by recomputing its sequence before it
is returned; a mismatch raises WitnessMismatchError and means a bug, so
it aborts loudly rather than returning a wrong certificate.
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


def recipe_header(recipe: Recipe) -> str:
    return f"# recipe: {recipe.render()}\n"


def write_witness(m: SymMatrix, recipe: Recipe, stream: TextIOBase) -> None:
    """Serialize a witness: recipe comment header plus the matrix text."""
    stream.write(recipe_header(recipe))
    stream.write(m.to_text())


def _epr_recipe(family: str, word: str) -> tuple[SymMatrix, list[str]]:
    n = len(word)
    if family in ("N1", "N2"):
        return mx.complete_graph(n), [f"complete_graph({n})"]
    if family == "N3":
        t = word.count("S")
        if t == 0:
            return mx.zeros(n), [f"zeros({n})"]
        m = mx.complete_graph(2 * t)
        steps = [f"complete_graph({2 * t})"]
        for _ in range(n - 2 * t):
            m = m.append_zero()
            steps.append("append_zero")
        return m, steps
    if family == "N4":
        return mx.perfect_matching(n), [f"perfect_matching({n})"]
    if family == "N5":
        return mx.coned_matching(n), [f"coned_matching({n})"]
    if family == "A1":
        return mx.identity(n), [f"identity({n})"]
    if family == "A2":
        t = word.count("N")
        m = mx.identity(n - t)
        steps = [f"identity({n - t})"]
        for _ in range(t):
            m = m.append_duplicate_last()
            steps.append("append_duplicate_last")
        return m, steps
    if family == "A3":
        core = mx.loop_biclique(2, 1)
        steps = [f"identity({n - 3}) (+) loop_biclique(2,1)"]
        return mx.identity(n - 3).direct_sum(core), steps
    if family == "A4":
        core = mx.loop_biclique(2, 2)
        steps = [f"identity({n - 4}) (+) loop_biclique(2,2)"]
        return mx.identity(n - 4).direct_sum(core), steps
    if family == "A5":
        if n % 4 == 2:
            return mx.clique_matching(n), [f"clique_matching({n})"]
        return mx.wide_clique_matching(n), [f"wide_clique_matching({n})"]
    if family == "A6":
        return (
            mx.loop_split_graph(n, 1).inverse(),
            [f"inverse(loop_split_graph({n},1))"],
        )
    if family == "A7":
        return mx.loop_biclique(n - 2, 2), [f"loop_biclique({n - 2},2)"]
    if family == "A8":
        src = mx.loop_split_graph(n + 1, 2)
        return (
            src.schur_complement((1,)),
            [f"schur_complement(loop_split_graph({n + 1},2), {{1}})"],
        )
    if family == "S1":
        t = word.count("N")
        m = mx.identity(n - t)
        steps = [f"identity({n - t})"]
        for _ in range(t):
            m = m.append_zero()
            steps.append("append_zero")
        return m, steps
    if family == "S2":
        core = mx.loop_complete_graph(2)
        if n == 2:
            return core, ["loop_complete_graph(2)"]
        return (
            core.direct_sum(mx.identity(n - 2)),
            [f"loop_complete_graph(2) (+) identity({n - 2})"],
        )
    if family == "S3":
        if n == 3:
            return mx.loop_split_graph(3, 1), ["loop_split_graph(3,1)"]
        base = mx.identity(n - 3).direct_sum(mx.loop_biclique(2, 1))
        return (
            base.inverse(),
            [f"inverse(identity({n - 3}) (+) loop_biclique(2,1))"],
        )
    if family == "S4":
        if n % 2 == 0:
            return mx.pendant_loop_complete(n), [f"pendant_loop_complete({n})"]
        if (n + 1) % 4 == 2:
            src = mx.clique_matching(n + 1)
            steps = [f"schur_complement(clique_matching({n + 1}), {{{n + 1}}})"]
        else:
            src = mx.wide_clique_matching(n + 1)
            steps = [f"schur_complement(wide_clique_matching({n + 1}), {{{n + 1}}})"]
        return src.schur_complement((n + 1,)), steps
    if family == "S5":
        return mx.loop_split_graph(n, 1), [f"loop_split_graph({n},1)"]
    if family == "S6":
        return mx.loop_split_graph(n, 1), [f"loop_split_graph({n},1)"]
    if family == "S7":
        return mx.loop_split_graph(n, 2), [f"loop_split_graph({n},2)"]
    raise ValueError(f"no recipe for family {family!r}")


def witness_epr_z2(epr: str) -> tuple[SymMatrix, Recipe]:
    """Symmetric GF(2) matrix attaining the given epr word, with recipe.

    Raises NotAttainableError when the classifier rejects the word, and
    OrderLimitError above DEFAULT_MAX_ORDER before building anything.  The
    result is re-verified with compute_epr before returning.
    """
    word = parse_epr(epr)
    verdict = classify_epr_z2(word)
    if not verdict.attainable:
        raise NotAttainableError(word, verdict)
    check_order(len(word))
    family = verdict.matched[0]
    built, steps = _epr_recipe(family, word)
    recipe = Recipe(family, tuple(steps))
    got = compute_epr(built)
    if got != word:
        raise WitnessMismatchError(
            f"recipe {recipe.render()} built a matrix attaining {got}, wanted {word}"
        )
    return built, recipe


def _pr_recipe(family: str, seq: PrSequence) -> tuple[SymMatrix, list[str]]:
    n = seq.order
    bits = seq.bits
    if family == "P1":
        a = bits.count("1")
        if a == n:
            return mx.identity(n), [f"identity({n})"]
        return (
            mx.identity(a - 1).direct_sum(mx.ones(n - a + 1)),
            [f"identity({a - 1}) (+) ones({n - a + 1})"],
        )
    if family == "P2":
        t = bits.count("1")
        s = n - 2 * t
        if t == 0:
            return mx.zeros(n), [f"zeros({n})"]
        core = mx.perfect_matching(2 * t)
        if s == 0:
            return core, [f"perfect_matching({2 * t})"]
        return (
            core.direct_sum(mx.zeros(s)),
            [f"perfect_matching({2 * t}) (+) zeros({s})"],
        )
    if family == "P3":
        a = bits.count("1")
        if a == n:
            return mx.loop_complete_graph(n), [f"loop_complete_graph({n})"]
        return (
            mx.identity(a).direct_sum(mx.zeros(n - a)),
            [f"identity({a}) (+) zeros({n - a})"],
        )
    raise ValueError(f"no recipe for family {family!r}")


def witness_pr_char2(pr: PrSequence | str) -> tuple[SymMatrix, Recipe]:
    """GF(2) matrix attaining the given pr-sequence, with recipe; raises as witness_epr_z2."""
    seq = parse_pr(pr) if isinstance(pr, str) else pr
    verdict = classify_pr_char2(seq)
    if not verdict.attainable:
        raise NotAttainableError(str(seq), verdict)
    check_order(seq.order)
    family = verdict.matched[0]
    built, steps = _pr_recipe(family, seq)
    recipe = Recipe(family, tuple(steps))
    got = compute_pr(built)
    if got != seq:
        raise WitnessMismatchError(
            f"recipe {recipe.render()} built a matrix attaining {got}, wanted {seq}"
        )
    return built, recipe
