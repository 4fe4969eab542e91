"""Exhaustive and randomized verification suites.

``enumerate_epr`` aggregates the epr words of every symmetric matrix of
a given small order over GF(2^d), gated by the matrix count, into a
catalog, swept in pure Python (eprseq._sweep); ``compare_with_classifier``
checks that the catalog and the template classifier agree exactly.
``theorem_suite`` runs sixteen seeded, reproducible checks, one per
structural fact the library relies on, over GF(2) exhaustively and over
GF(4) by sampling; they live in eprseq._suite, bit-sliced in pure Python
as the catalogs are, so no verb loads numpy.
"""

from __future__ import annotations

import operator
from collections import namedtuple
from functools import lru_cache
from itertools import product

from ._sweep import _catalog, catalog_gf2, catalog_gf4, code_matrix, tri
from .gfield import GF2, GF4, FieldSpec

DEFAULT_SEED = 1729


class BoundExceededError(ValueError):
    """Enumeration request beyond the gated bounds."""


class EprCatalog(namedtuple("EprCatalog", "order field counts exemplar")):
    """Attained epr words of one order with counts and first witnesses."""

    __slots__ = ()

    def total(self) -> int:
        return sum(self.counts.values())

    def to_text(self) -> str:
        """Export: one "<epr> <count>" line per word, sorted lexicographically."""
        return "".join(f"{w} {self.counts[w]}\n" for w in sorted(self.counts))


class CheckResult(namedtuple("CheckResult", "name cases failures", defaults=((),))):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures


class SuiteReport(namedtuple("SuiteReport", "checks seed", defaults=(None,))):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_text(self) -> str:
        """One "<name> <cases> <failures>" line per check, then failures."""
        lines = [f"{c.name} {c.cases} {len(c.failures)}" for c in self.checks]
        for c in self.checks:
            for f in c.failures:
                lines.append(f"FAIL {c.name}: {f}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

# log2 of the matrix counts open to enumerate_epr and gated behind force
_OPEN_BITS, _GATED_BITS = 21, 30


@lru_cache(maxsize=32)
def _catalog_raw(n: int, spec: FieldSpec):
    # bench/tracer.py times catalog_gf2 and catalog_gf4 under _engine's names
    if spec == GF2:
        return catalog_gf2(n)
    if spec == GF4:
        return catalog_gf4(n)
    return _catalog(n, spec)


def enumerate_epr(n: int, spec: FieldSpec = GF2, *, force: bool = False) -> EprCatalog:
    """Catalog of every epr word attained at order n over GF(2^d).

    Counts cover all 2^(d n(n+1)/2) matrices, and each exemplar is the first
    attaining matrix in code order, but only the matrices whose trailing
    block B[1:, 1:] is the least of its permutation orbit are swept
    (_sweep._catalog).  Up to 2^21 matrices are open, up to 2^30 gated
    behind ``force=True``, more refused.  A catalog depends only on n and
    spec, and is swept once per process.  Fresh processes on a 2-vCPU host
    take 0.2 s and 17 MiB peak RSS for GF(2) n = 7 (2^28, 652K swept), 0.9 s
    and 31 MiB for GF(4) n = 5 (2^30, 50M swept), 2.3 s and 27 MiB for GF(8)
    n = 4, and 3.9 s and 20 MiB for GF(32) n = 3, the gated catalogs.
    """
    n = _int_arg("n", n)
    if n < 1:
        raise BoundExceededError("enumeration needs order >= 1")
    label = f"GF({spec.order})"
    bits = spec.degree * tri(n)
    if bits > _GATED_BITS:
        gate = max(k for k in range(1, n) if spec.degree * tri(k) <= _GATED_BITS)
        raise BoundExceededError(f"{label} enumeration is bounded at n <= {gate}, got {n}")
    if bits > _OPEN_BITS and not force:
        advice = "run it with force=True (eprseq enumerate --force)"
        raise BoundExceededError(f"{label} enumeration at n = {n} visits 2^{bits} matrices; {advice}")
    counts, exemplar_codes = _catalog_raw(n, spec)
    exemplar = {w: code_matrix(code, n, spec) for w, code in exemplar_codes.items()}
    return EprCatalog(n, spec.name, dict(counts), exemplar)


def attained_pr_sequences(n: int, spec: FieldSpec = GF2, *, force: bool = False) -> set[str]:
    """Every pr word attained by a symmetric matrix of order n over spec,
    read off the attained epr words (r0 = 1 iff letter 1 is not A), under
    the bounds of :func:`enumerate_epr`."""
    from .sequence import pr_of_epr

    words = enumerate_epr(n, spec, force=force).counts
    return {str(pr_of_epr(w, w[0] != "A")) for w in words}


def compare_with_classifier(n: int) -> SuiteReport:
    """Cross-check enumeration against the Z2 classifier at order n.

    Sweeps the GF(2) catalog of :func:`enumerate_epr`, under its bounds, and
    reports words attained but rejected (soundness breach) and words
    accepted but never attained (completeness breach); both must be
    empty.
    """
    from .classify import classify_epr_z2

    catalog = enumerate_epr(n, GF2)
    attained = set(catalog.counts)
    accepted = {
        "".join(word)
        for word in product("ANS", repeat=catalog.order)
        if classify_epr_z2("".join(word)).attainable
    }
    sound = CheckResult("attained-but-rejected", len(attained), sorted(attained - accepted))
    complete = CheckResult("accepted-but-unattained", len(accepted), sorted(accepted - attained))
    return SuiteReport([sound, complete])


def _int_arg(name: str, value) -> int:
    """value as an int (bools and numpy integers too), refusing anything else by name."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an int, got {value!r}") from None


def theorem_suite(
    *, max_n: int = 5, seed: int = DEFAULT_SEED, gf4_cases: int = 1000
) -> SuiteReport:
    """Run all sixteen checks; zero failures expected at default bounds.

    Matrix-quantified checks run exhaustively over GF(2) up to ``max_n``,
    in one pass over the orders (six of them once per S_n orbit, on its
    least code, weighted by the orbit's size), and the same pass runs every
    one of them on ``gf4_cases`` seeded GF(4) matrices of order 1..5, one
    batch per order; word-level checks use catalogs up to ``max_n + 1``.
    Each drawn matrix is held, as its code and its grid E's code, until the
    pass ends, so ``gf4_cases`` is capped at 10^5: on a 2-vCPU host
    ``check-theorems`` then takes about 0.5 s and 26 MiB of peak RSS,
    against about 0.13 s and 16 MiB at the default 1000.
    """
    max_n = _int_arg("max_n", max_n)
    if not 2 <= max_n <= 5:
        raise ValueError(f"max_n must be in [2, 5], got {max_n}")
    gf4_cases = _int_arg("gf4_cases", gf4_cases)
    if not 0 <= gf4_cases <= 10**5:
        raise ValueError(f"gf4_cases must be in [0, 10^5], got {gf4_cases}")
    seed = _int_arg("seed", seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    from ._suite import run_checks

    return SuiteReport(run_checks(max_n, seed, gf4_cases), seed=seed)
