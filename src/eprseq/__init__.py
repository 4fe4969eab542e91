"""Enhanced principal rank characteristic sequences over small binary fields.

The library computes epr- and pr-sequences of symmetric matrices over
GF(2^k), decides attainability over Z2 (epr) and over characteristic-2
fields (pr) by complete template characterizations, synthesizes witness
matrices for every attainable sequence, and verifies the whole story
against exhaustive enumeration.
"""

from .classify import (
    EPR_FAMILIES,
    PR_FAMILIES,
    RuleHit,
    Verdict,
    accepted_epr_sequences,
    accepted_pr_sequences,
    classify_epr_z2,
    classify_pr_char2,
    epr_instances,
    pr_instances,
    rule_violations,
)
from .gfield import GF2, GF4, FieldError, FieldSpec, field_make
from .matrix import (
    MatrixFormatError,
    SingularMatrixError,
    SymMatrix,
    clique_matching,
    complement_labels,
    complete_graph,
    coned_matching,
    construct_named,
    identity,
    loop_biclique,
    loop_complete_graph,
    loop_split_graph,
    ones,
    pendant_loop_complete,
    perfect_matching,
    read_matrix,
    wide_clique_matching,
    zeros,
)
from .sequence import (
    DEFAULT_MAX_ORDER,
    OrderLimitError,
    PrSequence,
    compute_epr,
    compute_pr,
    parse_epr,
    parse_pr,
    pr_of_epr,
)
from .witness import (
    NotAttainableError,
    Recipe,
    WitnessMismatchError,
    witness_epr_z2,
    witness_pr_char2,
    write_witness,
)

__version__ = "0.1.0"

# Served on first use (PEP 562): eprseq.verify imports numpy, which the
# single-matrix code paths never need.
_VERIFY_NAMES = frozenset({
    "BoundExceededError",
    "CheckResult",
    "EprCatalog",
    "SuiteReport",
    "attained_pr_sequences",
    "compare_with_classifier",
    "enumerate_epr",
    "theorem_suite",
})


def __getattr__(name: str):
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "EPR_FAMILIES",
    "PR_FAMILIES",
    "GF2",
    "GF4",
    "DEFAULT_MAX_ORDER",
    "BoundExceededError",
    "CheckResult",
    "EprCatalog",
    "FieldError",
    "FieldSpec",
    "MatrixFormatError",
    "NotAttainableError",
    "OrderLimitError",
    "PrSequence",
    "Recipe",
    "RuleHit",
    "SingularMatrixError",
    "SuiteReport",
    "SymMatrix",
    "Verdict",
    "WitnessMismatchError",
    "accepted_epr_sequences",
    "accepted_pr_sequences",
    "attained_pr_sequences",
    "classify_epr_z2",
    "classify_pr_char2",
    "clique_matching",
    "compare_with_classifier",
    "complement_labels",
    "complete_graph",
    "compute_epr",
    "compute_pr",
    "coned_matching",
    "construct_named",
    "enumerate_epr",
    "epr_instances",
    "field_make",
    "identity",
    "loop_biclique",
    "loop_complete_graph",
    "loop_split_graph",
    "ones",
    "parse_epr",
    "parse_pr",
    "pendant_loop_complete",
    "perfect_matching",
    "pr_instances",
    "pr_of_epr",
    "read_matrix",
    "rule_violations",
    "theorem_suite",
    "wide_clique_matching",
    "witness_epr_z2",
    "witness_pr_char2",
    "write_witness",
    "zeros",
]
