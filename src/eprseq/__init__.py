"""Enhanced principal rank characteristic sequences over small binary fields.

The library computes epr- and pr-sequences of symmetric matrices over
GF(2^k), decides attainability over Z2 (epr) and over characteristic-2
fields (pr) by complete template characterizations, synthesizes witness
matrices for every attainable sequence, and verifies the whole story
against exhaustive enumeration.

The package is one lazy namespace: ``import eprseq`` loads no submodule,
and each public name imports the submodule that defines it on first use
(PEP 562), so a process pays only for what it touches.  No public name
imports numpy: eprseq._engine, the batched numpy minor tables the tests
hold the bit-sliced table kernels to, is imported by no module here.
"""

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_HOMES = {
    name: module
    for module, names in (
        ("gfield", "GF2 GF4 FieldError FieldSpec field_make"),
        ("matrix", """MatrixFormatError SingularMatrixError SymMatrix clique_matching
            complement_labels complete_graph coned_matching construct_named identity
            loop_biclique loop_complete_graph loop_split_graph ones pendant_loop_complete
            perfect_matching read_matrix wide_clique_matching zeros"""),
        ("sequence", """DEFAULT_MAX_ORDER OrderLimitError PrSequence compute_epr compute_pr
            parse_epr parse_pr pr_of_epr"""),
        ("classify", """EPR_FAMILIES PR_FAMILIES RuleHit Verdict accepted_epr_sequences
            accepted_pr_sequences classify_epr_z2 classify_pr_char2 epr_instances
            pr_instances rule_violations"""),
        ("witness", """NotAttainableError Recipe WitnessMismatchError witness_epr_z2
            witness_pr_char2 write_witness"""),
        ("verify", """BoundExceededError CheckResult EprCatalog SuiteReport
            attained_pr_sequences compare_with_classifier enumerate_epr theorem_suite"""),
    )
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name in _HOMES:
        from importlib import import_module

        return getattr(import_module(f".{_HOMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOMES))
