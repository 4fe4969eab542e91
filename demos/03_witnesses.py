"""Synthesizing a certificate matrix for every attainable sequence.

Each accepted word is matched to its template family, whose one
construction (named graphs, direct sums, inverses, Schur complements,
appended rows) builds the matrix and spells its recipe in the same
calls; the result is re-verified by recomputing its sequence before it
is returned.
"""

import io

from eprseq import (
    NotAttainableError,
    compute_epr,
    witness_epr_z2,
    witness_pr_char2,
    write_witness,
)

for word in ("NSNSNA", "ASSSAN", "SASAN", "ASASA", "SSAA"):
    matrix, recipe = witness_epr_z2(word)
    print(f"{word:8s} via {recipe.render()}")
    assert compute_epr(matrix) == word

# Serialized witnesses carry their recipe as a comment header.
matrix, recipe = witness_epr_z2("SSAN")
buf = io.StringIO()
write_witness(matrix, recipe, buf)
print()
print(buf.getvalue())

# pr-sequences get witnesses from diagonal/matching/zero building blocks.
matrix, recipe = witness_pr_char2("1]0100")
print("1]0100 via", recipe.render())

# Unattainable input raises with the classifier's explanation attached.
try:
    witness_epr_z2("NSA")
except NotAttainableError as exc:
    print("NSA     ->", exc.verdict.render())
