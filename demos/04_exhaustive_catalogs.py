"""Exhaustive enumeration as the ground truth for the characterization.

Every symmetric GF(2) matrix of order n is counted (the upper triangle
packed into one integer).  The epr word is invariant under simultaneous
row and column permutation, so only the matrices whose trailing block
B[1:, 1:] is the least of its orbit are swept, each word weighted by the
orbit's size; the sweep is bit-sliced, one Python int per minor with one
bit per matrix, so it needs no numpy.  The attained set is
compared with the classifier in both directions; the two must agree
exactly.
"""

from eprseq import compare_with_classifier, enumerate_epr

for n in range(1, 6):
    catalog = enumerate_epr(n)
    print(f"order {n}: {len(catalog.counts):2d} words attained "
          f"by {catalog.total()} matrices")

# Full catalog with counts and a first-found witness for each word.
catalog = enumerate_epr(4)
for word in sorted(catalog.counts):
    print(f"  {word} x{catalog.counts[word]:>5}  e.g. "
          f"{[list(r) for r in catalog.exemplar[word].rows]}")

# Agreement with the classifier, both directions, is the theorem.
report = compare_with_classifier(5)
print(report.to_text())
assert report.ok
