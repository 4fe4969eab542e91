"""Exhaustive enumeration as the ground truth for the characterization.

Every symmetric GF(2) matrix of order n is visited (the upper triangle
packed into one integer; the matrices sharing a trailing block B[1:, 1:]
read their minors off that block's one table and a border word each),
its epr word recorded, and the attained set compared with the classifier
in both directions.  The two must agree exactly.
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
