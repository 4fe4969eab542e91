"""Running the structural facts as an executable test suite.

Sixteen checks cover everything the classifier and the witness recipes
lean on: minor inheritance, the inverse reversal law, Schur complement
identities, the characteristic-2 four-term squared-minor identity,
congruence invariance of pr bits, border-operation letter transforms,
and the closed forms of the named constructions.  GF(2) parts run
exhaustively; every matrix check also runs on seeded GF(4) matrices.
"""

from eprseq import theorem_suite

report = theorem_suite(max_n=4, seed=7, gf4_cases=300)
print(f"seed {report.seed}")
print(report.to_text())
print("all checks passed:", report.ok)
