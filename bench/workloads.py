"""Seeded operation lists and output checkers for the three workloads.

A workload is a fixed list of CLI invocations (one pass) built from the
workload seed before any timing starts.  Every operation has a checker;
checkers are pure functions of the generated inputs and the captured
outputs, so the tests can feed them deliberately corrupted outputs.

* ``witness``: ``witness W -o F`` and ``witness-pr P -o F`` at orders 12
  and 16.  Words are an equal-probability systematic sample of every
  accepted epr and pr word of the order, taken over the population sorted
  by a visit-count proxy, so every template family can be drawn, no word
  is excluded for its cost, and the pass cost varies little between seeds.
* ``random-epr``: ``epr F``, ``pr F`` and ``minors F -k K`` on uniformly
  random symmetric matrices, GF(2) at orders 16-20 and GF(4) at 10-14.
* ``sweep``: the exhaustive verbs ``enumerate`` (GF(2), both job counts,
  and GF(4)), ``verify`` and ``check-theorems``; its inputs do not depend
  on the seed.
"""

from __future__ import annotations

import hashlib
import os
import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb

from eprseq.classify import (
    accepted_epr_sequences,
    accepted_pr_sequences,
    classify_epr_z2,
    classify_pr_char2,
)
from eprseq.matrix import MatrixFormatError, read_matrix
from eprseq.sequence import parse_epr, pr_of_epr

# argv placeholders: OUT is the op's output file in the pass directory and
# IN the directory holding the generated input files.
OUT = "{out}"
IN = "{in}"

_SYMBOLS = ("0", "1", "z", "w")  # element symbols of GF(2) and GF(4)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``argv`` after the program name."""

    key: str
    argv: tuple[str, ...]
    out: str | None = None  # output file name inside the pass directory

    def bind(self, in_dir: str, out_dir: str) -> list[str]:
        path = os.path.join(out_dir, self.out) if self.out else ""
        return [a.replace(IN, in_dir).replace(OUT, path) for a in self.argv]


@dataclass
class Result:
    """What one invocation left behind."""

    code: int
    stdout: str
    output: str | None = None  # text of the -o / --catalog file, if any


@dataclass
class Workload:
    name: str
    ops: list[Op]
    inputs: dict[str, str] = field(default_factory=dict)  # file name -> text
    params: dict = field(default_factory=dict)

    def digest(self) -> str:
        h = hashlib.sha256()
        for op in self.ops:
            h.update("\0".join((op.key,) + op.argv).encode())
        for name in sorted(self.inputs):
            h.update(name.encode() + b"\0" + self.inputs[name].encode())
        return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def _visit_proxy(seq: str) -> int:
    """Minors the re-verification must visit if S letters exit at once."""
    if "]" in seq:
        bits = seq.partition("]")[2]
        full = [k for k, b in enumerate(bits, 1) if b == "0"]
    else:
        full = [k for k, ch in enumerate(seq, 1) if ch in "AN"]
    n = len(seq.partition("]")[2] or seq)
    return sum(comb(n, k) * k for k in full)


def _systematic(rng: random.Random, population: list, k: int) -> list:
    step = len(population) / k
    start = rng.random() * step
    return [population[int(start + i * step)] for i in range(k)]


def witness_workload(seed: int, sizes=((12, 48), (16, 12))) -> Workload:
    """``sizes`` lists (order, invocations per pass)."""
    rng = random.Random(seed)
    ops = []
    for n, k in sizes:
        population = [("witness", w) for w in accepted_epr_sequences(n)]
        population += [("witness-pr", p) for p in accepted_pr_sequences(n)]
        population.sort(key=lambda vs: (_visit_proxy(vs[1]), vs))
        for verb, seq in _systematic(rng, population, min(k, len(population))):
            i = len(ops)
            ops.append(Op(f"{i:03d}", (verb, seq, "-o", OUT), out=f"w{i:03d}.txt"))
    rng.shuffle(ops)
    return Workload("witness", ops)


def independent_sequence(text: str, pr: bool) -> str:
    """epr word (or pr text) of a matrix file, one principal minor at a time.

    Uses ``SymMatrix.principal_submatrix(...).determinant()`` and never
    touches :mod:`eprseq.sequence`; it only stops early on S letters.
    """
    m = read_matrix(text)
    n = m.n
    letters = []
    for k in range(1, n + 1):
        zero = nonzero = False
        for alpha in combinations(range(1, n + 1), k):
            if m.principal_submatrix(alpha).determinant():
                nonzero = True
            else:
                zero = True
            if zero and nonzero:
                break
            if pr and nonzero:
                break
        letters.append("S" if zero and nonzero else "A" if nonzero else "N")
    word = "".join(letters)
    if pr:
        return str(pr_of_epr(word, m.has_zero_diagonal()))
    return word


def check_witness(verb: str, seq: str, res: Result) -> list[str]:
    """Failures of one ``witness``/``witness-pr`` invocation."""
    if res.code != 0:
        return [f"exit status {res.code}"]
    text = res.output or ""
    first = text.split("\n", 1)[0]
    if not first.startswith("# recipe: "):
        return ["missing '# recipe:' header"]
    family = first[len("# recipe: "):].split(":", 1)[0]
    pr = verb == "witness-pr"
    verdict = classify_pr_char2(seq) if pr else classify_epr_z2(seq)
    if family not in verdict.matched:
        return [f"recipe family {family!r} not among {verdict.matched}"]
    try:
        m = read_matrix(text)
    except MatrixFormatError as exc:
        return [f"unparsable witness: {exc}"]
    order = len(seq.partition("]")[2]) if pr else len(seq)
    if m.n != order or m.spec.name != "gf2":
        return [f"witness is {m.spec.name} of order {m.n}, wanted gf2 of order {order}"]
    got = independent_sequence(text, pr)
    if got != seq:
        return [f"witness attains {got}, wanted {seq}"]
    return []


# ---------------------------------------------------------------------------
# random-epr
# ---------------------------------------------------------------------------

MINORS_CAP = 10_000  # largest C(n, K) a `minors` call enumerates


def minors_order(n: int) -> int:
    """Largest K <= n/2 whose C(n, K) minors fit under ``MINORS_CAP``."""
    return max(k for k in range(1, n // 2 + 1) if comb(n, k) <= MINORS_CAP)


def matrix_text(field_name: str, grid: list[list[int]]) -> str:
    lines = [f"field {field_name}", f"n {len(grid)}"]
    lines += [" ".join(_SYMBOLS[x] for x in row) for row in grid]
    return "\n".join(lines) + "\n"


def random_symmetric(rng: random.Random, n: int, q: int) -> list[list[int]]:
    grid = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            grid[i][j] = grid[j][i] = rng.randrange(q)
    return grid


def random_epr_workload(
    seed: int, gf2_orders=range(16, 21), gf4_orders=range(10, 15), per_order: int = 2
) -> Workload:
    rng = random.Random(seed)
    ops, inputs, files = [], {}, {}
    for field_name, q, orders in (("gf2", 2, gf2_orders), ("gf4", 4, gf4_orders)):
        for n in orders:
            for r in range(per_order):
                name = f"{field_name}-n{n}-{r}.txt"
                grid = random_symmetric(rng, n, q)
                inputs[name] = matrix_text(field_name, grid)
                k = minors_order(n)
                files[name] = {"n": n, "k": k, "zero_diag": any(grid[i][i] == 0 for i in range(n))}
                # Dense random matrices reach S within a few subsets per order,
                # so the independent recomputation stays cheap.
                files[name]["epr"] = independent_sequence(inputs[name], pr=False)
                path = os.path.join(IN, name)
                ops.append(Op(f"epr:{name}", ("epr", path)))
                ops.append(Op(f"pr:{name}", ("pr", path)))
                ops.append(Op(f"minors:{name}", ("minors", path, "-k", str(k))))
    rng.shuffle(ops)
    return Workload("random-epr", ops, inputs, params={"files": files})


def check_random_epr(files: dict, results: dict[str, Result]) -> dict[str, list[str]]:
    """Failures per op key, each output held against the recomputed epr word."""
    fails: dict[str, list[str]] = {}
    for name, info in files.items():
        word = info["epr"]
        checks = (
            (f"epr:{name}", lambda res: _check_line(res, word)),
            (f"pr:{name}", lambda res: _check_line(res, str(pr_of_epr(word, info["zero_diag"])))),
            (f"minors:{name}", lambda res: _check_minors(res, info["n"], info["k"], word)),
        )
        for key, check_one in checks:
            errs = check_one(results[key])
            if errs:
                fails[key] = errs
    return fails


def _check_line(res: Result, want: str) -> list[str]:
    if res.code != 0:
        return [f"exit status {res.code}"]
    if res.stdout != want + "\n":
        return [f"printed {res.stdout!r}, wanted {want!r}"]
    return []


def _check_minors(res: Result, n: int, k: int, word: str) -> list[str]:
    if res.code != 0:
        return [f"exit status {res.code}"]
    lines = res.stdout.splitlines()
    if len(lines) != comb(n, k):
        return [f"{len(lines)} minor lines, wanted C({n},{k}) = {comb(n, k)}"]
    nonzero = 0
    for alpha, line in zip(combinations(range(1, n + 1), k), lines):
        label, _, value = line.partition("=")
        if label != "{" + ",".join(map(str, alpha)) + "}" or value not in _SYMBOLS:
            return [f"malformed minor line {line!r}"]
        nonzero += value != "0"
    want = "A" if nonzero == len(lines) else "N" if nonzero == 0 else "S"
    if word[k - 1] != want:
        return [f"{nonzero}/{len(lines)} nonzero order-{k} minors, epr letter {word[k - 1]}"]
    return []


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

GF4_REQUIRED = ("SAAA", "SASN")  # words only GF(4) attains at order 4


def sweep_workload(jobs: int, gf2_n: int = 6, gf4_n: int = 4, theorems=()) -> Workload:
    """``theorems`` holds extra ``check-theorems`` arguments (toy sizes)."""
    ops = [
        Op("gf2-jobs1", ("enumerate", "-n", str(gf2_n), "--jobs", "1", "--catalog", OUT), out="gf2-j1.txt"),
        Op("gf2-jobsN", ("enumerate", "-n", str(gf2_n), "--jobs", str(jobs), "--catalog", OUT), out="gf2-jN.txt"),
        Op("gf4", ("enumerate", "--field", "gf4", "-n", str(gf4_n), "--catalog", OUT), out="gf4.txt"),
        Op("verify", ("verify", "-n", str(gf2_n))),
        Op("theorems", ("check-theorems",) + tuple(theorems)),
    ]
    return Workload("sweep", ops, params={"gf2_n": gf2_n, "gf4_n": gf4_n})


def parse_catalog(text: str) -> dict[str, int]:
    counts = {}
    for line in text.splitlines():
        word, _, count = line.partition(" ")
        counts[parse_epr(word)] = int(count)
    return counts


def _suite_failures(res: Result, checks: int) -> list[str]:
    if res.code != 0:
        return [f"exit status {res.code}"]
    lines = [ln for ln in res.stdout.splitlines() if not ln.startswith("seed ")]
    rows = [ln.split(" ") for ln in lines]
    if len(rows) != checks or any(len(r) != 3 or r[2] != "0" for r in rows):
        return [f"expected {checks} checks with zero failures, got {lines[:checks + 2]}"]
    return []


def check_sweep(params: dict, results: dict[str, Result]) -> dict[str, list[str]]:
    n, n4 = params["gf2_n"], params["gf4_n"]
    fails: dict[str, list[str]] = {}

    def catalog(key: str, total: int, required=()) -> None:
        res = results[key]
        try:
            if res.code != 0:
                raise ValueError(f"exit status {res.code}")
            counts = parse_catalog(res.output or "")
            if sum(counts.values()) != total:
                raise ValueError(f"counts sum to {sum(counts.values())}, wanted {total}")
            missing = [w for w in required if w not in counts]
            if missing:
                raise ValueError(f"catalog lacks {missing}")
            if key.startswith("gf2") and sorted(counts) != accepted_epr_sequences(n):
                raise ValueError("attained words differ from accepted_epr_sequences")
        except ValueError as exc:
            fails[key] = [str(exc)]

    catalog("gf2-jobs1", 1 << (n * (n + 1) // 2))
    catalog("gf2-jobsN", 1 << (n * (n + 1) // 2))
    catalog("gf4", 4 ** (n4 * (n4 + 1) // 2), GF4_REQUIRED if n4 == 4 else ())
    if results["gf2-jobsN"].output != results["gf2-jobs1"].output:
        fails.setdefault("gf2-jobsN", []).append("catalog text differs between job counts")
    for key, checks in (("verify", 2), ("theorems", 16)):
        errs = _suite_failures(results[key], checks)
        if errs:
            fails[key] = errs
    return fails


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _witness_item(item: tuple) -> list[str]:
    verb, seq, code, stdout, output = item
    return check_witness(verb, seq, Result(code, stdout, output))


def check_witness_passes(wl: Workload, passes: list[dict[str, Result]], mapper=map) -> list[dict]:
    """Witness failures per pass; identical outputs are checked once."""
    items = {}
    for results in passes:
        for op in wl.ops:
            res = results[op.key]
            items.setdefault((op.argv[0], op.argv[1], res.code, res.stdout, res.output), None)
    verdicts = dict(zip(items, mapper(_witness_item, list(items))))
    out = []
    for results in passes:
        fails = {}
        for op in wl.ops:
            res = results[op.key]
            errs = verdicts[(op.argv[0], op.argv[1], res.code, res.stdout, res.output)]
            if errs:
                fails[op.key] = errs
        out.append(fails)
    return out


def check(wl: Workload, results: dict[str, Result]) -> dict[str, list[str]]:
    """Failures per op key for one pass of any workload."""
    if wl.name == "witness":
        return check_witness_passes(wl, [results])[0]
    if wl.name == "random-epr":
        return check_random_epr(wl.params["files"], results)
    return check_sweep(wl.params, results)
