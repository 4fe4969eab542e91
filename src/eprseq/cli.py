"""Command-line interface.

One verb per invocation::

    eprseq epr FILE            print the epr word of a serialized matrix
    eprseq pr FILE             print the pr-sequence
    eprseq minors FILE -k K    list the order-K principal minors
    eprseq classify SEQ        decide epr attainability over Z2
    eprseq classify-pr SEQ     decide pr attainability (characteristic 2)
    eprseq witness SEQ         write a witness matrix with a recipe header
    eprseq witness-pr SEQ      same for a pr-sequence
    eprseq enumerate -n N      write the attained-word catalog
    eprseq verify -n N         enumeration vs classifier cross-check
    eprseq check-theorems      run the sixteen-check suite

FILE may be ``-`` for standard input, and ``-o -`` writes to standard
output.  Exit status: 0 success / attainable / zero failures, 1 not
attainable or check failures, 2 usage or parse errors.  ``--jobs``
(default from EPRSEQ_JOBS, a positive integer) splits enumeration into
ranges run on at most os.cpu_count() threads; output is byte-identical
for every job count.

This module imports no other eprseq module at load time: each verb
imports what it runs when it runs, so ``epr`` never loads the classifier
and only the sweep verbs load numpy (through eprseq.verify).
"""

from __future__ import annotations

import argparse
import os
import sys


def _jobs(arg: int | None) -> int:
    """--jobs, else EPRSEQ_JOBS, else 1; anything but a positive count exits 2."""
    raw = os.environ.get("EPRSEQ_JOBS", "1") if arg is None else str(arg)
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"--jobs and EPRSEQ_JOBS take a positive integer, got {raw!r}")
    return int(raw)


def _read_matrix_arg(path: str):
    from .matrix import read_matrix

    if path == "-":
        return read_matrix(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return read_matrix(fh.read())


def _open_out(path: str | None):
    if path is None or path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8"), True


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eprseq",
        description="principal rank characteristic sequences over GF(2) and GF(4)",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("epr", help="epr word of a serialized symmetric matrix")
    p.add_argument("file", help="matrix file, or - for stdin")
    p.add_argument("--force", action="store_true", help="lift the order guardrail")

    p = sub.add_parser("pr", help="pr-sequence of a serialized symmetric matrix")
    p.add_argument("file")
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("minors", help="list order-K principal minors")
    p.add_argument("file")
    p.add_argument("-k", type=int, required=True, metavar="K")

    p = sub.add_parser("classify", help="decide epr attainability over Z2")
    p.add_argument("sequence")
    p.add_argument("--json", action="store_true", help="structured output")

    p = sub.add_parser("classify-pr", help="decide pr attainability, characteristic 2")
    p.add_argument("sequence")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("witness", help="matrix attaining an epr word over GF(2)")
    p.add_argument("sequence")
    p.add_argument("-o", "--output", default=None, metavar="FILE")

    p = sub.add_parser("witness-pr", help="matrix attaining a pr-sequence over GF(2)")
    p.add_argument("sequence")
    p.add_argument("-o", "--output", default=None, metavar="FILE")

    p = sub.add_parser("enumerate", help="catalog of attained epr words at order N")
    p.add_argument("-n", type=int, required=True, metavar="N")
    p.add_argument("--field", choices=("gf2", "gf4"), default="gf2")
    p.add_argument("--catalog", default=None, metavar="FILE")
    p.add_argument("--jobs", type=int, default=None)
    p.add_argument("--force", action="store_true", help="allow the gated GF(2) n=7 and GF(4) n=5 runs")

    p = sub.add_parser("verify", help="enumeration vs classifier at order N")
    p.add_argument("-n", type=int, required=True, metavar="N")
    p.add_argument("--jobs", type=int, default=None)

    p = sub.add_parser("check-theorems", help="run the verification suite")
    p.add_argument("--max-n", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)  # None: verify.DEFAULT_SEED
    p.add_argument("--gf4-cases", type=int, default=1000)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        return _dispatch(args)
    except ValueError as exc:  # MatrixFormatError and OrderLimitError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if args.verb in ("epr", "pr"):
        from .sequence import DEFAULT_MAX_ORDER, compute_epr, compute_pr

        m = _read_matrix_arg(args.file)
        compute = compute_epr if args.verb == "epr" else compute_pr
        print(compute(m, max_order=None if args.force else DEFAULT_MAX_ORDER))
        return 0

    if args.verb == "minors":
        m = _read_matrix_arg(args.file)
        if not 0 <= args.k <= m.n:
            print(f"error: -k must be in 0..{m.n}", file=sys.stderr)
            return 2
        _write_minors(m, args.k)
        return 0

    if args.verb in ("classify", "classify-pr"):
        from .classify import classify_epr_z2, classify_pr_char2

        classify = classify_epr_z2 if args.verb == "classify" else classify_pr_char2
        verdict = classify(args.sequence)
        _print_verdict(verdict, args.json)
        return 0 if verdict.attainable else 1

    if args.verb in ("witness", "witness-pr"):
        from .witness import NotAttainableError, witness_epr_z2, witness_pr_char2, write_witness

        witness = witness_epr_z2 if args.verb == "witness" else witness_pr_char2
        try:
            matrix, recipe = witness(args.sequence)
        except NotAttainableError as exc:
            print(exc.verdict.render())
            return 1
        stream, close = _open_out(args.output)
        try:
            write_witness(matrix, recipe, stream)
        finally:
            if close:
                stream.close()
        return 0

    if args.verb == "enumerate":
        from .gfield import GF2, GF4
        from .verify import enumerate_epr

        jobs = _jobs(args.jobs)
        spec = GF2 if args.field == "gf2" else GF4
        catalog = enumerate_epr(args.n, spec, jobs=jobs, force=args.force)
        stream, close = _open_out(args.catalog)
        try:
            stream.write(catalog.to_text())
        finally:
            if close:
                stream.close()
        return 0

    if args.verb == "verify":
        from .verify import compare_with_classifier

        jobs = _jobs(args.jobs)
        report = compare_with_classifier(args.n, jobs=jobs)
        sys.stdout.write(report.to_text())
        return 0 if report.ok else 1

    if args.verb == "check-theorems":
        from .verify import DEFAULT_SEED, theorem_suite

        seed = DEFAULT_SEED if args.seed is None else args.seed
        report = theorem_suite(max_n=args.max_n, seed=seed, gf4_cases=args.gf4_cases)
        print(f"seed {seed}")
        sys.stdout.write(report.to_text())
        return 0 if report.ok else 1

    raise AssertionError(f"unhandled verb {args.verb!r}")


def _write_minors(m, k: int) -> None:
    """One "{i,j,...}=value" line per order-k principal minor, subsets in lexicographic order."""
    from itertools import combinations

    from .sequence import minor_planes

    planes = [p.to_bytes(max(1, 1 << m.n >> 3), "little") for p in minor_planes(m)]
    symbols = [m.spec.to_symbol(v) for v in range(m.spec.order)]
    masks = map(sum, combinations([1 << i for i in range(m.n)], k))
    labels = map(",".join, combinations([str(i + 1) for i in range(m.n)], k))
    lines = []
    for s, label in zip(masks, labels):
        byte, bit = s >> 3, s & 7
        det = 0
        for t, plane in enumerate(planes):
            det |= (plane[byte] >> bit & 1) << t
        lines.append(f"{{{label}}}={symbols[det]}\n")
        if len(lines) == 1 << 16:  # bounds the text held for C(24, 12)-line listings
            sys.stdout.write("".join(lines))
            lines.clear()
    sys.stdout.write("".join(lines))


def _print_verdict(verdict, as_json: bool) -> None:
    if as_json:
        import json

        print(json.dumps(verdict.to_dict()))
    else:
        print(verdict.render())


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
