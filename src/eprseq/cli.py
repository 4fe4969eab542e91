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
attainable or check failures, 2 usage or parse errors.  Every refusal
after parsing (a bad file, an order out of bounds, an unwritable
output) prints one ``error: ...`` line to stderr and exits 2 from
``main``.  ``--jobs`` of ``enumerate`` and ``verify`` must be a positive
integer and has no other effect: a catalog depends only on its order and
field, and the sweep runs on one thread, so output is byte-identical for
every job count.  The flag stays for the scripts that pass it, and no
environment variable sets it.

This module imports no other eprseq module at load time: each verb
imports what it runs when it runs, so ``epr`` never loads the classifier
and no verb loads numpy.
"""

from __future__ import annotations

import argparse
import sys


def _read_matrix_arg(path: str):
    from .matrix import read_matrix

    if path == "-":
        return read_matrix(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as fh:
        return read_matrix(fh.read())


def _write_out(path: str | None, write) -> None:
    """Call write(stream) on standard output if path is None or -, else on the file at path."""
    if path is None or path == "-":
        write(sys.stdout)
        return
    with open(path, "w", encoding="utf-8") as fh:
        write(fh)


def _arg(*flags, **kwargs):
    return flags, kwargs


# verb -> (help, its arguments); main adds the arguments of the verb it runs only
_VERBS = {
    "epr": ("epr word of a serialized symmetric matrix", (
        _arg("file", help="matrix file, or - for stdin"),
        _arg("--force", action="store_true", help="lift the order guardrail"),
    )),
    "pr": ("pr-sequence of a serialized symmetric matrix", (
        _arg("file"),
        _arg("--force", action="store_true"),
    )),
    "minors": ("list order-K principal minors", (
        _arg("file"),
        _arg("-k", type=int, required=True, metavar="K"),
    )),
    "classify": ("decide epr attainability over Z2", (
        _arg("sequence"),
        _arg("--json", action="store_true", help="structured output"),
    )),
    "classify-pr": ("decide pr attainability, characteristic 2", (
        _arg("sequence"),
        _arg("--json", action="store_true"),
    )),
    "witness": ("matrix attaining an epr word over GF(2)", (
        _arg("sequence"),
        _arg("-o", "--output", default=None, metavar="FILE"),
    )),
    "witness-pr": ("matrix attaining a pr-sequence over GF(2)", (
        _arg("sequence"),
        _arg("-o", "--output", default=None, metavar="FILE"),
    )),
    "enumerate": ("catalog of attained epr words at order N", (
        _arg("-n", type=int, required=True, metavar="N"),
        _arg("--field", choices=("gf2", "gf4"), default="gf2"),
        _arg("--catalog", default=None, metavar="FILE"),
        _arg("--jobs", type=int, default=1),
        _arg("--force", action="store_true", help="allow the gated GF(2) n=7 and GF(4) n=5 runs"),
    )),
    "verify": ("enumeration vs classifier at order N", (
        _arg("-n", type=int, required=True, metavar="N"),
        _arg("--jobs", type=int, default=1),
    )),
    "check-theorems": ("run the verification suite", (
        _arg("--max-n", type=int, default=5),
        _arg("--seed", type=int, default=None),  # None: verify.DEFAULT_SEED
        _arg("--gf4-cases", type=int, default=1000),
    )),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of every verb, with arguments only for the verb argv names.

    The verb is the first word of argv that names one: any word before it
    is an option of the top-level parser, which takes no values.
    """
    parser = argparse.ArgumentParser(
        prog="eprseq",
        description="principal rank characteristic sequences over GF(2) and GF(4)",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    verb = next((word for word in argv if word in _VERBS), None)
    for name, (help_text, arguments) in _VERBS.items():
        p = sub.add_parser(name, help=help_text)
        if name == verb:
            for flags, kwargs in arguments:
                p.add_argument(*flags, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        return _dispatch(args)
    except (ValueError, OSError) as exc:  # MatrixFormatError and OrderLimitError among them
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    if getattr(args, "jobs", 1) < 1:  # enumerate's and verify's --jobs: checked, then unused
        raise ValueError(f"--jobs takes a positive integer, got {args.jobs}")

    if args.verb in ("epr", "pr"):
        from .sequence import DEFAULT_MAX_ORDER, compute_epr, compute_pr

        m = _read_matrix_arg(args.file)
        compute = compute_epr if args.verb == "epr" else compute_pr
        print(compute(m, max_order=None if args.force else DEFAULT_MAX_ORDER))
        return 0

    if args.verb == "minors":
        m = _read_matrix_arg(args.file)
        if not 0 <= args.k <= m.n:
            raise ValueError(f"-k must be in 0..{m.n}")
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
        _write_out(args.output, lambda stream: write_witness(matrix, recipe, stream))
        return 0

    if args.verb == "enumerate":
        from .gfield import GF2, GF4
        from .verify import enumerate_epr

        spec = GF2 if args.field == "gf2" else GF4
        catalog = enumerate_epr(args.n, spec, force=args.force)
        _write_out(args.catalog, lambda stream: stream.write(catalog.to_text()))
        return 0

    if args.verb == "verify":
        from .verify import compare_with_classifier

        report = compare_with_classifier(args.n)
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
