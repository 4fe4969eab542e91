"""Each verb loads only what it runs: no verb imports numpy or eprseq._engine
(`check-theorems` bit-slices its batches in pure Python and draws its seeded
cases from the standard library's random.Random), `epr`, `pr` and `minors` never the classifier,
`classify` and `classify-pr` never the matrix module, no verb dataclasses,
and `enumerate` neither the classifier nor the sequence module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).parent / "data"

SCRIPT = """
import contextlib, io, sys
import eprseq
import eprseq.cli as cli

def not_loaded(*names):
    loaded = [name for name in names if name in sys.modules]
    assert not loaded, loaded

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(list(argv))
    return code, out.getvalue()

SUBMODULES = tuple(f"eprseq.{m}" for m in ("classify", "witness", "matrix", "sequence", "gfield"))
not_loaded(*SUBMODULES, "dataclasses", "inspect")
assert run("epr", "{gf4}") == (0, "SASN\\n")
assert run("pr", "{gf4}") == (0, "1]1110\\n")
assert run("minors", "{gf4}", "-k", "2")[0] == 0
not_loaded("eprseq.classify", "eprseq.witness")
assert run("witness", "NSNA")[0] == 0
assert run("witness-pr", "1]010")[0] == 0
assert run("classify", "NSNA")[0] == 0
not_loaded("dataclasses", "numpy")
assert run("enumerate", "-n", "3")[0] == 0
assert run("enumerate", "--field", "gf4", "-n", "2")[0] == 0
assert run("verify", "-n", "3")[0] == 0
not_loaded("numpy", "eprseq._engine", "eprseq._suite")
assert run("check-theorems", "--max-n", "2")[0] == 0
not_loaded("numpy", "eprseq._engine")
missing = [name for name in eprseq.__all__ if not hasattr(eprseq, name)]
assert not missing, missing
assert set(eprseq.__all__) <= set(dir(eprseq))
"""


CLASSIFY_SCRIPT = """
import contextlib, io, sys
import eprseq.cli as cli

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["classify", "NSNA"]) == 0
    assert cli.main(["classify-pr", "1]010"]) == 0
assert "eprseq.matrix" not in sys.modules
import eprseq.sequence as sequence, eprseq.matrix as matrix
assert sequence._gf2_det is matrix._gf2_det and sequence._generic_det is matrix._generic_det
"""


ENUMERATE_SCRIPT = """
import contextlib, io, sys
import eprseq.cli as cli

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["enumerate", "-n", "3"]) == 0
loaded = [name for name in ("eprseq.classify", "eprseq.sequence") if name in sys.modules]
assert not loaded, loaded
"""


SWEEP_SCRIPT = """
import contextlib, io, sys
import eprseq.cli as cli

with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["enumerate", "-n", "3"]) == 0
    assert cli.main(["verify", "-n", "3"]) == 0
    assert cli.main(["check-theorems", "--max-n", "3", "--gf4-cases", "20"]) == 0
assert "dataclasses" not in sys.modules
"""


def run_script(script: str) -> None:
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_single_matrix_verbs_never_import_numpy():
    """Nor do enumerate and verify: their sweep is pure Python."""
    run_script(SCRIPT.replace("{gf4}", str(DATA / "sasn.txt")))


def test_classify_verbs_never_import_matrix():
    """The classifier needs no matrices; sequence serves the determinant
    kernels that bench/tracer.py wraps on first access instead."""
    run_script(CLASSIFY_SCRIPT)


def test_enumerate_never_imports_classifier_or_sequence():
    run_script(ENUMERATE_SCRIPT)


def test_sweep_verbs_never_import_dataclasses():
    run_script(SWEEP_SCRIPT)


def test_only_the_engine_imports_numpy():
    """eprseq._engine, the batched numpy minor tables that the bit-sliced table
    kernels are tested against, is the one module that imports numpy, and no
    module of the package imports it."""
    numpy_users, engine_users = set(), set()
    for path in (SRC / "eprseq").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module or ''}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                numpy_users.add(path.name)
            if any(name.split(".")[-1] == "_engine" for name in names):
                engine_users.add(path.name)
    assert (numpy_users, engine_users) == ({"_engine.py"}, set())


def test_the_suite_takes_no_elimination_from_matrix():
    """eprseq._suite eliminates only by its own bit-sliced _reduce_rows: it names
    none of matrix's elimination kernels, which stay the independent checks of it."""
    tree = ast.parse((SRC / "eprseq" / "_suite.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    assert "_reduce_rows" in names and not names & {"_eliminate", "_generic_det", "_gf2_det"}


def test_dir_lists_every_public_name():
    import eprseq

    names = dir(eprseq)
    assert names == sorted(names)
    assert set(eprseq.__all__) <= set(names) and "__version__" in names
