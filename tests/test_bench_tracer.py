"""The benchmark's layer tracer still installs over the current modules."""

import sys
from pathlib import Path

import pytest

from eprseq import cli

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"


def traced_main(monkeypatch, argv):
    """(exit code, tracer) of one cli.main run with bench/tracer.py installed."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv), tracer
    finally:
        tracer.uninstall()


def test_traced_epr_run(capsys, monkeypatch):
    code, tracer = traced_main(monkeypatch, ["epr", str(DATA / "sasn.txt")])
    assert (code, capsys.readouterr().out) == (0, "SASN\n")
    assert [s.name for s in tracer.spans] == ["sequence"]


def test_traced_check_theorems_run(capsys, monkeypatch):
    argv = ["check-theorems", "--max-n", "3", "--gf4-cases", "20"]
    assert cli.main(argv) == 0
    plain = capsys.readouterr().out
    code, tracer = traced_main(monkeypatch, argv)
    assert (code, capsys.readouterr().out) == (0, plain)
    assert "verify.theorem_suite" in {s.name for s in tracer.spans}
    # each case of these two checks takes one GF(2) determinant by elimination
    cases = dict(line.split()[:2] for line in plain.splitlines()[1:])
    gf2_dets = int(cases["loop-split-determinant"]) + int(cases["loop-complete-nonsingular"])
    assert tracer.counts["matrix.det.calls"] >= gf2_dets > 0


@pytest.mark.parametrize("word", ["ASASA", "ASAN", "SSSAN"])  # inverse, A8 and S4 Schur recipes
def test_traced_witness_run(capsys, monkeypatch, word):
    assert cli.main(["witness", word]) == 0
    plain = capsys.readouterr().out
    code, tracer = traced_main(monkeypatch, ["witness", word])
    assert (code, capsys.readouterr().out) == (0, plain)
    assert "matrix.construct" in {s.name for s in tracer.spans}
    assert tracer.counts["gfield.mul.calls"] > 0  # the elimination ran under the tracer
