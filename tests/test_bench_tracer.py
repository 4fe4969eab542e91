"""The benchmark's layer tracer still installs over the current modules."""

import sys
from pathlib import Path

import pytest

from eprseq import cli, verify

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
    # the suite bit-slices its own batches: no _engine table span under it
    names = {s.name for s in tracer.spans}
    assert "verify.theorem_suite" in names
    assert not names & {"engine.det_table", "engine.letter_arrays", "engine.rank_array"}, names
    # each case of these two checks takes one GF(2) determinant by elimination
    cases = dict(line.split()[:2] for line in plain.splitlines()[1:])
    gf2_dets = int(cases["loop-split-determinant"]) + int(cases["loop-complete-nonsingular"])
    assert tracer.counts["matrix.det.calls"] >= gf2_dets > 0


def test_traced_enumerate_run(capsys, monkeypatch):
    """The catalog sweeps run under the names the tracer wraps, at any --jobs."""
    for argv, span in (
        (["enumerate", "-n", "4"], "engine.catalog_gf2"),
        (["enumerate", "--field", "gf4", "-n", "2", "--jobs", "2"], "engine.catalog_gf4"),
    ):
        assert cli.main(argv) == 0
        plain = capsys.readouterr().out
        verify._catalog_raw.cache_clear()  # so the traced run sweeps again
        code, tracer = traced_main(monkeypatch, argv)
        assert (code, capsys.readouterr().out) == (0, plain), argv
        assert {span, "verify.enumerate"} <= {s.name for s in tracer.spans}


# inverse, A8 and S4 Schur, and appended-step recipes
@pytest.mark.parametrize("word", ["ASASA", "ASAN", "SSSAN", "ANN"])
def test_traced_witness_run(capsys, monkeypatch, word):
    assert cli.main(["witness", word]) == 0
    plain = capsys.readouterr().out
    code, tracer = traced_main(monkeypatch, ["witness", word])
    assert (code, capsys.readouterr().out) == (0, plain)
    assert "matrix.construct" in {s.name for s in tracer.spans}
    if word != "ANN":  # identity(1) and two appended rows: nothing to eliminate
        assert tracer.counts["gfield.mul.calls"] > 0  # the elimination ran under the tracer
