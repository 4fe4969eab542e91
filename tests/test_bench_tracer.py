"""The benchmark's layer tracer still installs over the current modules."""

import sys
from pathlib import Path

from eprseq import cli

ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).parent / "data"


def test_traced_epr_run(capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    monkeypatch.delitem(sys.modules, "tracer", raising=False)
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(["epr", str(DATA / "sasn.txt")])
    finally:
        tracer.uninstall()
    assert (code, capsys.readouterr().out) == (0, "SASN\n")
    assert [s.name for s in tracer.spans] == ["sequence"]
