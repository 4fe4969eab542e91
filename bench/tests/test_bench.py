"""The benchmark's own tests, at toy sizes.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads
from eprseq import cli

TOY = {
    "witness": lambda seed: workloads.witness_workload(seed, sizes=((4, 3), (5, 3))),
    "random-epr": lambda seed: workloads.random_epr_workload(
        seed, gf2_orders=range(6, 8), gf4_orders=range(4, 6), per_order=1
    ),
    "sweep": lambda seed: workloads.sweep_workload(
        jobs=2, gf2_n=3, gf4_n=2, theorems=("--max-n", "2", "--gf4-cases", "5")
    ),
}
SWEEP_ONLY = ("gf2_sweep_mps", "gf4_sweep_mps", "theorems_s")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def pinned(monkeypatch):
    monkeypatch.delenv("EPRSEQ_JOBS", raising=False)
    monkeypatch.setenv("PYTHONPATH", str(run.SRC))


def _materialize(wl, tmp_path):
    (tmp_path / "inputs").mkdir(parents=True)
    for name, text in wl.inputs.items():
        (tmp_path / "inputs" / name).write_text(text)
    return tmp_path


def _replay(wl, tmp_path):
    _, results = run.replay(wl, tmp_path / "inputs", tmp_path, tracer.Tracer())
    return results["plain"]


# -- metrics -----------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(TOY))
def test_untraced_run_emits_every_end_to_end_metric(name, tmp_path):
    wl = TOY[name](1)
    metrics, fails, _ = run.run_untraced(wl, 0, _materialize(wl, tmp_path))
    assert fails == [{}]
    values = {k: (e["value"], u) for k, (e, u) in metrics.items()}
    values["fail_frac"] = (0.0, "ratio")
    line = run.result_line(values, len(wl.ops), 0, trace=False)
    assert line["correct"] and line["attempted"] == len(wl.ops)
    for m in SPEC["end_to_end"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
        assert line["metrics"][m["name"]]["value"] > 0
    extra = SWEEP_ONLY if name == "sweep" else ("op_tail_s",)
    for key in extra:
        assert metrics[key][0]["value"] > 0


@pytest.mark.parametrize("name", sorted(TOY))
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    wl = TOY[name](1)
    values, fails, extra = run.run_traced(wl, 0, _materialize(wl, tmp_path))
    assert fails == [{}, {}, {}]
    line = run.result_line(values, 3 * len(wl.ops), 0, trace=True)
    for m in SPEC["per_layer"]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]
    assert values["trace.overhead"][0] > 0
    assert values["cli.main.s"][0] > 0
    assert extra["spans"] and all(s["end"] >= s["start"] for s in extra["spans"])
    if name == "sweep":
        assert values["engine.catalog_gf2.mps"][0] > 0
        assert values["engine.jobs2_speedup"][0] > 0
        assert 0 < values["verify.table_share"][0] < 1
    if name == "witness":
        assert values["witness.calls"][0] == len(wl.ops)
        assert 0 < values["witness.reverify_share"][0] < 1


@pytest.mark.parametrize("name", ["witness", "random-epr"])
def test_traced_counts_repeat_exactly(name, tmp_path):
    wl = TOY[name](3)
    counts = []
    for i in range(2):
        values, _, _ = run.run_traced(wl, 0, _materialize(wl, tmp_path / str(i)))
        counts.append({k: values[k][0] for k in ("sequence.minors", "gfield.mul.calls", "classify.calls")})
    assert counts[0] == counts[1]
    assert counts[0]["sequence.minors"] > 0


def test_table_share_counts_only_table_builds():
    t = tracer.Tracer()
    suite = tracer.Span(0, "verify.theorem_suite", None, "op", None)
    suite.t0, suite.t1 = 0.0, 10.0
    t.spans = [suite]
    # a catalog sweep that builds a table, then a table build of its own
    for name, parent, t0, t1 in (
        ("engine.catalog_gf2", 0, 0.0, 4.0), ("engine.det_table", 1, 1.0, 2.0), ("engine.letter_arrays", 0, 5.0, 8.0)
    ):
        span = tracer.Span(len(t.spans), name, t.spans[parent], "op", [1, 1])
        span.t0, span.t1 = t0, t1
        t.spans.append(span)
    values = tracer.layer_metrics(t)
    assert values["verify.table_share"] == (0.4, "ratio")
    assert values["engine.catalog_gf2.s"][0] == pytest.approx(3.0)


def test_tail_percentile_leaves_ten_beyond():
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(60) == 83
    values = list(range(60))
    assert sum(v > run.percentile(values, 83) for v in values) == 10


# -- seeded inputs -------------------------------------------------------------

def test_inputs_depend_only_on_the_seed():
    for make in TOY.values():
        assert make(5).digest() == make(5).digest()
    assert TOY["witness"](5).digest() != TOY["witness"](6).digest()
    assert TOY["random-epr"](5).digest() != TOY["random-epr"](6).digest()


def test_witness_sample_covers_the_population_evenly():
    wl = workloads.witness_workload(7)
    by_order = {}
    for op in wl.ops:
        seq = op.argv[1]
        n = len(seq.partition("]")[2] or seq)
        by_order[n] = by_order.get(n, 0) + 1
    assert by_order == {12: 48, 16: 12}
    assert len({op.argv[1] for op in wl.ops}) == len(wl.ops)


# -- output checkers flag corrupted outputs ---------------------------------------

def _witness_result(word, tmp_path):
    out = tmp_path / "w.txt"
    assert cli.main(["witness", word, "-o", str(out)]) == 0
    return workloads.Result(0, "", out.read_text())


def test_witness_checker_accepts_and_rejects(tmp_path):
    res = _witness_result("ASSSN", tmp_path)
    assert workloads.check_witness("witness", "ASSSN", res) == []
    header, _, body = res.output.partition("\n")
    bad = {
        "missing header": body,
        "wrong family": header.replace("A2", "S1", 1) + "\n" + body,
        "exit status": None,
    }
    assert workloads.check_witness("witness", "ASSSN", workloads.Result(0, "", bad["missing header"]))
    assert workloads.check_witness("witness", "ASSSN", workloads.Result(0, "", bad["wrong family"]))
    assert workloads.check_witness("witness", "ASSSN", workloads.Result(1, "", res.output))
    # A witness for another word of the same family fails the recomputation.
    other = _witness_result("ASSNN", tmp_path)
    assert workloads.check_witness("witness", "ASSSN", other)


def test_witness_checks_in_children_match_in_process(tmp_path):
    good = _witness_result("ASSSN", tmp_path)
    items = [("witness", "ASSSN", 0, "", good.output), ("witness", "ASSNN", 0, "", good.output),
             ("witness", "ASSSN", 1, "", good.output)]
    got = run.map_in_children("_witness_item", items, tmp_path)
    assert got == [workloads._witness_item(i) for i in items]
    assert got[0] == [] and got[1] and got[2]


def test_pr_witness_checker(tmp_path):
    out = tmp_path / "p.txt"
    assert cli.main(["witness-pr", "1]0101000", "-o", str(out)]) == 0
    res = workloads.Result(0, "", out.read_text())
    assert workloads.check_witness("witness-pr", "1]0101000", res) == []
    assert workloads.check_witness("witness-pr", "1]0100000", res)


def test_random_epr_checker_flags_a_wrong_epr_line(tmp_path):
    wl = TOY["random-epr"](2)
    results = _replay(wl, _materialize(wl, tmp_path))
    assert workloads.check(wl, results) == {}
    key = next(k for k in results if k.startswith("epr:"))
    word = results[key].stdout.strip()
    for i in range(len(word)):
        wrong = word[:i] + ("S" if word[i] != "S" else "A") + word[i + 1:]
        results[key] = workloads.Result(0, wrong + "\n")
        assert key in workloads.check(wl, results)
    results[key] = workloads.Result(0, word + "\n")
    mkey = next(k for k in results if k.startswith("minors:"))
    results[mkey] = workloads.Result(0, "\n".join(results[mkey].stdout.splitlines()[:-1]) + "\n")
    assert mkey in workloads.check(wl, results)


def test_sweep_checker_flags_an_altered_catalog_count(tmp_path):
    wl = TOY["sweep"](1)
    results = _replay(wl, _materialize(wl, tmp_path))
    assert workloads.check(wl, results) == {}
    text = results["gf4"].output
    word, count = text.splitlines()[0].split(" ")
    altered = text.replace(f"{word} {count}\n", f"{word} {int(count) + 1}\n", 1)
    results["gf4"] = workloads.Result(0, "", altered)
    assert "gf4" in workloads.check(wl, results)
    results["gf2-jobsN"] = workloads.Result(0, "", results["gf2-jobs1"].output + "NNN 0\n")
    assert "gf2-jobsN" in workloads.check(wl, results)
    theorems = results["theorems"].stdout
    first = theorems.splitlines()[1]
    results["theorems"] = workloads.Result(0, theorems.replace(first, first[:-1] + "1", 1))
    assert "theorems" in workloads.check(wl, results)


def test_gf4_catalog_requires_its_separating_words():
    base = {"gf2_n": 1, "gf4_n": 4}
    full = workloads.Result(0, "", "")
    counts = "SAAA 1\nSASN 1\n"
    ok = workloads.Result(0, "", counts + f"AAAA {4 ** 10 - 2}\n")
    results = {"gf2-jobs1": workloads.Result(0, "", "A 1\nN 1\n"), "gf4": ok, "verify": full, "theorems": full}
    results["gf2-jobsN"] = results["gf2-jobs1"]
    assert "gf4" not in workloads.check_sweep(base, results)
    results["gf4"] = workloads.Result(0, "", f"SAAA 1\nAAAA {4 ** 10 - 1}\n")
    assert "gf4" in workloads.check_sweep(base, results)


# -- the driver contract -------------------------------------------------------------

def test_refuses_to_run_without_a_source_tree(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_result_line_holds_exactly_the_declared_metrics():
    values = {m["name"]: (1.0, m["unit"]) for m in SPEC["end_to_end"]}
    values["extra"] = (2.0, "s")
    line = run.result_line(values, 4, 1, trace=False)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert line["correct"] is False
    values["wall_s"] = (1.0, "ms")
    with pytest.raises(RuntimeError):
        run.result_line(values, 4, 0, trace=False)
