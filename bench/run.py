#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the eprseq CLI.

Run from the root of a source checkout::

    python3 bench/run.py --workload witness --seed 1 --seconds 10 --trace 0

One client drives the CLI in a closed loop: each ``eprseq`` child starts
after the previous one exits, and ``--jobs`` never exceeds ``nproc``.
The workload's operations (see ``workloads.py``) are generated from the
seed before timing starts; one pass runs every operation once, and passes
repeat until ``--seconds`` have elapsed.  Every output is checked after
the timing.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics that ``BENCHMARK.json`` lists:
its ``end_to_end`` metrics with ``--trace 0``, its ``per_layer`` metrics
with ``--trace 1``.  The lines before it print every metric with its unit,
including the workload-specific ones (``op_tail_s``, ``gf2_sweep_mps``,
``gf4_sweep_mps``, ``theorems_s``) and ``fail_frac``.  A full record (the
environment, every sample, median and min of each entry, the input
digest) goes to ``.bench_out/``, and a traced run writes its spans there.

End-to-end metrics (``wall_s`` and ``cpu_s`` are medians over the passes
of a run):

* ``setup_s``: fresh interpreter until ``import eprseq.cli`` returns, the
  minimum of the samples taken between operations, one at the start and
  then one at most every ``SETUP_EVERY_S`` seconds through the run (the
  speed of a shared host drifts over tens of seconds; the fastest sample
  of a run varies least);
* ``wall_s``: one pass, the sum of its invocations' wall times (setup
  samples excluded); ``op_p50_s``: median wall time of one invocation,
  process start to exit; ``op_tail_s`` (witness, random-epr): the highest
  whole percentile of invocation wall time that leaves ten invocations of
  one pass beyond it;
* ``peak_rss_mb``: largest ``ru_maxrss`` of any child, from ``os.wait4``;
  ``cpu_s``: user plus system CPU of all children in a pass;
* ``fail_frac``: failed over attempted operations;
* sweep only: ``gf2_sweep_mps`` and ``gf4_sweep_mps``, matrices per second
  of ``enumerate -n 6 --jobs 1`` and ``enumerate --field gf4 -n 4``, and
  ``theorems_s``, the wall time of ``check-theorems``.

To print them for every workload::

    for w in witness random-epr sweep; do
        python3 bench/run.py --workload $w --seed 1 --seconds 10; done

With ``--trace 1`` the run makes one untraced CLI pass, then replays every
operation in-process through ``eprseq.cli.main`` twice, untraced and
traced (``tracer.py``), back to back in alternating order; caches are
cleared before every replayed operation so each starts cold.
``trace.overhead`` is the traced replays' wall time over the untraced
replays'.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
WORKLOADS = ("witness", "random-epr", "sweep")
SETUP_EVERY_S = 2.0  # least time between two setup samples
TAIL_BEYOND = 10  # invocations that must lie beyond the tail percentile
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS",
)
CLI = "from eprseq.cli import console_entry; console_entry()"
CHECK = (  # argv: bench dir, checker name in workloads, items file, results file
    "import json, sys; sys.path.insert(0, sys.argv[1]); import workloads; "
    "f = getattr(workloads, sys.argv[2]); items = json.load(open(sys.argv[3])); "
    "json.dump([f(tuple(i)) for i in items], open(sys.argv[4], 'w'))"
)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_environment() -> None:
    """Children never inherit EPRSEQ_JOBS; BLAS/OpenMP threads <= nproc."""
    os.environ.pop("EPRSEQ_JOBS", None)
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())
    os.environ["PYTHONPATH"] = str(SRC)


# ---------------------------------------------------------------------------
# running the CLI
# ---------------------------------------------------------------------------

def stop(proc: subprocess.Popen) -> None:
    """Kill a child that is still running and wait until it has ended."""
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def spawn(cmd: list[str], stdout, stderr) -> tuple[int, float, float, float]:
    """Run one child to completion: exit code, wall s, cpu s, peak RSS MiB."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=stderr, cwd=ROOT)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        stop(proc)
        raise
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


class SetupSampler:
    """Samples of a fresh interpreter until ``import eprseq.cli`` returns.

    A first, unkept sample warms up (it may compile the bytecode); then
    one sample is kept at once and more by ``maybe`` between operations.
    """

    def __init__(self):
        self._sample()
        self.samples = [self._sample()]

    def _sample(self) -> float:
        cmd = [sys.executable, "-c", "import eprseq.cli"]
        code, wall, _, _ = spawn(cmd, subprocess.DEVNULL, subprocess.DEVNULL)
        if code != 0:
            raise RuntimeError("import eprseq.cli failed in a fresh interpreter")
        self._last = time.perf_counter()
        return wall

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= SETUP_EVERY_S:
            self.samples.append(self._sample())


def cli_pass(wl, in_dir: Path, pass_dir: Path, setup: SetupSampler):
    """One closed-loop pass; returns (wall, per-op records, results)."""
    from workloads import Result

    pass_dir.mkdir(parents=True)
    records = []
    for i, op in enumerate(wl.ops):
        cmd = [sys.executable, "-c", CLI] + op.bind(str(in_dir), str(pass_dir))
        with open(pass_dir / f"{i}.out", "wb") as out, open(pass_dir / f"{i}.err", "wb") as err:
            code, wall, cpu, rss = spawn(cmd, out, err)
        records.append({"key": op.key, "code": code, "wall_s": wall, "cpu_s": cpu, "rss_mb": rss})
        setup.maybe()
    wall = sum(r["wall_s"] for r in records)
    results = {}
    for i, op in enumerate(wl.ops):
        stdout = (pass_dir / f"{i}.out").read_text()
        output = _read_output(op, pass_dir)
        results[op.key] = Result(records[i]["code"], stdout, output)
    return wall, records, results


def _read_output(op, pass_dir: Path) -> str | None:
    if not op.out:
        return None
    path = pass_dir / op.out
    return path.read_text() if path.exists() else None


def replay(wl, in_dir: Path, work: Path, tracer):
    """Every operation in-process through ``eprseq.cli.main``, untraced and traced.

    Each operation runs untraced and traced back to back, in alternating
    order, so both runs of it see the same host speed and neither always
    goes second.  Caches are cleared before every run, so each starts cold
    as a fresh process does.  Returns the wall time and results per kind.
    """
    from eprseq import cli

    from tracer import clear_caches
    from workloads import Result

    walls = {"plain": 0.0, "traced": 0.0}
    results = {"plain": {}, "traced": {}}
    for kind in walls:
        (work / f"pass-{kind}").mkdir(parents=True)
    for i, op in enumerate(wl.ops):
        for kind in ("plain", "traced") if i % 2 == 0 else ("traced", "plain"):
            pass_dir = work / f"pass-{kind}"
            argv = op.bind(str(in_dir), str(pass_dir))
            clear_caches()
            if kind == "traced":
                tracer.install()
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv) if kind == "plain" else tracer.run_op(op.key, cli.main, argv)
            except Exception:  # an uncaught error exits 1 in a real process
                code = 1
            finally:
                walls[kind] += time.perf_counter() - t0
                tracer.uninstall()
            results[kind][op.key] = Result(code, buf.getvalue(), _read_output(op, pass_dir))
    return walls, results


# ---------------------------------------------------------------------------
# workloads, checks, metrics
# ---------------------------------------------------------------------------

def build_workload(name: str, seed: int):
    import workloads

    if name == "witness":
        return workloads.witness_workload(seed)
    if name == "random-epr":
        return workloads.random_epr_workload(seed)
    return workloads.sweep_workload(jobs=min(2, nproc()))


def check_passes(wl, passes: list[dict], work: Path) -> list[dict]:
    """Failures per op key for each pass (witness checks use nproc children)."""
    import workloads

    if wl.name != "witness":
        return [workloads.check(wl, results) for results in passes]
    return workloads.check_witness_passes(wl, passes, lambda fn, items: map_in_children(fn.__name__, items, work))


def map_in_children(name: str, items: list, work: Path) -> list:
    """``workloads.<name>`` over ``items``, split among nproc child interpreters.

    The children are plain subprocesses started and waited for here (no
    multiprocessing helper process outlives the run); items and results go
    through JSON files in ``work``.
    """
    n = max(1, min(nproc(), len(items)))
    procs, outs = [], []
    try:
        for i in range(n):
            src, dst = work / f"check{i}.in.json", work / f"check{i}.out.json"
            src.write_text(json.dumps(items[i::n]))
            outs.append(dst)
            cmd = [sys.executable, "-c", CHECK, str(BENCH), name, str(src), str(dst)]
            procs.append(subprocess.Popen(cmd, cwd=ROOT))
        codes = [p.wait() for p in procs]
    finally:
        for p in procs:
            stop(p)
    if any(codes):
        raise RuntimeError(f"output check children exited with {codes}")
    chunks = [json.loads(dst.read_text()) for dst in outs]
    return [chunks[i % n][i // n] for i in range(len(items))]


def percentile(values: list[float], pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def tail_percentile(ops_per_pass: int) -> int:
    """Highest whole percentile with TAIL_BEYOND invocations beyond it in one pass."""
    n = ops_per_pass
    return next((p for p in range(99, 0, -1) if n + (-p * n // 100) >= TAIL_BEYOND), 0)


def entry(samples: list[float], pick=statistics.median) -> dict:
    """A metric's reported ``value`` (``pick`` of the samples) and its samples."""
    return {"value": pick(samples), "median": statistics.median(samples), "min": min(samples), "samples": samples}


def end_to_end(wl, setup: list[float], walls: list[float], records: list[list[dict]]) -> dict:
    """name -> (entry, unit) for every end-to-end metric this workload has."""
    invocations = [r["wall_s"] for rec in records for r in rec]
    m = {
        "setup_s": (entry(setup, min), "s"),
        "wall_s": (entry(walls), "s"),
        "op_p50_s": (entry([statistics.median(invocations)]), "s"),
        "peak_rss_mb": (entry([max(r["rss_mb"] for r in rec) for rec in records]), "MiB"),
        "cpu_s": (entry([sum(r["cpu_s"] for r in rec) for rec in records]), "s"),
    }
    if wl.name != "sweep":
        pct = tail_percentile(len(wl.ops))
        m["op_tail_s"] = (entry([percentile(invocations, pct)]), "s")
        m["op_tail_s"][0]["percentile"] = pct
        m["op_tail_s"][0]["invocations"] = len(invocations)
    else:
        n, n4 = wl.params["gf2_n"], wl.params["gf4_n"]

        def op_wall(key):
            return [next(r["wall_s"] for r in rec if r["key"] == key) for rec in records]

        m["gf2_sweep_mps"] = (entry([(1 << n * (n + 1) // 2) / w for w in op_wall("gf2-jobs1")]), "matrices/s")
        m["gf4_sweep_mps"] = (entry([4 ** (n4 * (n4 + 1) // 2) / w for w in op_wall("gf4")]), "matrices/s")
        m["theorems_s"] = (entry(op_wall("theorems")), "s")
    return m


def environment(seed: int, passes: int, wl) -> dict:
    import numpy

    from eprseq.verify import DEFAULT_SEED

    lines = {p.name: len(p.read_text().splitlines()) for p in sorted((SRC / "eprseq").glob("*.py"))}
    digest = hashlib.sha256()
    for p in sorted((SRC / "eprseq").glob("*.py")):
        digest.update(p.read_bytes())
    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has no commit to name
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "nproc": nproc(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "wc_l_src_eprseq": {**lines, "total": sum(lines.values())},
        "seed": seed,
        "check_theorems_seed": DEFAULT_SEED,
        "input_digest": wl.digest(),
        "repeats": passes,
        "child_env": {v: os.environ[v] for v in THREAD_VARS + ("PYTHONPATH",)},
    }


def declared(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def result_line(values: dict[str, tuple[float, str]], attempted: int, failed: int, trace: bool) -> dict:
    """The final JSON object, holding exactly the metrics BENCHMARK.json declares."""
    metrics = {}
    for name, unit in declared(trace).items():
        value, got = values[name]
        if got != unit:
            raise RuntimeError(f"{name} measured in {got}, declared in {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def run_untraced(wl, seconds: float, work: Path):
    walls, records, passes = [], [], []
    setup = SetupSampler()
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, rec, results = cli_pass(wl, work / "inputs", work / f"pass{len(walls)}", setup)
        walls.append(wall)
        records.append(rec)
        passes.append(results)
    fails = check_passes(wl, passes, work)
    metrics = end_to_end(wl, setup.samples, walls, records)
    return metrics, fails, {"records": records}


def run_traced(wl, seconds: float, work: Path):
    from tracer import Tracer, layer_metrics

    setup = SetupSampler()
    cli_wall, rec, cli_results = cli_pass(wl, work / "inputs", work / "pass-cli", setup)
    tracer = Tracer()
    walls, results = replay(wl, work / "inputs", work, tracer)
    fails = check_passes(wl, [cli_results, results["plain"], results["traced"]], work)
    values = layer_metrics(tracer)
    values["cli.startup_share"] = (min(setup.samples) * len(wl.ops) / cli_wall, "ratio")
    values["trace.overhead"] = (walls["traced"] / walls["plain"], "ratio")
    extra = {
        "records": [rec],
        "setup_s": entry(setup.samples, min),
        "cli_wall_s": cli_wall,
        "replay_wall_s": walls["plain"],
        "traced_wall_s": walls["traced"],
        "spans": [s.to_dict() for s in tracer.spans],
        "counts": dict(tracer.counts),
    }
    return values, fails, extra


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eprseq" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no eprseq source tree under {ROOT}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))

    wl = build_workload(args.workload, args.seed)
    label = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = OUT_ROOT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    for name, text in wl.inputs.items():
        (work / "inputs" / name).write_text(text)
    try:
        run = run_traced if args.trace else run_untraced
        values, fails, extra = run(wl, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(fails) * len(wl.ops)
    failed = sum(len(f) for f in fails)
    if not args.trace:
        metrics, values = values, {k: (e["value"], u) for k, (e, u) in values.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    values["fail_frac"] = (failed / attempted, "ratio")

    spans = extra.pop("spans", None)
    record = {
        "workload": wl.name,
        "trace": args.trace,
        "environment": environment(args.seed, len(fails), wl),
        "metrics": metrics,
        "fail_frac": failed / attempted,
        "failures": [f for f in fails if f],
        **extra,
    }
    OUT_ROOT.mkdir(exist_ok=True)
    (OUT_ROOT / f"{label}.json").write_text(json.dumps(record, indent=1, default=str))
    if spans is not None:
        (OUT_ROOT / f"{label}-spans.json").write_text(json.dumps(spans))

    env = record["environment"]
    print(f"workload {wl.name} seed {args.seed} trace {args.trace} passes {len(fails)} "
          f"ops/pass {len(wl.ops)} inputs {env['input_digest']} nproc {env['nproc']}")
    for pass_fails in record["failures"]:
        for key, errs in sorted(pass_fails.items()):
            print(f"FAIL {key}: {'; '.join(errs)}")
    for name, (value, unit) in values.items():
        note = ""
        if name == "op_tail_s":
            e = metrics[name][0]
            note = f"  (p{e['percentile']} of {e['invocations']} invocations)"
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} {shown} {unit}{note}")
    print(f"record {(OUT_ROOT / label).relative_to(ROOT)}.json")
    print(json.dumps(result_line(values, attempted, failed, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
