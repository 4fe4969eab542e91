import io
import random
import time
from itertools import combinations
from pathlib import Path

import pytest

from eprseq import GF2, GF4, SymMatrix, identity, read_matrix, witness_epr_z2
from eprseq.cli import main
from oracles import laplace_det, subgrid

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_classify_attainable(capsys):
    code, out, _ = run(capsys, "classify", "NSNA")
    assert code == 0
    assert out == "ATTAINABLE N4\n"


def test_classify_json(capsys):
    code, out, _ = run(capsys, "classify", "NSA", "--json")
    assert code == 1
    assert '"attainable": false' in out


def test_witness_not_attainable(capsys):
    code, out, _ = run(capsys, "witness", "NSA")
    assert code == 1
    assert out.startswith("NOT ATTAINABLE NSA-prohibition")


def test_epr_on_gf4_fixture(capsys):
    code, out, _ = run(capsys, "epr", str(DATA / "sassa.txt"))
    assert code == 0
    assert out == "SASSA\n"


def test_pr_verb(capsys):
    code, out, _ = run(capsys, "pr", str(DATA / "aan.txt"))
    assert code == 0
    assert out == "0]110\n"


def test_epr_stdin_dash(capsys, monkeypatch):
    m, recipe = witness_epr_z2("SASA")
    text = f"# recipe: {recipe.render()}\n" + m.to_text()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "epr", "-")
    assert code == 0
    assert out == "SASA\n"


def test_witness_pipe_round_trip(capsys, monkeypatch, tmp_path):
    from eprseq import accepted_epr_sequences

    out_file = tmp_path / "w.txt"
    for n in range(1, 13):
        for word in accepted_epr_sequences(n):
            code, _, _ = run(capsys, "witness", word, "-o", str(out_file))
            assert code == 0
            monkeypatch.setattr("sys.stdin", io.StringIO(out_file.read_text()))
            code, out, _ = run(capsys, "epr", "-")
            assert code == 0
            assert out.strip() == word


def test_witness_pr_verb(capsys):
    code, out, _ = run(capsys, "witness-pr", "1]010")
    assert code == 0
    assert "# recipe: P2:" in out
    assert read_matrix(out).n == 3


def test_minors_listing(capsys):
    code, out, _ = run(capsys, "minors", str(DATA / "aan.txt"), "-k", "2")
    assert code == 0
    assert out.splitlines() == ["{1,2}=z", "{1,3}=w", "{2,3}=1"]


def test_minors_match_the_laplace_oracle(capsys, tmp_path):
    """Every K in 0..n: subsets in itertools.combinations order, values by Laplace."""
    rng = random.Random(20)
    for spec, orders in ((GF2, range(1, 8)), (GF4, range(1, 6))):
        for n in orders:
            grid = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    grid[i][j] = grid[j][i] = rng.randrange(spec.order)
            m = SymMatrix(spec, grid)
            path = tmp_path / f"{spec.name}_{n}.txt"
            path.write_text(m.to_text())
            for k in range(n + 1):
                code, out, _ = run(capsys, "minors", str(path), "-k", str(k))
                assert code == 0
                want = [
                    "{" + ",".join(str(i + 1) for i in sub) + "}="
                    + spec.to_symbol(laplace_det(subgrid(m, sub, sub), spec))
                    for sub in combinations(range(n), k)
                ]
                assert out.splitlines() == want, (spec.name, n, k)


def test_minors_bad_k(capsys):
    code, _, err = run(capsys, "minors", str(DATA / "aan.txt"), "-k", "9")
    assert code == 2


def test_enumerate_to_file_and_determinism(capsys, tmp_path):
    outputs = []
    for jobs in ("1", "2", "8"):
        target = tmp_path / f"cat{jobs}.txt"
        code, _, _ = run(capsys, "enumerate", "-n", "4", "--jobs", jobs,
                         "--catalog", str(target))
        assert code == 0
        outputs.append(target.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0].decode().splitlines()[0] == "AAAA 1"


def test_enumerate_stdout_single_line_per_word(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "2")
    assert code == 0
    assert out == "AA 1\nAN 1\nNA 1\nNN 1\nSA 2\nSN 2\n"


def test_enumerate_gf4(capsys):
    code, out, _ = run(capsys, "enumerate", "-n", "2", "--field", "gf4")
    assert code == 0
    assert "AA " in out


def test_enumerate_gated_bound(capsys):
    code, _, err = run(capsys, "enumerate", "-n", "7")
    assert code == 2
    assert "force" in err


def test_enumerate_gf4_order_5_gated(capsys):
    code, out, err = run(capsys, "enumerate", "--field", "gf4", "-n", "5")
    assert code == 2
    assert out == "" and "force" in err


def _gated_catalog(capsys, tmp_path, *args):
    """Catalog text of a gated --force run, the same at --jobs 1 and 2."""
    texts = []
    for jobs in ("1", "2"):
        target = tmp_path / f"cat{jobs}.txt"
        code, _, _ = run(capsys, "enumerate", *args, "--force", "--jobs", jobs, "--catalog", str(target))
        assert code == 0
        texts.append(target.read_text())
    assert texts[0] == texts[1]
    return {w: int(c) for w, c in (line.split() for line in texts[0].splitlines())}


@pytest.mark.slow
def test_gated_gf2_order_7_catalog(capsys, tmp_path):
    from eprseq import accepted_epr_sequences

    counts = _gated_catalog(capsys, tmp_path, "-n", "7")
    assert len(counts) == 27
    assert set(counts) == set(accepted_epr_sequences(7))
    assert sum(counts.values()) == 1 << 28


@pytest.mark.slow
def test_gated_gf4_order_5_catalog(capsys, tmp_path):
    from eprseq import GF4, accepted_pr_sequences, attained_pr_sequences

    counts = _gated_catalog(capsys, tmp_path, "--field", "gf4", "-n", "5")
    assert sum(counts.values()) == 4 ** 15
    assert attained_pr_sequences(5, GF4, force=True) == set(accepted_pr_sequences(5))


def test_verify_verb(capsys):
    code, out, _ = run(capsys, "verify", "-n", "3")
    assert code == 0
    assert "attained-but-rejected" in out


def test_check_theorems_prints_seed(capsys):
    code, out, _ = run(capsys, "check-theorems", "--max-n", "2",
                       "--gf4-cases", "30", "--seed", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "seed 7"
    assert len(lines) == 17  # seed line + one line per check


@pytest.mark.parametrize("cases", ["-3", "100001"])
def test_check_theorems_refuses_gf4_case_counts_out_of_range(capsys, cases):
    # a negative count would run no GF(4) case; a huge one would hold every drawn case in memory
    code, out, err = run(capsys, "check-theorems", "--max-n", "2", "--gf4-cases", cases)
    assert code == 2 and out == ""
    assert f"gf4_cases must be in [0, 10^5], got {cases}" in err


@pytest.mark.parametrize("max_n, seed", [(4, 3), (2, 11)])
def test_check_theorems_matches_golden_output(capsys, max_n, seed):
    """Case counts pin the rng call order and every check's case loop."""
    code, out, _ = run(capsys, "check-theorems", "--max-n", str(max_n), "--seed", str(seed))
    assert code == 0
    assert out == (DATA / f"check_theorems_n{max_n}_seed{seed}.out").read_text()


def test_usage_errors_exit_2(capsys):
    assert main(["no-such-verb"]) == 2
    assert main([]) == 2
    assert main(["classify"]) == 2


def test_malformed_matrix_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("field gf2\nn 2\n0 1\n1\n")
    code, _, err = run(capsys, "epr", str(bad))
    assert code == 2
    assert "line 4" in err


def test_missing_file_exit_2(capsys):
    code, _, err = run(capsys, "epr", "/nonexistent/matrix.txt")
    assert code == 2


def test_jobs_env_var_default(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("EPRSEQ_JOBS", "2")
    target = tmp_path / "cat.txt"
    code, _, _ = run(capsys, "enumerate", "-n", "3", "--catalog", str(target))
    assert code == 0
    explicit = tmp_path / "cat1.txt"
    run(capsys, "enumerate", "-n", "3", "--jobs", "1", "--catalog", str(explicit))
    assert target.read_bytes() == explicit.read_bytes()


def test_byte_stable_output(capsys):
    first = run(capsys, "epr", str(DATA / "nansnn.txt"))
    second = run(capsys, "epr", str(DATA / "nansnn.txt"))
    assert first == second == (0, "NANSNN\n", "")


def test_order_above_guardrail_exits_2_before_any_table(capsys, tmp_path):
    big = tmp_path / "order25.txt"
    big.write_text(identity(25).to_text())
    start = time.perf_counter()
    for argv in (
        ("epr", str(big)),
        ("pr", str(big)),
        ("minors", str(big), "-k", "1"),
        ("witness", "A" * 25),
        ("witness-pr", "0]" + "1" * 25),
        ("witness", "A" * 40),  # re-verifying would need a 2^40-byte table
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert "guardrail 24" in err, argv
    assert time.perf_counter() - start < 1.0


def test_force_refuses_a_table_beyond_physical_memory(capsys, tmp_path):
    big = tmp_path / "order40.txt"
    big.write_text(identity(40).to_text())  # a 2^40-byte (1 TiB) minor table
    start = time.perf_counter()
    for verb in ("epr", "pr"):
        code, out, err = run(capsys, verb, str(big), "--force")
        assert (code, out) == (2, ""), verb
        assert "physical memory" in err, verb
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_nonpositive_jobs_exit_2(capsys, jobs):
    for verb in ("enumerate", "verify"):
        code, out, err = run(capsys, verb, "-n", "2", "--jobs", jobs)
        assert (code, out) == (2, "")
        assert "positive integer" in err


@pytest.mark.parametrize("value", ["", "two", "0", "-1", "1.5"])
def test_malformed_jobs_env_exit_2(capsys, monkeypatch, value):
    monkeypatch.setenv("EPRSEQ_JOBS", value)
    code, out, err = run(capsys, "enumerate", "-n", "2")
    assert (code, out) == (2, "")
    assert "EPRSEQ_JOBS" in err
    # an explicit --jobs takes precedence over the environment
    assert run(capsys, "enumerate", "-n", "2", "--jobs", "1")[0] == 0
