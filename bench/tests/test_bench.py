"""Tests of the benchmark itself: every check rejects a wrong output, span
summaries compute self time, and every workload runs in a short mode.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from checks import CHSH_MAX, CheckError  # noqa: E402
from paraself import bell, certify, strategies  # noqa: E402


def table_json(table) -> dict:
    return json.loads(json.dumps(bell.table_to_json_dict(table)))


def chsh_table(n, scheme=bell.Scheme.BROADCAST, nu=1.0):
    s = strategies.chsh_reference()
    if nu != 1.0:
        s = strategies.apply_isotropic_noise(s, nu)
    return strategies.compose([s] * n, scheme)


# -- the references agree with honest program output -------------------------

def test_honest_tables_pass():
    chsh = checks.chsh_single()
    checks.check_table_json(table_json(chsh_table(3)), "broadcast", 3,
                            expected=checks.broadcast_product([chsh] * 3), product=True)
    checks.check_table_json(table_json(chsh_table(3, bell.Scheme.PER_COPY, 0.9)), "percopy", 3,
                            expected=checks.percopy_product(checks.chsh_single(0.9), 3))
    fullstats = strategies.single_copy_table(strategies.fullstats_reference(0.1, 0.2))
    checks.check_probs(fullstats.probs, checks.fullstats_single(0.1, 0.2), "fullstats")


def test_tilted_reference_passes():
    alpha = 0.5
    s = strategies.tilted_chsh_reference(alpha, bell.tilted_chsh_expression(alpha))
    checks.check_tilted_strategy(s.state.matrix, [p.effects for p in s.alice],
                                 [p.effects for p in s.bob], alpha)


# -- every check rejects a wrong output ---------------------------------------

def test_adversary_table_rejected_where_honest_expected():
    adversary = table_json(strategies.adversary_copy(3))
    with pytest.raises(CheckError, match="deviate"):
        checks.check_table_json(adversary, "broadcast", 3,
                                expected=checks.broadcast_product([checks.chsh_single()] * 3))


def test_correlated_table_rejected_as_product():
    # The shared-randomness adversary has honest marginals but is no product.
    adversary = table_json(strategies.adversary_shared_randomness(2))
    checks.check_table_json(adversary, "broadcast", 2, marginals={1: checks.chsh_single()})
    with pytest.raises(CheckError, match="product"):
        checks.check_table_json(adversary, "broadcast", 2, product=True)


def test_noisy_table_rejected_where_honest_expected():
    noisy = table_json(chsh_table(2, bell.Scheme.PER_COPY, 0.9))
    with pytest.raises(CheckError):
        checks.check_table_json(noisy, "percopy", 2,
                                expected=checks.percopy_product(checks.chsh_single(), 2))


def test_wrong_scheme_and_copy_count_rejected():
    data = table_json(chsh_table(2))
    with pytest.raises(CheckError, match="scheme"):
        checks.check_table_json(data, "percopy", 2)
    with pytest.raises(CheckError, match="n_copies"):
        checks.check_table_json(data, "broadcast", 3)


def test_report_checks_reject_wrong_verdict_and_value():
    ce = bell.chsh_expression()
    honest = certify.certify_theorem1(chsh_table(2), ce, CHSH_MAX).to_json_dict()
    checks.check_report(honest, "pass", [CHSH_MAX] * 2, checks.DEFAULT_TOL)
    with pytest.raises(CheckError, match="verdict"):
        checks.check_report(honest, "fail", [CHSH_MAX] * 2, checks.DEFAULT_TOL)
    adversary = certify.certify_theorem1(strategies.adversary_copy(2), ce, CHSH_MAX).to_json_dict()
    with pytest.raises(CheckError, match="verdict"):
        checks.check_report(adversary, "pass", [CHSH_MAX] * 2, checks.DEFAULT_TOL)
    noisy = certify.certify_theorem4(chsh_table(2, bell.Scheme.PER_COPY, 0.9), [ce] * 2,
                                     [CHSH_MAX] * 2).to_json_dict()
    checks.check_report(noisy, "fail", [0.9 * CHSH_MAX] * 2, checks.DEFAULT_TOL)
    with pytest.raises(CheckError, match="copy 1"):
        checks.check_report(noisy, "fail", [0.8 * CHSH_MAX] * 2, checks.DEFAULT_TOL)


def test_exit_code_mismatch_rejected():
    checks.check_exit(1, 1)
    with pytest.raises(CheckError, match="exit 0, expected 1"):
        checks.check_exit(0, 1)


def test_perturbed_sweep_row_rejected():
    nus = checks.sweep_nus(5)
    rows = [(nu, [nu * CHSH_MAX] * 3) for nu in nus]
    checks.check_sweep_rows(rows, nus, 3)
    rows[2] = (rows[2][0], [rows[2][1][0], rows[2][1][1] + 1e-6, rows[2][1][2]])
    with pytest.raises(CheckError, match="J2"):
        checks.check_sweep_rows(rows, nus, 3)
    with pytest.raises(CheckError, match="rows"):
        checks.check_sweep_rows(rows[:-1], nus, 3)


def test_sweep_csv_header_rejected():
    with pytest.raises(CheckError, match="header"):
        checks.parse_sweep_csv("nu,J1\n0,0\n", 2)


def test_bounds_output_rejected():
    checks.check_bounds_output("classical 2\nquantum 2.828427125\n")
    with pytest.raises(CheckError):
        checks.check_bounds_output("classical 2\nquantum 2.82842712\n")


def test_non_optimal_tilted_strategy_rejected():
    s = strategies.chsh_reference()
    with pytest.raises(CheckError, match="tilted"):
        checks.check_tilted_strategy(s.state.matrix, [p.effects for p in s.alice],
                                     [p.effects for p in s.bob], 0.5)


def test_closed_forms():
    assert checks.tilted_max(0.0) == CHSH_MAX
    assert math.isclose(float(np.sum(checks.tilted_coeffs(0.0) * checks.chsh_single())), CHSH_MAX)


# -- span summaries -----------------------------------------------------------

def test_self_time_subtracts_nested_and_overlapping_children(tmp_path):
    tracer = tracing.Tracer()
    tracer.spans = [
        (1, "a.outer", 0.0, 10.0, 0),
        (2, "a.inner", 1.0, 3.0, 1),
        (3, "a.inner", 4.0, 5.0, 1),
        (4, "a.pool", 20.0, 30.0, 0),     # children overlap, as on a thread pool
        (5, "a.inner", 21.0, 25.0, 4),
        (6, "a.inner", 22.0, 27.0, 4),
    ]
    tracer.add("bytes", 5)
    path = tmp_path / "spans.npz"
    tracer.write(path)
    stats, counters = tracing.summarize([path, path])
    assert stats["a.outer"] == {"calls": 2, "total_s": 20.0, "self_s": 14.0}
    assert stats["a.pool"] == {"calls": 2, "total_s": 20.0, "self_s": 8.0}
    assert stats["a.inner"]["calls"] == 8
    assert stats["a.inner"]["self_s"] == pytest.approx(24.0)
    assert counters == {"bytes": 10}


def test_wrappers_record_parents():
    tracer = tracing.Tracer()

    def inner():
        return 1

    traced_inner = tracer.wrap("m.inner", inner)
    traced_outer = tracer.wrap("m.outer", lambda: traced_inner() + 1)
    assert traced_outer() == 2
    (inner_span, outer_span) = tracer.spans
    assert inner_span[1] == "m.inner" and inner_span[4] == outer_span[0]
    assert outer_span[4] == 0


def test_wrappers_lose_no_span_across_threads():
    # The sweep's thread pool calls wrapped functions from worker threads.
    tracer = tracing.Tracer()

    def work(k):
        tracer.add("n", 1)
        return k

    traced = tracer.wrap("m.work", work)
    workers, calls = 8, 2000
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: [traced(k) for k in range(calls)])
                   for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(tracer.spans) == workers * calls
    assert len({s[0] for s in tracer.spans}) == workers * calls
    assert tracer.counters == {"n": workers * calls}


# -- the benchmark command ----------------------------------------------------

def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(BENCH / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_the_command():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()


@pytest.mark.parametrize("workload,failed", [
    ("cli-session", 0), ("library-certify", 1), ("percopy-files", 0)])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run(workload, failed, trace):
    proc = bench("--workload", workload, "--seed", "7", "--cycles", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], record["failures"]
    assert result["failed"] == failed
    assert result["attempted"] == sum(k["attempted"] for k in record["operations"].values())
    if failed:
        assert [f["kind"] for f in record["failures"]] == ["theorem2-fullstats6"]
    spec = benchmark_spec()
    listed = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    assert record["environment"]["seed"] == 7
    assert {"nproc", "python", "numpy", "blas"} <= set(record["environment"])


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "library-certify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
