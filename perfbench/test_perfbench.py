"""Self-tests of the benchmark (not of the program).

    python3 -m pytest perfbench/test_perfbench.py

Each workload runs at its tiny size through the real command line; the
remaining tests exercise digests, reference checks and the no-source exit
in-process or in a temporary copy.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import speed  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
SELF_TIMES = [m["name"] for m in SPEC["per_layer"] if m["name"].endswith(".self_s")]


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=180)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_lists_the_workloads():
    assert NAMES == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    res = result_line(run_bench(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    assert res["metrics"]["ok_ratio"]["value"] == 1.0
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_tiny_traced_run_accounts_for_the_wall_time(workload):
    res = result_line(run_bench(workload, 1))
    assert res["correct"]
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    total = sum(metrics[name] for name in SELF_TIMES)
    assert total == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["spectra.rank_calls"] > 0
    spans = np.load(ROOT / ".perfbench" / "spans" / f"{workload}.npz")
    assert (spans["end"] >= spans["start"]).all()
    assert (spans["parent"] < np.arange(spans["parent"].size)).all()


@pytest.mark.parametrize("cls", [workloads.VerifyWeighted, workloads.QueryStream])
def test_digest_depends_on_the_seed_only(cls, tmp_path):
    digests = []
    for seed in (1, 1, 2):
        wl = cls()
        wl.setup(seed, True, str(tmp_path / f"s{seed}"))
        digests.append(wl.digest)
        wl.cleanup()
    assert digests[0] == digests[1] != digests[2]


@pytest.mark.parametrize("cls", [workloads.VerifyWeighted, workloads.QueryStream])
def test_run_spans_chunks_and_replays_exact_counts(cls, tmp_path):
    wl = cls()
    wl.setup(5, False, str(tmp_path))
    probe = speed.Probe()
    probe.start()
    try:
        items = workloads.CHUNK + 7
        meas = wl.run(1e9, items, None, probe)
    finally:
        probe.stop()
        wl.cleanup()
    assert (meas.items, meas.attempted, meas.failures.count) == (items, items * cls.per_item, 0)
    assert len(meas.latencies_s) == meas.attempted
    # the probe's samples are taken out of the timed slices and latencies
    assert probe.samples and 0 < sum(meas.latencies_s) <= meas.wall_s
    assert not tmp_path.exists()


def test_speed_factor_states_times_at_nominal_speed():
    assert speed.reference_task() == 10
    assert speed.factor([speed.NOMINAL_S] * 3) == pytest.approx(1.0)
    assert speed.factor([speed.NOMINAL_S, speed.NOMINAL_S * 3]) == pytest.approx(0.5)


def _corrupted(wl, corrupt) -> int:
    """Failures the checks find in the first chunk after corrupting one reply."""
    chunk = wl.first
    replies = [wl.call(item, k) for item in chunk for k in range(wl.per_item)]
    fails = workloads.Failures()
    wl.check(chunk, replies, fails)
    assert fails.count == 0, fails.notes
    corrupt(chunk, replies)
    fails = workloads.Failures()
    wl.check(chunk, replies, fails)
    return fails.count


def test_weighted_checks_catch_a_wrong_reply(tmp_path):
    wl = workloads.VerifyWeighted()
    wl.setup(3, True, str(tmp_path))

    def corrupt(chunk, replies):
        holds, lhs, rhs = replies[0]
        replies[0] = (holds, lhs + 1, rhs)

    assert _corrupted(wl, corrupt) == 1


def test_query_checks_catch_a_wrong_cli_reply(tmp_path):
    wl = workloads.QueryStream()
    wl.setup(3, True, str(tmp_path))

    def corrupt(chunk, replies):
        i = next(k for k, req in enumerate(chunk) if req.cli and req.kind == "mult")
        code, out, err = replies[i]
        reply = json.loads(out)
        reply["multiplicity"] += 1
        replies[i] = (code, json.dumps(reply), err)

    try:
        assert _corrupted(wl, corrupt) == 1
    finally:
        wl.cleanup()


def test_sweep_check_needs_the_exact_counts():
    wl = workloads.SweepConnected()
    wl.setup(0, True, "")
    result = wl.sm.run_campaign(wl.sm.CampaignConfig("connected", cap=wl.cap))
    assert wl.check(result).count == 0
    summary, disc = result
    short = (dict(summary, checks=summary["checks"] - 1), disc)
    assert wl.check(short).count == workloads.SWEEP_EXPECTED[workloads.SWEEP_CAP_TINY][0]


def test_reference_counts_match_exact_rank():
    sm = workloads.program()
    g = sm.Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
    for seed in range(5):
        b = sm.random_in_S(g, seed)
        ref = workloads.Reference(b)
        for lam in (Fraction(0), b.entries[0][0].re):
            assert ref.count(lam) == workloads._exact_count(ref.rows, lam)
    ref = workloads.Reference(sm.adjacency_matrix(sm.cycle_graph(4)))
    assert ref.count(Fraction(0)) == workloads._exact_count(ref.rows, Fraction(0)) == 2


def test_run_without_program_source_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(NAMES[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
