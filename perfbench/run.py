"""specmult benchmark: one command per workload run, every output checked.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
`--workload all` runs the three workloads one after another.
Workloads (see BENCHMARK.json for why each was chosen):

  sweep-connected  run_campaign(CampaignConfig("connected", cap=6)), all
                   27,475 labeled connected graphs on 2..6 vertices. As many
                   whole sweeps as fit in --seconds (at least one) run, each
                   in a fresh interpreter with the program's caches cold.
  verify-weighted  random exact matrices in S(G), n 2..10: check_upper_bound
                   at three rational probes plus interlace-v and interlace-e.
  query-stream     one closed-loop client sending mixed requests on n 10..16
                   graphs, two in five re-asked from a popular pool, a fixed
                   share through specmult.cli.main.

--trace 0 prints the end-to-end metrics. --trace 1 runs the same work twice,
untraced and then traced, and prints the per-layer metrics together with
trace.overhead_ratio (traced wall time over untraced, minus 1).

End-to-end times are stated at a nominal machine speed: each process samples
a fixed reference task while it works (speed.py) and its times are scaled by
the nominal over the mean reference time around them, so that the shared
host's speed swings cancel. The as-measured values are printed and recorded
too.

Every run prints a metric table, a `record` line (input digest, environment,
speed factor, samples) and, last, one JSON result line. The record is also
written under .perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"

WORKLOADS = ("sweep-connected", "verify-weighted", "query-stream")

END_TO_END = {
    "instances_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# per-layer metric -> (unit, the end-to-end metric it should move, and where)
RANK = "instances_per_s, latency_p50_ms on verify-weighted; latency_p50_ms on query-stream"
FACTOR = "instances_per_s on sweep-connected; latency_p99_ms on query-stream"
CHARPOLY = "latency_p50_ms, latency_p99_ms on query-stream"
THEOREMS = "instances_per_s on sweep-connected; latency_p50_ms on query-stream"
SWEEP = "instances_per_s on sweep-connected"
CLI = "latency_p50_ms on query-stream"
NONE = "no single workload"
PER_LAYER = {
    "spectra.rank_calls": ("count", RANK),
    "spectra.rank_s": ("s", RANK),
    "spectra.factor_calls": ("count", FACTOR),
    "spectra.factor_s": ("s", FACTOR),
    "spectra.factor_repeat_ratio": ("ratio", FACTOR),
    "spectra.charpoly_calls": ("count", CHARPOLY),
    "spectra.charpoly_s": ("s", CHARPOLY),
    "spectra.charpoly_repeat_ratio": ("ratio", CHARPOLY),
    "spectra.self_s": ("s", NONE),
    "theorems.classifier_calls": ("count", THEOREMS),
    "theorems.relation_calls": ("count", THEOREMS),
    "theorems.self_s": ("s", THEOREMS),
    "theorems.classifier_repeat_ratio": ("ratio", THEOREMS),
    "hermitian.validate_calls": ("count", SWEEP),
    "hermitian.validate_s": ("s", SWEEP),
    "hermitian.submatrix_calls": ("count", SWEEP),
    "hermitian.self_s": ("s", SWEEP),
    "oracle.self_s": ("s", SWEEP),
    "oracle.classifier_calls_per_instance": ("ratio", SWEEP),
    "structure.calls": ("count", SWEEP),
    "structure.self_s": ("s", SWEEP),
    "graphs.calls": ("count", SWEEP),
    "graphs.self_s": ("s", SWEEP),
    "cli.calls": ("count", CLI),
    "cli.self_s": ("s", CLI),
    "client.self_s": ("s", NONE),
    "trace.wall_s": ("s", NONE),
    "trace.overhead_ratio": ("ratio", NONE),
}

SETUP_SAMPLES = 5  # set-ups per run; setup_s is their median
MAX_SWEEPS = 50
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class BenchError(Exception):
    pass


def environment() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "sympy": version("sympy"),
    }


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.workdir = OUT / "tmp" / f"{args.workload}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")

    def worker(self, *extra: str) -> dict:
        a = self.args
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--workdir", str(self.workdir), *(["--tiny"] if a.tiny else []), *extra,
        ]
        left = self.deadline - time.monotonic()
        if left <= 1:
            raise BenchError("out of time before a worker could start")
        start = time.monotonic()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=left, env=self.env, cwd=ROOT)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker did not finish within {left:.0f} s") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError("worker printed no result")
        out = json.loads(lines[-1])
        out["setup_s"] = out["ready"] - start - out["setup_probe_s"]
        return out

    def measure_untraced(self) -> tuple[list, list]:
        """Measuring workers, then set-up-only workers up to SETUP_SAMPLES."""
        runs = [self.worker()]
        if self.args.workload == "sweep-connected":
            while (
                sum(r["wall_s"] for r in runs) + runs[-1]["wall_s"] <= self.args.seconds
                and len(runs) < MAX_SWEEPS
                and self.deadline - time.monotonic() > 3 * (runs[-1]["wall_s"] + runs[-1]["setup_s"]) + 10
            ):
                runs.append(self.worker())
        setups = runs[:]
        while len(setups) < SETUP_SAMPLES:
            setups.append(self.worker("--setup-only"))
        return runs, setups

    def end_to_end(self, runs: list, setups: list, ok_ratio: float) -> tuple[dict, dict]:
        """The metrics stated at the nominal speed (speed.py), and as measured.

        Each time scales by the speed factor of the samples its own process
        took while it ran: the rate by all of the measuring process's samples,
        each latency by those around it, each set-up by those taken during it."""

        def summary(lat: list, rate: float, setup: list) -> dict:
            return {
                "instances_per_s": rate,
                "latency_p50_ms": statistics.median(lat),
                "latency_p99_ms": percentile(lat, 0.99),
                "ok_ratio": ok_ratio,
                "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
                "setup_s": statistics.median(setup),
            }

        raw_lat = [x for r in runs for x in r["latencies_ms"]]
        lat = [x * f for r in runs for x, f in zip(r["latencies_ms"], r["latency_factors"])]
        raw_setup = [s["setup_s"] for s in setups]
        setup = [s["setup_s"] * speed.factor(s["setup_speed_samples_s"]) for s in setups]
        if self.args.workload == "sweep-connected":
            items = runs[0]["items"] * 1e3
            raw_rate, rate = items / statistics.median(raw_lat), items / statistics.median(lat)
        else:
            (r,) = runs
            raw_rate = r["items"] / r["wall_s"]
            rate = raw_rate / speed.factor(r["speed_samples_s"])
        return summary(lat, rate, setup), summary(raw_lat, raw_rate, raw_setup)

    def run(self) -> tuple[dict, dict, int, int]:
        a = self.args
        record = {
            "workload": a.workload, "seed": a.seed, "seconds": a.seconds, "trace": a.trace,
            "environment": environment(),
        }
        if a.trace:
            plain = self.worker()
            spans_file = OUT / "spans" / f"{a.workload}.npz"
            traced = self.worker("--trace", "1", "--items", str(plain["items"]), "--spans", str(spans_file))
            runs, setups = [plain, traced], []
            record["spans_file"] = str(spans_file.relative_to(ROOT))
        else:
            runs, setups = self.measure_untraced()
        digests = {r["digest"] for r in runs + setups}
        attempted = sum(r["attempted"] for r in runs)
        # inputs that differ between processes of one run invalidate every reply
        failed = sum(r["failed"] for r in runs) if len(digests) == 1 else attempted
        if a.trace:
            metrics = dict(traced["layers"])
            metrics["trace.overhead_ratio"] = traced["layers"]["trace.wall_s"] / plain["wall_s"] - 1.0
        else:
            metrics, raw = self.end_to_end(runs, setups, 1.0 - failed / attempted)
            record.update(
                raw_metrics=raw,
                speed_factors=[speed.factor(r["speed_samples_s"]) for r in runs],
                setup_speed_factors=[speed.factor(s["setup_speed_samples_s"]) for s in setups],
                speed_samples=[len(r["speed_samples_s"]) for r in runs],
                setup_speed_samples=[len(s["setup_speed_samples_s"]) for s in setups],
            )
        record.update(
            digest=runs[0]["digest"],
            digests_agree=len(digests) == 1,
            setup_samples_s=[s["setup_s"] for s in setups],
            walls_s=[r["wall_s"] for r in runs],
            items=[r["items"] for r in runs],
            latency_samples=[len(r["latencies_ms"]) for r in runs],
            failure_notes=[n for r in runs for n in r["failure_notes"]],
            fail_ratio=failed / attempted,
        )
        return metrics, record, attempted, failed


def run_one(args) -> int:
    """Run one workload and print its table, record and result line."""
    print(f"workload {args.workload}")
    try:
        metrics, record, attempted, failed = Runner(args).run()
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    units = {k: v[0] for k, v in PER_LAYER.items()} if args.trace else END_TO_END
    raw = record.get("raw_metrics", {})
    for name, value in metrics.items():
        moves = f"  (moves {PER_LAYER[name][1]})" if args.trace else ""
        measured = f"  (as measured {raw[name]:.6f})" if raw.get(name, value) != value else ""
        print(f"{name:40s} {value:>16.6f} {units[name]}{moves}{measured}")
    if not args.trace:
        for key in ("speed_factors", "setup_speed_factors"):
            print(f"{key.replace('_', ' '):40s} " + " ".join(f"{f:.4f}" for f in record[key]))
        print(f"{'fail_ratio':40s} {record['fail_ratio']:>16.6f} ratio ({failed} of {attempted})")
    print(f"{'input digest':40s} {record['digest']}")
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true", help="smallest inputs, for the self-tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "specmult" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'specmult'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        status = max(status, run_one(argparse.Namespace(**{**vars(args), "workload": name})))
    return status


if __name__ == "__main__":
    sys.exit(main())
