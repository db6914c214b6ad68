"""One benchmark process: set up a workload, measure it, check every reply.

Started by run.py, each time in a fresh interpreter so that the program's
internal caches start cold. Prints one JSON object as its last output line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_INTERVAL_S = 0.03  # speed sampling interval during set-up
MIN_SAMPLES = 5  # speed samples taken after a set-up or measurement that was too short


def layer_metrics(tracer, items: int) -> dict:
    """Per-layer counts and self times of one traced region."""
    self_s = tracer.layer_self_seconds()
    calls, incl, repeat = tracer.calls, tracer.inclusive_seconds, tracer.repeat_ratio
    classifier = calls("theorems.conclusion_classifier")
    return {
        "spectra.rank_calls": calls("spectra.exact_rank"),
        "spectra.rank_s": incl("spectra.exact_rank"),
        "spectra.factor_calls": calls("spectra.irreducible_factors"),
        "spectra.factor_s": incl("spectra.irreducible_factors"),
        "spectra.factor_repeat_ratio": repeat("spectra.irreducible_factors"),
        "spectra.charpoly_calls": calls("spectra.scaled_char_poly"),
        "spectra.charpoly_s": incl("spectra.scaled_char_poly"),
        "spectra.charpoly_repeat_ratio": repeat("spectra.scaled_char_poly"),
        "spectra.self_s": self_s["spectra"],
        "theorems.classifier_calls": classifier,
        "theorems.relation_calls": calls("theorems.lemma_relation_checks"),
        "theorems.self_s": self_s["theorems"],
        "theorems.classifier_repeat_ratio": repeat("theorems.conclusion_classifier"),
        "hermitian.validate_calls": calls("hermitian.validate_pattern"),
        "hermitian.validate_s": incl("hermitian.validate_pattern"),
        "hermitian.submatrix_calls": calls("hermitian.principal_submatrix"),
        "hermitian.self_s": self_s["hermitian"],
        "oracle.self_s": self_s["oracle"],
        "oracle.classifier_calls_per_instance": classifier / max(items, 1),
        "structure.calls": tracer.layer_calls("structure"),
        "structure.self_s": self_s["structure"],
        "graphs.calls": tracer.layer_calls("graphs"),
        "graphs.self_s": self_s["graphs"],
        "cli.calls": tracer.layer_calls("cli"),
        "cli.self_s": self_s["cli"],
        "client.self_s": self_s["client"],
        "trace.wall_s": tracer.root_seconds,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--items", type=int, help="measure exactly this many instances or requests")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--workdir", required=True, help="scratch directory for input files")
    ap.add_argument("--spans", help="where a traced run writes its spans (.npz)")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import speed

    # set-up is short, so its speed is sampled more often than a measurement's
    setup_probe = speed.Probe(SETUP_INTERVAL_S)
    setup_probe.start()
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]()
    try:
        wl.setup(args.seed, args.tiny, args.workdir)
        import specmult

        setup_probe.stop()
        out = {"digest": wl.digest, "ready": time.monotonic(), "setup_probe_s": setup_probe.spent}
        setup_probe.top_up(MIN_SAMPLES)
        out["setup_speed_samples_s"] = setup_probe.samples
        if Path(specmult.__file__).resolve().parent != SRC / "specmult":
            print(f"imported specmult from {specmult.__file__}, not {SRC}", file=sys.stderr)
            return 2
        if args.setup_only:
            print(json.dumps(out))
            return 0
        probe = speed.Probe()
        tracer = spans.Tracer() if args.trace else None
        if not tracer:  # a traced run keeps the handler out of its spans
            probe.start()
        try:
            meas = wl.run(args.seconds, args.items, tracer, probe)
        finally:
            probe.stop()
        if not tracer:
            probe.top_up(MIN_SAMPLES)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        setup_probe.stop()
        wl.cleanup()
    out.update(
        items=meas.items,
        wall_s=meas.wall_s,
        latencies_ms=[x * 1e3 for x in meas.latencies_s],
        attempted=meas.attempted,
        failed=meas.failures.count,
        failure_notes=meas.failures.notes,
        speed_samples_s=probe.samples,
        latency_factors=speed.local_factors(probe, meas.starts_s, meas.latencies_s) if not tracer else [],
    )
    if tracer:
        out["layers"] = layer_metrics(tracer, meas.items)
        if args.spans:
            os.makedirs(os.path.dirname(args.spans), exist_ok=True)
            tracer.save(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
