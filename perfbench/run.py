#!/usr/bin/env python3
"""matroidlab benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload r10-scan --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 runs the same workload
with every layer wrapped (see tracer.py) and prints the per-layer metrics.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The line before it ("info ...") carries figures that are reported but not
gated.  Result and trace files go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPS = 9

# the per-layer metrics printed under --trace 1, as listed in BENCHMARK.json
PER_LAYER = (
    "engine.nbc_check.calls", "engine.nbc_check.s", "engine.nbc_check.covered_pct",
    "engine.search_orderings.s",
    "engine.order_ideals.calls", "engine.order_ideals.s", "engine.order_ideals.self_s",
    "engine.order_ideals.monomials", "engine.sorted.s",
    "engine.lsop.calls", "engine.lsop.s", "engine.lsop.self_s",
    "incidence.basis_is_nonsingular.calls", "incidence.basis_is_nonsingular.s",
    "complexes.bc_faces.calls", "complexes.bc_faces.s", "complexes.f_h_vectors.s",
    "polynomials.monomials_independent_in_quotient.calls",
    "polynomials.monomials_independent_in_quotient.s", "linalg.RowSpace.add.calls",
    "matroids.Matroid.representation_over.calls", "matroids.Matroid.representation_over.s",
    "linalg.Matrix.is_totally_unimodular.calls", "linalg.Matrix.is_totally_unimodular.s",
    "linalg.tu_signing.calls", "linalg.tu_signing.s",
    "matroids.Matroid.circuits.calls", "matroids.Matroid.circuits.s",
    "matroids.Matroid.bases.s", "matroids.Matroid.is_independent.calls",
    "linalg.Matrix.rank.calls", "linalg.Matrix.rank.s",
    "families.theta_matroid.s", "families.phi_matroid.s",
    "polynomials.groebner_basis.calls", "polynomials.groebner_basis.s",
    "polynomials.normal_form.calls", "polynomials.normal_form.s",
    "bench.traced_checks_per_s",
)


def _fresh_import():
    """Import matroidlab from scratch, so each set-up pays the import again."""
    for key in [k for k in sys.modules if k == "matroidlab" or k.startswith("matroidlab.")]:
        del sys.modules[key]
    return importlib.import_module("matroidlab")


def _setup_once(workload, text):
    t0 = time.perf_counter()
    api = _fresh_import()
    state = workload.setup(api, text)
    return time.perf_counter() - t0, api, state


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "matroidlab", "__init__.py")):
        print(f"no matroidlab package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = workloads.make(args.workload)
    text = workload.input_text(args.seed)
    out = workloads.Outcome()
    traced = bool(args.trace)
    tracer = None
    if traced:
        import tracer as tracing

        api = _fresh_import()
        tracer = tracing.Tracer()
        tracer.install()
        state = workload.setup(api, text)
        setup_s = None
    else:
        times = []
        for _ in range(SETUP_REPS):
            dt, api, state = _setup_once(workload, text)
            times.append(dt)
        setup_s = statistics.median(times)

    rounds = 0
    start = time.perf_counter()
    while True:
        rng = random.Random(f"{args.workload}:{args.seed}:{rounds}")
        workload.round(api, state, rng, out, traced)
        rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()
    workload.verify(api, state, out, random.Random(f"{args.workload}:{args.seed}:verify"))

    if out.decisions == 0 or not out.latencies:
        print("no decision completed; nothing to report", file=sys.stderr)
        for p in out.problems[:20]:
            print("problem:", p, file=sys.stderr)
        return 1
    rate = out.decisions / out.busy
    if traced:
        layers = tracer.metrics()
        s = tracer.total["engine.nbc_check"]
        covered = 100.0 * (1.0 - tracer.self_time["engine.nbc_check"] / s) if s else 0.0
        layers["engine.nbc_check.covered_pct"] = (covered, "%")
        layers["bench.traced_checks_per_s"] = (rate, "1/s")
        metrics = {k: {"value": layers[k][0], "unit": layers[k][1]} for k in PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "checks_per_s": {"value": rate, "unit": "1/s"},
            "check_s_p50": {"value": statistics.median(out.latencies), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    info = dict(out.info)
    if "w2_seconds" in info:
        info["checks_per_s_w2"] = info["w2_decisions"] / info["w2_seconds"]
    info.update(rounds=rounds, samples=len(out.latencies), problems=out.problems[:20])
    result = {
        "correct": out.correct,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump({"result": result, "info": info}, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.dump(stem + ".spans.json")
    print("info " + json.dumps(info, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
