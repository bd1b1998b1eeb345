"""minworld benchmark: one measured run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it benchmarks the package under the
checkout's ``src/``. It writes the workload's inputs for the seed, trains
both models with the default settings (untimed), checks once that the
library path it times gives what ``minworld run`` (or ``train``) gives on
the same files, then starts one fresh interpreter that runs the closed
loop (one client, no threads) for S seconds, checking every output and
calibrating the host's speed between chunks of requests (calibrate.py),
and that starts further fresh interpreters between its passes which only
set up, for ``setup_s``. It also replays the workload's check seed once,
untimed, against the reference outputs. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of a traced run). Earlier lines list every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from calibrate import scale

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKER_TIMEOUT_S = 150

REPORT_UNITS = {
    "latency_ms.p50_wall": "ms", "latency_ms.p90": "ms", "host.cal_ms": "ms",
    "error_rate": "ratio",
    "sim.period_s": "sim_s", "sim.sensing_cost_s": "sim_s",
    "sim.exec_time_s": "sim_s", "sim.world_objects": "count",
    "train.objective": "loglik", "train.recovery": "ratio",
}

# Span whose self time per request gives each per-layer time metric.
SELF_MS = {
    "parse.ms": "parse", "dcg.ground_perception_ms": "dcg.ground_perception",
    "dcg.ground_behavior_ms": "dcg.ground_behavior",
    "dcg.compile_ms": "dcg.compile", "dcg.optimize_ms": "dcg.optimize",
    "dcg.objective_ms": "dcg.log_likelihood",
    "dcg.gradient_ms": "dcg.ll_gradient", "dcg.save_ms": "dcg.save",
    "dcg.recovery_ms": "dcg.recovery", "percept.run_ms": "percept.run",
    "world.integrate_ms": "world.integrate",
    "world.snapshot_ms": "world.snapshot", "executive.ms": "executive",
    "cli.serialize_ms": "cli.serialize",
}
SETUP_MS = {
    "setup.import_ms": "setup.import", "symbols.load_ms": "symbols.load",
    "parse.lexicon_load_ms": "parse.lexicon_load",
    "percept.load_ms": "percept.load", "dcg.model_load_ms": "dcg.model_load",
    "dcg.corpus_load_ms": "dcg.corpus_load",
}


def metric_units(section: str) -> dict[str, str]:
    """{name: unit} of the metrics BENCHMARK.json lists under ``section``
    ("end_to_end" or "per_layer"); README.md says how each is derived."""
    data = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in data[section]}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_worker(inputs_path: Path, result_path: Path, *extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(inputs_path),
         str(result_path), *extra],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def train_models(inputs: dict) -> None:
    """Both models, as ``minworld train`` writes them by default."""
    from minworld import cli
    for kind in ("perception", "behavior"):
        corpus = workloads.assets_dir() / f"{kind}_corpus.json"
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["train", "--corpus", str(corpus),
                             "--out", inputs[f"{kind}_model"]])
        if code != 0:
            raise RuntimeError(f"training the {kind} model exited {code}")


def end_to_end(loop: dict, units: dict) -> tuple[dict, dict]:
    """(metrics for the result line, further metrics for the report)."""
    # Times are scaled to the reference host speed chunk by chunk, and
    # set-up times set-up by set-up (calibrate.py; README.md, "Host
    # noise"); the plain wall-clock median is reported next to them.
    chunks = [c for p in loop["passes"] if not p[1] for c in p[2]]
    lats = sorted(x * scale(cal) / 1e6 for _, cal, ls in chunks for x in ls)
    busy_s = sum(wall * scale(cal) for wall, cal, _ in chunks) / 1e9
    setups = [s for burst in loop["setups"] for s in burst]
    metrics = {
        "latency_ms.p50": statistics.median(lats),
        "throughput_rps": len(lats) / busy_s,
        "peak_rss_mb": loop["peak_rss_mb"],
        "setup_s": statistics.median(s["setup_s"] * scale(s["cal_ms"])
                                     for s in setups),
    }
    extra = {
        "error_rate": loop["failed"] / loop["attempted"],
        "latency_ms.p50_wall": statistics.median(
            x / 1e6 for _, _, ls in chunks for x in ls),
        "host.cal_ms": statistics.median(cal for _, cal, _ in chunks),
    }
    # p90 only where at least ten samples lie beyond it.
    if len(lats) >= 100:
        extra["latency_ms.p90"] = statistics.quantiles(lats, n=10)[8]
    extra.update({k: v for k, v in loop.get("sums", {}).items()
                  if k in REPORT_UNITS})
    return {k: metrics[k] for k in units}, extra


def per_layer(loop: dict, spans_path: Path, units: dict) -> dict:
    from spans import read
    from summarize import by_name, overhead_pct
    header, records = read(spans_path)
    names = by_name(records)
    n = header["items"] * sum(1 for _, t in header["passes"] if t)

    def self_ms(span: str) -> float:
        return names.get(span, {}).get("self_ns", 0) / 1e6 / n

    def calls(span: str) -> float:
        return names.get(span, {}).get("calls", 0) / n

    out = {k: self_ms(span) for k, span in SELF_MS.items()}
    setup_ms = [s["setup_ms"] for burst in loop["setups"] for s in burst]
    for k, span in SETUP_MS.items():
        out[k] = statistics.median(s.get(span, 0.0) for s in setup_ms)
    counts = dict(loop.get("counts", {}))
    counts.update(loop.get("sums", {}))
    for k, unit in units.items():
        if unit in ("count", "bytes") and k not in out:
            out[k] = counts.get(k, 0)
    out["dcg.objective_evals"] = calls("dcg.log_likelihood")
    out["dcg.gradient_evals"] = calls("dcg.ll_gradient")
    out["world.integrate_calls"] = calls("world.integrate")
    factors = out["dcg.factors_perception"] + out["dcg.factors_behavior"]
    grounding_ms = out["dcg.ground_perception_ms"] + out["dcg.ground_behavior_ms"]
    out["dcg.us_per_factor"] = 1e3 * grounding_ms / factors if factors else 0.0
    out["dcg.expressed_ratio"] = (counts.get("dcg.expressed", 0) / factors
                                  if factors else 0.0)
    detections = out["percept.detections"]
    out["percept.us_per_detection"] = (
        1e3 * (out["percept.run_ms"] + out["world.integrate_ms"]) / detections
        if detections else 0.0)
    out["world.new_object_ratio"] = (out["world.objects"] /
                                     out["world.integrate_calls"]
                                     if out["world.integrate_calls"] else 0.0)
    pct = overhead_pct(header["passes"])
    out["trace.overhead_pct"] = 0.0 if pct is None else pct
    return {k: out[k] for k in units}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "minworld" / "__init__.py").is_file():
        return fail(f"no minworld package under {SRC}; run inside a checkout")
    if args.seconds <= 0:
        return fail("--seconds must be positive")
    sys.path.insert(0, str(SRC))
    import pipeline
    from spans import NoSpans

    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
    try:
        inputs = workloads.prepare(args.workload, args.seed, work)
        inputs_path = work / "inputs.json"
        if args.workload != "train":
            train_models(inputs)
        problems = pipeline.cli_mismatches(
            inputs, pipeline.load_context(inputs, NoSpans()), work)
        if args.workload != "train":
            problems += pipeline.check_seed_mismatches(inputs, work / "check")
        extra = ["--seconds", str(args.seconds)]
        if args.trace:
            extra += ["--spans", str(spans_path)]
        loop = run_worker(inputs_path, work / "loop.json", *extra)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired) as e:
        return fail(str(e))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for msg in problems + loop["errors"]:
        print(f"perfbench: {msg}", file=sys.stderr)
    correct = not problems and loop["failed"] == 0 and "sums" in loop
    if args.trace:
        units = metric_units("per_layer")
        metrics = per_layer(loop, spans_path, units)
    else:
        units = metric_units("end_to_end")
        metrics, extra_metrics = end_to_end(loop, units)
        for name, value in sorted(extra_metrics.items()):
            print(f"{name} = {value!r} {REPORT_UNITS[name]}")
    for name, value in metrics.items():
        print(f"{name} = {value!r} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop["attempted"],
        "failed": loop["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
