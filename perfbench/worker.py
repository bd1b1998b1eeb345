"""One fresh interpreter of the benchmark: set up, then run requests.

    python3 perfbench/worker.py INPUTS_JSON RESULT_JSON [--seconds S]
        [--spans SPANS_JSONL]

Without ``--seconds`` it only sets up: it imports minworld and
minworld.cli, loads the inputs' assets and models (or corpora), and
records how long that took, then calibrates the host's speed
(calibrate.py). With ``--seconds`` it then runs one untimed warm-up pass
of the workload's requests and timed passes until they add up to S
seconds, checking every output; each pass is timed in chunks of at least
CHUNK_NS, with a calibration between chunks. Between passes it starts
bursts of further set-up-only interpreters, spread over the loop. With
``--spans`` timed passes alternate between traced and untraced, and the
traced passes' spans are written to SPANS_JSONL. The result goes to
RESULT_JSON.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

from calibrate import calibrate, scale
from spans import NoSpans, Spans

# Fresh-interpreter set-ups the loop starts: SETUP_BURSTS bursts of
# SETUP_BURST back-to-back set-ups, spread evenly over the timed loop.
SETUP_BURSTS = 6
SETUP_BURST = 3
SETUP_TIMEOUT_S = 60
# Requests are timed in chunks of at least this long (one request, where
# a request takes longer), each between two calibrations.
CHUNK_NS = 20e6


def _setup(inputs: dict, spans) -> tuple[object, float]:
    t0 = time.perf_counter()
    with spans.span("setup.import"):
        import minworld  # noqa: F401
        import minworld.cli  # noqa: F401
    # pipeline imports minworld, so it is imported only once timing runs.
    import pipeline
    ctx = pipeline.load_context(inputs, spans)
    return ctx, time.perf_counter() - t0


def _digest(blobs) -> str:
    h = hashlib.blake2b(digest_size=16)
    for b in blobs:
        h.update(b)
    return h.hexdigest()


class Loop:
    """Runs passes over the workload's requests and checks each output."""

    def __init__(self, inputs: dict, ctx, work: Path):
        import pipeline
        self.pipeline = pipeline
        self.ctx = ctx
        self.work = work
        self.reference = json.loads(pipeline.REFERENCE.read_text("utf-8"))
        self.is_train = "corpora" in inputs
        self.items = [None] if self.is_train else inputs["requests"]
        self.digests: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.next_id = 0

    def one(self, i: int, spans):
        """Run item i of the pass; returns (latency_ns, output or None)."""
        p = self.pipeline
        spans.request = self.next_id
        self.next_id += 1
        self.attempted += 1
        try:
            t0 = time.perf_counter_ns()
            with spans.span("request"):
                if self.is_train:
                    out = p.run_job(self.ctx, spans, self.work)
                else:
                    out = p.run_request(self.ctx, self.items[i], spans)
            lat = time.perf_counter_ns() - t0
            if self.is_train:
                p.check_job(self.reference, out)
                blobs = [Path(s["model"]).read_bytes() for s in out]
            else:
                p.check_request(self.reference, self.items[i], out,
                                self.ctx.scene.robot_start)
                blobs = out.blobs
            digest = _digest(blobs)
            if self.digests.setdefault(i, digest) != digest:
                raise p.CheckError(f"item {i}: output bytes differ from its "
                                   f"first run under the same inputs")
            return lat, out
        except Exception as e:  # a failed request is counted, not fatal
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(e).__name__}: {e}")
            return None, None


def _train_sums(jobs: list) -> dict:
    s = jobs[0]
    examples = sum(x["examples"] for x in s)
    return {
        "train.objective": sum(x["objective"] for x in s),
        "train.recovery": sum(x["recovery"] * x["examples"] for x in s) / examples,
        "dcg.train_iterations": sum(x["iterations"] for x in s),
        "dcg.train_converged": sum(1 for x in s if x["converged"]),
        "dcg.features": sum(x["features"] for x in s),
    }


def _counts(ctx, out) -> dict:
    """Work counts of one request, from its outputs and its graphs."""
    from minworld import dcg
    pg = dcg.build_perception_graph(out.tree, ctx.space)
    bg = dcg.build_behavior_graph(out.tree, ctx.space, out.world)
    expressed = sum(len(ids) for g, m in ((pg, ctx.perception_model),
                                          (bg, ctx.behavior_model))
                    for ids in dcg.infer(g, m).expressed.values())
    return {
        "parse.phrases": out.tree.n_phrases,
        "symbols.perception_bank": len(ctx.space.perception),
        "dcg.factors_perception": pg.factor_count,
        "dcg.factors_behavior": bg.factor_count,
        "dcg.expressed": expressed,
        "percept.detections": out.metrics.detections_emitted,
        "percept.spurious": out.metrics.spurious_emitted,
        "percept.frames": out.metrics.frames,
        "percept.active_detectors": len(out.metrics.active_detectors),
        "world.objects": len(out.world.objects),
        "executive.transitions": len(out.status.trace) - 1,
        "cli.serialize_bytes": sum(len(b) for b in out.blobs),
    }


def _patch(spans: Spans) -> None:
    from minworld import dcg
    from minworld.world import WorldModel
    spans.patch(WorldModel, "integrate", "world.integrate")
    spans.patch(WorldModel, "snapshot", "world.snapshot")
    spans.patch(dcg, "log_likelihood", "dcg.log_likelihood")
    spans.patch(dcg, "ll_gradient", "dcg.ll_gradient")


def _setup_sample(inputs_path: str, out: Path) -> dict:
    """One set-up in a fresh interpreter, as this script without
    ``--seconds`` does it."""
    subprocess.run([sys.executable, __file__, inputs_path, str(out)],
                   check=True, timeout=SETUP_TIMEOUT_S)
    return json.loads(out.read_text(encoding="utf-8"))


def _timed_pass(loop: Loop, spans, cal: float) -> tuple[list, float]:
    """One pass over the requests, timed in chunks of at least CHUNK_NS.
    ``cal`` is the calibration taken right before the pass. Returns the
    chunks, [wall_ns, the faster calibration of the two around it in ms,
    latencies_ns] each, and the calibration taken after the last one."""
    chunks = []
    n, i = len(loop.items), 0
    while i < n:
        lats = []
        t0 = time.perf_counter_ns()
        while i < n and time.perf_counter_ns() - t0 < CHUNK_NS:
            lats.append(loop.one(i, spans)[0])
            i += 1
        wall = time.perf_counter_ns() - t0
        after = calibrate()
        chunks.append([wall, min(cal, after),
                       [x for x in lats if x is not None]])
        cal = after
    return chunks, cal


def run_loop(inputs_path: str, ctx, work: Path, seconds: float,
             spans_path: Path | None) -> dict:
    trace = spans_path is not None
    inputs = json.loads(Path(inputs_path).read_text(encoding="utf-8"))
    loop = Loop(inputs, ctx, work)
    items = range(len(loop.items))
    # Warm-up pass: untimed; fills caches and gives the deterministic
    # per-pass figures (simulated metrics and work counts).
    warm = [loop.one(i, NoSpans())[1] for i in items]
    result: dict = {}
    if all(o is not None for o in warm):
        if loop.is_train:
            result["sums"] = _train_sums(warm)
        else:
            result["sums"] = loop.pipeline.sim_metrics(warm)
            if trace:
                per = [_counts(ctx, o) for o in warm]
                result["counts"] = {k: sum(c[k] for c in per) / len(per)
                                    for k in per[0]}
    recorder = Spans()
    passes = []  # [wall_ns, traced, chunks]
    setups = []
    timed_ns = 0
    traced = trace
    gc.collect()
    cal = calibrate()
    while True:
        # Set-up bursts are spread over the timed loop, between passes,
        # so that they meet the same host states as the requests do.
        if (len(setups) < SETUP_BURSTS
                and timed_ns >= len(setups) * seconds * 1e9 / SETUP_BURSTS):
            setups.append([_setup_sample(inputs_path, work / "setup.json")
                           for _ in range(SETUP_BURST)])
            gc.collect()
            cal = calibrate()
        if traced:
            _patch(recorder)
        spans = recorder if traced else NoSpans()
        chunks, cal = _timed_pass(loop, spans, cal)
        recorder.unpatch()
        wall = sum(c[0] for c in chunks)
        timed_ns += wall
        passes.append([wall, traced, chunks])
        kinds = {p[1] for p in passes}
        if timed_ns >= seconds * 1e9 and len(kinds) == (2 if trace else 1):
            break
        traced = trace and not traced
    result.update(
        attempted=loop.attempted, failed=loop.failed, errors=loop.errors,
        passes=passes, items=len(items), setups=setups,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if trace:
        recorder.write(spans_path, {"workload": inputs["workload"],
                                    "seed": inputs["seed"],
                                    # Pass times at the reference speed.
                                    "passes": [[sum(w * scale(c)
                                                    for w, c, _ in p[2]), p[1]]
                                               for p in passes],
                                    "items": len(items)})
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("inputs")
    ap.add_argument("result")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    inputs = json.loads(Path(args.inputs).read_text(encoding="utf-8"))
    setup_spans = Spans()
    ctx, setup_s = _setup(inputs, setup_spans)
    result = {"setup_s": setup_s, "cal_ms": calibrate(),
              "setup_ms": {r[0]: (r[2] - r[1]) / 1e6 for r in setup_spans.records}}
    if args.seconds is not None:
        result.update(run_loop(args.inputs, ctx, Path(args.result).parent,
                               args.seconds,
                               Path(args.spans) if args.spans else None))
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
