"""Per-module self time and counts from the traced run's span files.

    python3 perfbench/summarize.py .bench_out/spans-*.jsonl

For each file (one workload and seed) it prints, per span name, the calls
and the self time per request, the self share of all request time, the
inclusive time and its share, the totals per module, and the tracing
overhead: the median traced pass against the median untraced pass.
A span's self time is its duration minus the durations of its direct
children; spans of one request never overlap except by nesting.
"""

from __future__ import annotations

import argparse
import statistics
import sys
from pathlib import Path

from spans import read


def by_name(records: list[list]) -> dict[str, dict]:
    """{name: {"calls", "self_ns", "total_ns"}} over request spans."""
    child = [0] * len(records)
    for rec in records:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    out: dict[str, dict] = {}
    for i, rec in enumerate(records):
        if rec[4] < 0:
            continue
        d = out.setdefault(rec[0], {"calls": 0, "self_ns": 0, "total_ns": 0})
        dur = rec[2] - rec[1]
        d["calls"] += 1
        d["total_ns"] += dur
        d["self_ns"] += dur - child[i]
    return out


def module(name: str) -> str:
    return name.split(".", 1)[0]


def overhead_pct(passes: list) -> float | None:
    """Median traced pass time over median untraced pass time, as a
    percentage above 100; None unless both kinds of pass ran."""
    traced = [w for w, t, *_ in passes if t]
    plain = [w for w, t, *_ in passes if not t]
    if not traced or not plain:
        return None
    return (statistics.median(traced) / statistics.median(plain) - 1.0) * 100.0


def report(path: Path) -> list[str]:
    header, records = read(path)
    names = by_name(records)
    requests = header["items"] * sum(1 for _, t in header["passes"] if t)
    total = sum(d["self_ns"] for d in names.values())
    lines = [f"== {header['workload']} (seed {header['seed']}): "
             f"{requests} traced requests, {len(records)} spans",
             f"{'span':<24}{'calls/req':>11}{'self ms/req':>13}"
             f"{'self %':>8}{'incl ms/req':>13}{'incl %':>8}"]
    for name, d in sorted(names.items(), key=lambda kv: -kv[1]["self_ns"]):
        lines.append(f"{name:<24}{d['calls'] / requests:>11.2f}"
                     f"{d['self_ns'] / 1e6 / requests:>13.4f}"
                     f"{100.0 * d['self_ns'] / total:>8.1f}"
                     f"{d['total_ns'] / 1e6 / requests:>13.4f}"
                     f"{100.0 * d['total_ns'] / total:>8.1f}")
    modules: dict[str, int] = {}
    for name, d in names.items():
        modules[module(name)] = modules.get(module(name), 0) + d["self_ns"]
    lines.append("per module (self): " + ", ".join(
        f"{m} {100.0 * ns / total:.1f}%"
        for m, ns in sorted(modules.items(), key=lambda kv: -kv[1])))
    pct = overhead_pct(header["passes"])
    lines.append("tracing overhead: " + (
        "n/a (no untraced passes)" if pct is None else
        f"{pct:+.1f}% (median traced vs untraced pass time)"))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("files", nargs="+", type=Path)
    args = ap.parse_args(argv)
    for path in args.files:
        print("\n".join(report(path)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
