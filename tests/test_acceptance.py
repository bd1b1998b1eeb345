"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line (repeated in the terminal
summary) and then asserts, so a red run names exactly which guarantee
broke.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

from minworld import dcg
from minworld.cli import ground_detectors, main
from minworld.parse import load_parse_tree
from minworld.percept import PerceptionConfig, Scene, load_registry, run_perception
from minworld.symbols import DetectorSet

from helpers_oracle import enumerate_assignment, hash_model, random_graph

RESULTS: list[str] = []


def _report(num: int, title: str, ok: bool) -> bool:
    line = f"ACCEPTANCE {num} {title}: {'PASS' if ok else 'FAIL'}"
    RESULTS.append(line)
    print(line)
    return ok


def test_acceptance_1_detector_set_reproduction(assets, space, tmp_path, capsys):
    start = time.perf_counter()
    model_path = tmp_path / "perception.json"
    code = main(["train", "--corpus", str(assets / "perception_corpus.json"),
                 "--out", str(model_path)])
    trained_ok = code == 0
    capsys.readouterr()

    grounds = {}
    for name in ("drive_to_the_door", "open_the_door"):
        code = main(["ground", "--tree", str(assets / "trees" / f"{name}.txt"),
                     "--model", str(model_path), "--json"])
        trained_ok = trained_ok and code == 0
        grounds[name] = json.loads(capsys.readouterr().out)
    elapsed = time.perf_counter() - start

    drive_ok = (grounds["drive_to_the_door"]["detectors"] == ["door"]
                and grounds["drive_to_the_door"]["links"] == [])
    open_ok = (grounds["open_the_door"]["detectors"] == ["door", "door_handle"]
               and grounds["open_the_door"]["links"] == [["door", "handle"]])

    # detector ids alone cannot distinguish {hierarchy} from
    # {label, hierarchy}; pin the expressed symbol sets exactly
    model = dcg.Model.load(model_path)
    door = space.semantic("door")
    pair = space.hierarchy("door", "handle")
    sym_sets = {}
    for name in ("drive_to_the_door", "open_the_door"):
        text = (assets / "trees" / f"{name}.txt").read_text().strip()
        graph = dcg.build_perception_graph(load_parse_tree(text), space)
        sym_sets[name] = dcg.infer(graph, model).all_symbols(graph)
    exact_ok = (sym_sets["drive_to_the_door"] == {door}
                and sym_sets["open_the_door"] == {door, pair})

    ok = trained_ok and drive_ok and open_ok and exact_ok and elapsed < 5.0
    assert _report(1, "detector-set reproduction under 5 s", ok), {
        "trained": trained_ok, "drive": grounds["drive_to_the_door"],
        "open": grounds["open_the_door"],
        "symbols": {k: sorted(map(repr, v)) for k, v in sym_sets.items()},
        "elapsed_s": elapsed,
    }


def test_acceptance_2_perception_period_scaling(model_dir, capsys):
    code = main(["bench", "--perception-model", str(model_dir / "perception.json"),
                 "--json"])
    rows = json.loads(capsys.readouterr().out)["rows"]
    periods = {(r["instruction"], r["mode"]): r["avg_period"] for r in rows}
    targets = {
        ("drive to the door", "exhaustive"): 2.060,
        ("drive to the door", "adaptive"): 0.092,
        ("open the door", "adaptive"): 0.158,
    }
    within = {key: abs(periods[key] - want) <= 0.01 * want
              for key, want in targets.items()}
    ratio = (periods[("open the door", "adaptive")]
             / periods[("drive to the door", "adaptive")])
    ratio_ok = 1.6 <= ratio <= 2.0
    ok = code == 0 and all(within.values()) and ratio_ok
    assert _report(2, "bench periods within 1% and open/drive ratio", ok), {
        "periods": periods, "within": within, "ratio": ratio,
    }


def test_acceptance_3_inference_oracle_equivalence():
    mismatches = []
    n_graphs = 220
    for seed in range(n_graphs):
        graph = random_graph(seed)
        model = hash_model(graph, salt=f"acc{seed}")
        got = dcg.infer(graph, model).expressed
        want = enumerate_assignment(graph, model)
        if got != want:
            mismatches.append(seed)
    ok = not mismatches
    assert _report(3, f"bottom-up argmax equals enumeration on {n_graphs} graphs",
                   ok), {"mismatched_seeds": mismatches}


def test_acceptance_4_gradient_correctness(perception_corpus):
    corpus = perception_corpus
    h = 1e-5
    rng = np.random.default_rng(20240822)
    worst = 0.0
    for _ in range(20):
        w = rng.normal(scale=0.5, size=corpus.dim)
        grad = dcg.ll_gradient(corpus, w, l2=1e-3)
        fd = np.zeros(corpus.dim)
        for i in range(corpus.dim):
            wp = w.copy()
            wp[i] += h
            up = dcg.log_likelihood(corpus, wp, 1e-3)
            wp[i] = w[i] - h
            down = dcg.log_likelihood(corpus, wp, 1e-3)
            fd[i] = (up - down) / (2.0 * h)
        rel = float(np.linalg.norm(fd - grad) / max(np.linalg.norm(grad), 1e-12))
        worst = max(worst, rel)
    ok = worst < 1e-4
    assert _report(4, "analytic gradient matches finite differences", ok), {
        "max_relative_error": worst,
    }


def test_acceptance_5_training_behavior(perception_corpus, behavior_corpus,
                                        perception_train, behavior_train):
    checks = {}
    for name, corpus, result in (
        ("perception", perception_corpus, perception_train),
        ("behavior", behavior_corpus, behavior_train),
    ):
        history = result.objective_history
        checks[f"{name}_monotone"] = all(
            b >= a for a, b in zip(history, history[1:]))
        checks[f"{name}_recovery"] = dcg.recovery(corpus, result.model) == 1.0
    ok = all(checks.values())
    assert _report(5, "monotone objective and 100% corpus recovery", ok), checks


def test_acceptance_6_end_to_end_traces(assets, model_dir, tmp_path, capsys):
    def run(tree_name, out_name, *extra):
        out_dir = tmp_path / out_name
        code = main(["run", "--tree", str(assets / "trees" / f"{tree_name}.txt"),
                     "--perception-model", str(model_dir / "perception.json"),
                     "--behavior-model", str(model_dir / "behavior.json"),
                     "--out-dir", str(out_dir), "--json", *extra])
        capsys.readouterr()
        trace = json.loads((out_dir / "trace.json").read_text())
        return code, [s for s, _ in trace["trace"]]

    open_code, open_states = run("open_the_door", "open")
    drive_code, drive_states = run("drive_to_the_door", "drive")
    fail_code, fail_states = run("open_the_door", "dropped",
                                 "--drop-detector", "door_handle")

    open_ok = open_code == 0 and open_states == [
        "RECEIVED", "NAVIGATING", "DETECTING", "LOCALIZING",
        "TURNING", "PUSHING", "COMPLETE",
    ]
    drive_ok = drive_code == 0 and drive_states == [
        "RECEIVED", "NAVIGATING", "COMPLETE",
    ]
    fail_ok = fail_code == 4 and fail_states == [
        "RECEIVED", "NAVIGATING", "DETECTING", "FAILURE",
    ]
    ok = open_ok and drive_ok and fail_ok
    assert _report(6, "exact executive traces including detect failure", ok), {
        "open": (open_code, open_states),
        "drive": (drive_code, drive_states),
        "dropped_handle": (fail_code, fail_states),
    }


def test_acceptance_7_world_minimality_and_contrast(assets, space, model_dir):
    registry = load_registry(assets / "detector_registry.json")
    scene = Scene.load(assets / "door_scene.json")
    model = dcg.Model.load(model_dir / "perception.json")
    emits = {d.id: d.emits_label for d in registry}

    adaptive_ok = {}
    task_labels: set[str] = set()
    for name in ("drive_to_the_door", "open_the_door"):
        text = (assets / "trees" / f"{name}.txt").read_text().strip()
        detectors = ground_detectors(load_parse_tree(text), model, space)
        allowed = {emits[i] for i in detectors.ids}
        task_labels |= allowed
        fp_free = all(
            d.false_positive_rate == 0.0 for d in registry if d.id in detectors.ids)
        world, metrics = run_perception(
            scene, PerceptionConfig(registry, detectors, "adaptive", seed=0))
        adaptive_ok[name] = (fp_free and metrics.spurious_emitted == 0
                             and {o.label for o in world.query()} <= allowed)

    exhaustive_world, _ = run_perception(
        scene, PerceptionConfig(registry, None, "exhaustive", seed=0))
    extraneous = {o.label for o in exhaustive_world.query()} - task_labels
    ok = all(adaptive_ok.values()) and bool(extraneous)
    assert _report(7, "adaptive worlds minimal, exhaustive world cluttered", ok), {
        "adaptive": adaptive_ok, "extraneous": sorted(extraneous),
    }


def test_acceptance_8_bench_determinism(model_dir, tmp_path, capsys):
    outs = []
    files = []
    for i in range(2):
        path = tmp_path / f"bench{i}.json"
        code = main(["bench",
                     "--perception-model", str(model_dir / "perception.json"),
                     "--seed", "0", "--out", str(path), "--json"])
        outs.append((code, capsys.readouterr().out))
        files.append(path.read_bytes())
    ok = (outs[0][0] == outs[1][0] == 0
          and outs[0][1] == outs[1][1]
          and files[0] == files[1]
          and len(files[0]) > 0)
    assert _report(8, "byte-identical bench output across invocations", ok)
