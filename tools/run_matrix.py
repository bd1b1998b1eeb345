#!/usr/bin/env python3
"""Digest every output of a fixed matrix of ``minworld`` commands.

Trains both models from the bundled corpora, then runs, through
``cli.main`` in this process, the 360 depth-1 trees of
``tests/gen_trees.py`` and the 4 bundled trees, each at seeds 0 and 3,
adaptive and exhaustive, with text and ``--json`` output: 2912 runs.
Every line is ``key exit-code digest``, the digest a truncated sha256
over the exit code, stdout, stderr and every out-dir file (name and
bytes), with the scratch and asset directories written as ``$WORK`` and
``$ASSETS``. Lines for both ``train --json`` summaries, the model files
they wrote (with the train's exit code) and ``bench --json`` come first.
The ``ground`` lines come last: each of the 364 trees with the
perception model, in text and ``--json``, and ``ground --json`` with the
behavior model over the worlds of two runs (``GROUND_WORLDS``). Run from
the repository root; it runs this checkout's ``src``:

    python tools/run_matrix.py > tools/run_matrix.txt
    python tools/run_matrix.py --check tools/run_matrix.txt

``--check`` lists the keys whose line changed, grouped by exit-code
transition, and exits 1 if any did. The committed file is check data:
regenerate it only for a change of the specified output, listing every
changed key.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import shutil
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from gen_trees import generate, load_lexicon  # noqa: E402
from minworld import cli  # noqa: E402

ASSETS = ROOT / "src" / "minworld" / "assets"
SEEDS = (0, 3)
MODES = ("adaptive", "exhaustive")
DIGEST_HEX = 16
# the (tree, mode) runs at seed 0 whose world the behavior model grounds
# against: the door alone, and the world with two suitcases
GROUND_WORLDS = (("open_the_door", "adaptive"), ("drive_to_the_door", "exhaustive"))


def _normalized(text: str, work: Path) -> str:
    return text.replace(str(work), "$WORK").replace(str(ASSETS), "$ASSETS")


def matrix(work: Path) -> list[tuple[str, int, str]]:
    """Every (key, exit code, digest) line, in a fixed order."""
    rows = []

    def record(key: str, argv: list[str], out_dir: Path | None = None) -> int:
        # the scratch and asset paths are written as placeholders, so a
        # digest does not depend on where either directory is
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        h = hashlib.sha256()
        for text in (str(code), out.getvalue(), err.getvalue()):
            h.update(_normalized(text, work).encode("utf-8") + b"\0")
        if out_dir is not None and out_dir.is_dir():
            for f in sorted(out_dir.iterdir()):
                data = _normalized(f.read_text(encoding="utf-8"), work)
                h.update(f.name.encode("utf-8") + b"\0"
                         + data.encode("utf-8") + b"\0")
        rows.append((key, code, h.hexdigest()[:DIGEST_HEX]))
        return code

    models = {}
    for kind in ("perception", "behavior"):
        models[kind] = work / f"{kind}.json"
        code = record(f"train:{kind}", ["train", "--corpus",
                                        str(ASSETS / f"{kind}_corpus.json"),
                                        "--out", str(models[kind]), "--json"])
        digest = hashlib.sha256(models[kind].read_bytes()).hexdigest()
        rows.append((f"model:{kind}", code, digest[:DIGEST_HEX]))
    record("bench", ["bench", "--perception-model", str(models["perception"]),
                     "--json"])

    trees = [(f"gen{i:03d}", text)
             for i, text in enumerate(generate(load_lexicon(), depth=1))]
    trees += [(p.stem, None) for p in sorted((ASSETS / "trees").glob("*.txt"))]
    tree_file, out_dir = work / "tree.txt", work / "out"

    def tree_path(name: str, text: str | None) -> Path:
        if text is None:
            return ASSETS / "trees" / f"{name}.txt"
        tree_file.write_text(text + "\n", encoding="utf-8")
        return tree_file

    for name, text in trees:
        path = tree_path(name, text)
        for seed in SEEDS:
            for mode in MODES:
                for fmt in ("text", "json"):
                    argv = ["run", "--tree", str(path), "--seed", str(seed),
                            "--perception-model", str(models["perception"]),
                            "--behavior-model", str(models["behavior"]),
                            "--out-dir", str(out_dir)]
                    argv += ["--exhaustive"] if mode == "exhaustive" else []
                    argv += ["--json"] if fmt == "json" else []
                    shutil.rmtree(out_dir, ignore_errors=True)
                    record(f"run:{name}:{mode}:seed{seed}:{fmt}", argv, out_dir)
                if seed == 0 and (name, mode) in GROUND_WORLDS:
                    shutil.copy(out_dir / "world.json", work / f"{name}.json")
    for name, text in trees:
        path = tree_path(name, text)
        for fmt in ("text", "json"):
            record(f"ground:perception:{name}:{fmt}",
                   ["ground", "--tree", str(path), "--model", str(models["perception"])]
                   + (["--json"] if fmt == "json" else []))
    for name, mode in GROUND_WORLDS:
        record(f"ground:behavior:{name}:{mode}:seed0:json",
               ["ground", "--tree", str(ASSETS / "trees" / f"{name}.txt"),
                "--model", str(models["behavior"]),
                "--world", str(work / f"{name}.json"), "--json"])
    return rows


def read_lines(path: Path) -> dict[str, tuple[int, str]]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            key, code, digest = line.split()
            out[key] = (int(code), digest)
    return out


def check(want: dict[str, tuple[int, str]],
          got: dict[str, tuple[int, str]]) -> int:
    """Print the keys whose line differs, grouped by exit-code transition
    (``-`` for a key on one side only); 1 if any differs."""
    changed: dict[str, list[str]] = defaultdict(list)
    for key in [*want, *(k for k in got if k not in want)]:
        a, b = want.get(key), got.get(key)
        if a != b:
            before = "-" if a is None else str(a[0])
            after = "-" if b is None else str(b[0])
            changed[f"exit {before} -> {after}"].append(key)
    for transition, keys in sorted(changed.items()):
        print(f"{transition}: {len(keys)} changed")
        for key in keys:
            print(f"  {key}")
    codes = Counter(code for key, (code, _) in got.items()
                    if key.startswith("run:"))
    total = sum(len(keys) for keys in changed.values())
    print(f"{len(got)} lines, run exit codes "
          + ", ".join(f"{c}: {n}" for c, n in sorted(codes.items()))
          + f"; {total} changed")
    return 1 if changed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="compare with a file this script wrote")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        rows = matrix(Path(tmp))
    if args.check is not None:
        return check(read_lines(args.check),
                     {key: (code, digest) for key, code, digest in rows})
    print("# key, exit code, sha256 prefix: tools/run_matrix.py")
    for key, code, digest in rows:
        print(f"{key} {code} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
