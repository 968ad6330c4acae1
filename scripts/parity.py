#!/usr/bin/env python3
"""Byte parity of every CLI output between this tree and another revision.

Each side runs one fixed matrix of `wssda` commands in its own child process,
with PYTHONPATH=<side>/src and OPENBLAS_NUM_THREADS=1 (the eigensolver's bits
depend on the BLAS thread count).  The matrix, on a dense synth set, a dual
synth set whose ts eigenvalues tie (6 x 2 x 5 at dim 120, kd with h=2) and a
small tree of P2 and P5 images:

* synth, then partition with kd, pca, kmeans, rp and provided;
* train with kd, pca, kmeans and provided, ts and bs, in both modes, --d 24;
* eval-id --rotations 2 --d-sweep 1,3,8,24 and eval-verify --folds 1 and
  --folds 10 on every model that trained.

Every output file, and each run's exit code, stdout and stderr, is reported
as byte-identical, within rounding or different.  Within rounding means text
whose non-numeric parts are equal and whose numbers (CSV cells, printed
values) agree within 1e-10 relative, or a model whose header and metadata are
equal and whose projection agrees within 1e-10 of its largest entry.  Each
side also reruns every train, and a rerun must be byte-identical.  Each side
also trains every train config at --d 8, and that prefix run is
byte-identical when its model header (but for d) and metadata, partition.csv
and spectrum.csv equal the --d 24 run's and its projection equals the first
8 columns of the --d 24 projection bit for bit.  Each eval run that both
sides completed adds an invariant row, byte-identical when the error cells of
identification.csv, or the eer_percent cells of eer.csv, are equal as text on
both sides, whatever the verdict on the file.  The exit status is 1 if
anything is different.

Usage:
    python3 scripts/parity.py --against HEAD~1
    python3 scripts/parity.py --against ../wssda-copy

A revision is checked out in a temporary `git worktree` of this repository
and removed afterwards; a directory is used as it is.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from collections import Counter

RTOL = 1e-10
IDENTICAL, ROUNDING, DIFFERENT = "byte-identical", "within rounding", "different"

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

# a model file: this header (magic, version, dim, d, mode, strategy, h), the
# dim x d row-major float64 projection, then the metadata pairs
MODEL_HEADER = struct.Struct("<6sIIIBBI")

# the synth flags of each data set; None is the image tree
DATA_SETS = {
    "dense": dict(classes=10, subclasses=2, samples_per_subclass=6, dim=40),
    "dual-tied": dict(classes=6, subclasses=2, samples_per_subclass=5, dim=120),
    "pgm": None,
}
# the column of each eval output that its invariant row compares
METRICS = {"identification.csv": "error", "eer.csv": "eer_percent"}
# every train runs at TRAIN_D, and again at PREFIX_D for the prefix check
TRAIN_D, PREFIX_D = 24, 8
PARTITION_STRATEGIES = ("kd", "pca", "kmeans", "rp", "provided")
TRAIN_STRATEGIES = ("kd", "pca", "kmeans", "provided")
STAGES = ("ts", "bs")
MODES = ("regularized", "truncated")


def _flags(**flags) -> list[str]:
    return [a for key, val in flags.items() for a in ("--" + key.replace("_", "-"), str(val))]


def matrix(reduced: bool = False) -> list[tuple[str, list[str]]]:
    """(run name, wssda argv) in run order, with paths relative to the side's
    root; a run writes under out/<run name>.  The reduced matrix is the dense
    set's kd and provided runs, in regularized mode."""
    sets = ["dense"] if reduced else list(DATA_SETS)
    partitions = ("kd", "provided") if reduced else PARTITION_STRATEGIES
    trains = ("kd", "provided") if reduced else TRAIN_STRATEGIES
    modes = MODES[:1] if reduced else MODES
    runs = []
    for name in sets:
        if DATA_SETS[name] is not None:
            argv = ["synth", *_flags(**DATA_SETS[name], seed=1, out=f"data/{name}.csv")]
            runs.append((f"synth/{name}", argv))
    for name in sets:
        if DATA_SETS[name] is None:
            source = _flags(pgm_dir="data/pgm")
        else:
            source = [*_flags(csv=f"data/{name}.csv"), "--with-subclasses"]
        for strategy in partitions:
            run = f"partition/{name}/{strategy}"
            argv = ["partition", *source, *_flags(strategy=strategy, out_dir="out/" + run)]
            runs.append((run, argv))
        for strategy, stage, mode in [(t, s, m) for t in trains for s in STAGES for m in modes]:
            run = f"train/{name}/{strategy}-{stage}-{mode}"
            model = dict(model=f"out/{run}/model.wssda")
            train = _flags(strategy=strategy, h=2, second_stage=stage, mode=mode, d=TRAIN_D)
            runs.append((run, ["train", *source, *train, *_flags(out_dir="out/" + run)]))
            sweep = _flags(**model, rotations=2, d_sweep="1,3,8,24", out_dir=f"out/{run}/eval-id")
            runs.append((f"{run}/eval-id", ["eval-id", *source, *sweep]))
            for folds in (1, 10):
                out = f"out/{run}/eval-verify-{folds}"
                verify = _flags(**model, pairs=f"data/{name}.pairs", folds=folds, out_dir=out)
                runs.append((f"{run}/eval-verify-{folds}", ["eval-verify", *source, *verify]))
    return runs


# ---------------------------------------------------------------- one side


def _write_pgm_tree(root: str, classes: int = 4, images: int = 6) -> list[int]:
    """classes folders of images 6 x 5 images, P5 and P2 in turn; returns the
    class of each image in load order (sorted folders, then sorted files)."""
    import numpy as np

    rng = np.random.default_rng(7)
    labels = []
    for c in range(classes):
        os.makedirs(os.path.join(root, f"class{c}"))
        for k in range(images):
            raster = rng.integers(0, 256, size=30, dtype=np.uint8)
            if k % 2:
                body = b"P2\n6 5\n255\n" + " ".join(map(str, raster.tolist())).encode() + b"\n"
            else:
                body = b"P5\n6 5\n255\n" + raster.tobytes()
            with open(os.path.join(root, f"class{c}", f"img{k}.pgm"), "wb") as fh:
                fh.write(body)
            labels.append(c)
    return labels


def _write_pairs(path: str, labels: list[int]) -> None:
    """Every pair of rows, same or diff by class."""
    with open(path, "w") as fh:
        for i, a in enumerate(labels):
            for j in range(i + 1, len(labels)):
                fh.write(f"{i},{j},{'same' if a == labels[j] else 'diff'}\n")


def _call(main, argv: list[str]) -> tuple[int | str, str, str]:
    """main(argv)'s exit code, or the exception it raised, and its output."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except Exception as exc:  # an uncaught exception is an outcome to compare too
            code = f"{type(exc).__name__}: {exc}"
    return code, stdout.getvalue(), stderr.getvalue()


def run_side(src: str, reduced: bool) -> None:
    """Run the matrix with the wssda under src, in this process, writing under
    the working directory: data/ and out/, logs/ (per run its exit code,
    stdout and stderr), rerun/ (each train run again) and prefix/ (each train
    run at --d PREFIX_D)."""
    import wssda
    from wssda.cli import main

    src = os.path.realpath(src)
    if os.path.commonpath([os.path.realpath(wssda.__file__), src]) != src:
        raise SystemExit(f"imported {wssda.__file__}, not the wssda under {src}")
    os.makedirs("data")
    if not reduced:
        _write_pairs("data/pgm.pairs", _write_pgm_tree("data/pgm"))
    codes = {}
    for run, argv in matrix(reduced):
        if argv[0].startswith("eval-") and codes[run.rsplit("/", 1)[0]] != 0:
            continue  # nothing to evaluate; the train's log says why
        codes[run], stdout, stderr = _call(main, argv)
        os.makedirs(os.path.dirname(os.path.join("logs", run)), exist_ok=True)
        with open(os.path.join("logs", run + ".log"), "w") as fh:
            fh.write(f"exit {codes[run]}\n--- stdout\n{stdout}--- stderr\n{stderr}")
        if argv[0] == "synth" and codes[run] == 0:
            with open(argv[-1]) as fh:
                labels = [int(line.split(",", 1)[0]) for line in fh]
            _write_pairs(argv[-1].replace(".csv", ".pairs"), labels)
        if argv[0] == "train":
            _call(main, [*argv[:-1], os.path.join("rerun", run)])
            at = argv.index("--d") + 1
            prefix = [*argv[:at], str(PREFIX_D), *argv[at + 1 : -1], os.path.join("prefix", run)]
            _call(main, prefix)


# ---------------------------------------------------------------- comparing

_NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _relative(a: float, b: float) -> float:
    """|a - b| over the larger magnitude; 0 for equal values, inf past finite."""
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _text_verdict(a: bytes, b: bytes) -> tuple[str, str]:
    try:
        parts_a, parts_b = _NUMBER.split(a.decode()), _NUMBER.split(b.decode())
    except UnicodeDecodeError:
        return DIFFERENT, "binary contents differ"
    if len(parts_a) != len(parts_b) or parts_a[::2] != parts_b[::2]:
        return DIFFERENT, "text outside the numbers differs"
    moved = [_relative(float(x), float(y)) for x, y in zip(parts_a[1::2], parts_b[1::2]) if x != y]
    worst = max(moved, default=0.0)
    verdict = ROUNDING if worst <= RTOL else DIFFERENT
    return verdict, f"{len(moved)} numbers differ, by up to {worst:.3g} relative"


def _model_verdict(a: bytes, b: bytes) -> tuple[str, str]:
    import numpy as np

    head = MODEL_HEADER.size
    if len(a) != len(b) or len(a) < head or a[:head] != b[:head]:
        return DIFFERENT, "model headers differ"
    dim, d = MODEL_HEADER.unpack(a[:head])[2:4]
    end = head + 8 * dim * d
    if a[end:] != b[end:]:
        return DIFFERENT, "model metadata differs"
    pa, pb = (np.frombuffer(x[head:end], dtype="<f8") for x in (a, b))
    moved = np.abs(pa - pb).max() / max(np.abs(pa).max(), np.abs(pb).max(), 1e-300)
    verdict = ROUNDING if moved <= RTOL else DIFFERENT
    return verdict, f"projection moved by {moved:.3g} of its largest entry"


def _prefix_model(blob: bytes, d: int) -> bytes:
    """The model file of the first d projection columns of model file blob."""
    import numpy as np

    head = MODEL_HEADER.size
    fields = list(MODEL_HEADER.unpack(blob[:head]))
    dim, full_d = fields[2:4]
    fields[3] = d
    end = head + 8 * dim * full_d
    columns = np.frombuffer(blob[head:end], dtype="<f8").reshape(dim, full_d)[:, :d]
    return MODEL_HEADER.pack(*fields) + columns.tobytes() + blob[end:]


def prefix_verdict(full: str, prefix: str) -> tuple[str, str]:
    """The verdict on the train outputs in directory prefix, run at --d
    PREFIX_D, against those in full, the same config at --d TRAIN_D."""
    names = ("model.wssda", "partition.csv", "spectrum.csv")
    if not all(os.path.exists(os.path.join(top, n)) for top in (full, prefix) for n in names):
        return DIFFERENT, "prefix: a run wrote no model"
    for name in names[1:]:
        if _read(full, name) != _read(prefix, name):
            return DIFFERENT, f"prefix: {name} differs"
    if _read(prefix, names[0]) != _prefix_model(_read(full, names[0]), PREFIX_D):
        return DIFFERENT, f"prefix: the model is not the first {PREFIX_D} columns of --d {TRAIN_D}"
    return IDENTICAL, "prefix"


def _metric_cells(blob: bytes, column: str) -> list[list[str]] | None:
    """The cell under column of each line of the CSV text blob (an empty list
    for a short line); None if it has no such column."""
    header, *lines = blob.decode(errors="replace").split("\n")
    names = header.split(",")
    if column not in names:
        return None
    at = names.index(column)
    return [line.split(",")[at : at + 1] for line in lines]


def metric_verdict(path: str, a: bytes, b: bytes) -> tuple[str, str]:
    """The invariant verdict on two versions of the eval output path."""
    column = METRICS[os.path.basename(path)]
    cells = _metric_cells(a, column)
    same = cells is not None and cells == _metric_cells(b, column)
    return IDENTICAL if same else DIFFERENT, f"invariant {column}"


def compare_bytes(path: str, a: bytes, b: bytes) -> tuple[str, str]:
    """The verdict on two versions a and b of the output file path, and a note."""
    if a == b:
        return IDENTICAL, ""
    return (_model_verdict if path.endswith(".wssda") else _text_verdict)(a, b)


def _files(root: str, *tops: str) -> set[str]:
    found = set()
    for top in tops:
        for folder, _, names in os.walk(os.path.join(root, top)):
            found.update(os.path.relpath(os.path.join(folder, n), root) for n in names)
    return found


def _read(*path: str) -> bytes:
    with open(os.path.join(*path), "rb") as fh:
        return fh.read()


def compare_sides(this: str, other: str) -> list[tuple[str, str, str]]:
    """(path, verdict, note) for every output of either side, then for the
    metric invariant of each eval run both sides completed, then for each
    side's reruns, which must be byte-identical to the first runs, and its
    prefix runs, one row per train config that wrote a model at either d."""
    rows = []
    ours, theirs = _files(this, "data", "out", "logs"), _files(other, "data", "out", "logs")
    for path in sorted(ours | theirs):
        if path in ours and path in theirs:
            rows.append((path, *compare_bytes(path, _read(this, path), _read(other, path))))
        else:
            rows.append((path, DIFFERENT, "only in " + ("this tree" if path in ours else "other")))
    for path in sorted(ours & theirs):
        if os.path.basename(path) in METRICS:
            a, b = _read(this, path), _read(other, path)
            rows.append((f"invariant:{path}", *metric_verdict(path, a, b)))
    for side, root in (("this", this), ("other", other)):
        for path in sorted(_files(root, "rerun")):
            first = os.path.join("out", os.path.relpath(path, "rerun"))
            same = os.path.exists(os.path.join(root, first))
            same = same and _read(root, first) == _read(root, path)
            rows.append((f"{side}:{path}", IDENTICAL if same else DIFFERENT, "rerun"))
        models = [p for p in _files(root, "out/train", "prefix/train") if p.endswith(".wssda")]
        for run in sorted({os.path.dirname(p.split(os.sep, 1)[1]) for p in models}):
            full, prefix = (os.path.join(root, top, run) for top in ("out", "prefix"))
            rows.append((f"{side}:prefix/{run}", *prefix_verdict(full, prefix)))
    return rows


# ---------------------------------------------------------------- driving


def _run_side_in_child(side: str, root: str, reduced: bool) -> None:
    src = os.path.join(side, "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join([src, HERE])}
    code = "import sys, parity; parity.run_side(sys.argv[1], sys.argv[2] == '1')"
    os.makedirs(root)
    argv = [sys.executable, "-c", code, src, "1" if reduced else "0"]
    subprocess.run(argv, cwd=root, env=env, check=True)


@contextlib.contextmanager
def _checkout(against: str, work: str):
    """The tree to compare against: a directory as it is, or a revision of
    this repository in a temporary git worktree."""
    if os.path.isdir(against):
        yield os.path.abspath(against)
        return
    git = ["git", "-C", REPO]
    verify = [*git, "rev-parse", "--verify", "--quiet", against + "^{commit}"]
    if subprocess.run(verify, capture_output=True).returncode:
        raise SystemExit(f"--against {against}: neither a directory nor a revision of {REPO}")
    path = os.path.join(work, "worktree")
    subprocess.run([*git, "worktree", "add", "--quiet", "--detach", path, against], check=True)
    try:
        yield path
    finally:
        subprocess.run([*git, "worktree", "remove", "--force", path], check=True)


def run_parity(against: str, reduced: bool = False) -> list[tuple[str, str, str]]:
    """compare_sides of the matrix run on this tree and on against."""
    with tempfile.TemporaryDirectory(prefix="wssda-parity-") as work:
        with _checkout(against, work) as other:
            _run_side_in_child(REPO, os.path.join(work, "this"), reduced)
            _run_side_in_child(other, os.path.join(work, "other"), reduced)
        return compare_sides(os.path.join(work, "this"), os.path.join(work, "other"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, help="git revision or source directory")
    args = parser.parse_args(argv)
    rows = run_parity(args.against)
    for path, verdict, note in rows:
        if verdict != IDENTICAL:
            print(f"{verdict}: {path} ({note})")
    counts = Counter(verdict for _, verdict, _ in rows)
    reruns = sum(1 for _, _, note in rows if note == "rerun")
    prefixes = sum(1 for _, _, note in rows if note.startswith("prefix"))
    invariants = sum(1 for _, _, note in rows if note.startswith("invariant"))
    files = len(rows) - reruns - prefixes - invariants
    print(
        f"parity against {args.against}: {files} files, {reruns} reruns, {prefixes} prefix "
        f"runs and {invariants} invariants; "
        + ", ".join(f"{counts[v]} {v}" for v in (IDENTICAL, ROUNDING, DIFFERENT))
    )
    return 1 if counts[DIFFERENT] else 0


if __name__ == "__main__":
    sys.exit(main())
