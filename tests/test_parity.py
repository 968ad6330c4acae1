"""scripts/parity.py: the CLI matrix of the working tree against itself, the
verdicts on files that moved by one ulp and by 1e-3, and on prefix runs."""

import os
import time
from dataclasses import replace

import numpy as np
import parity
import pytest
from conftest import geometric_noise_dataset

from wssda import TrainConfig, TreeParams, load_model, partition_dataset, save_model, train
from wssda.dataset import FLOAT_FMT


def test_working_tree_against_itself_is_byte_identical():
    # a directory is used as it is, so no git history is needed
    start = time.perf_counter()
    rows = parity.run_parity(parity.REPO, reduced=True)
    assert time.perf_counter() - start < 10.0
    assert {verdict for _, verdict, _ in rows} == {parity.IDENTICAL}
    paths = [path for path, _, _ in rows]
    assert "out/train/dense/kd-ts-regularized/model.wssda" in paths
    assert "out/train/dense/provided-bs-regularized/eval-verify-10/roc.csv" in paths
    assert "this:rerun/train/dense/kd-ts-regularized/model.wssda" in paths
    assert "logs/partition/dense/provided.log" in paths
    # one prefix row per train config and side: 2 strategies x 2 stages
    prefixes = [path for path, _, note in rows if note == "prefix"]
    assert len(prefixes) == 8
    assert "other:prefix/train/dense/provided-bs-regularized" in prefixes
    # one invariant row per eval run: 4 train configs x eval-id and two eval-verify
    invariants = [path for path, _, note in rows if note.startswith("invariant")]
    assert len(invariants) == 12
    assert "invariant:out/train/dense/kd-bs-regularized/eval-id/identification.csv" in invariants
    assert "invariant:out/train/dense/kd-bs-regularized/eval-verify-10/eer.csv" in invariants


def moved(value: float, step: str) -> float:
    return float(np.nextafter(value, np.inf)) if step == "ulp" else value * (1.0 + 1e-3)


@pytest.mark.parametrize("step, verdict", [("ulp", parity.ROUNDING), ("1e-3", parity.DIFFERENT)])
def test_csv_cells_move_within_rounding_by_one_ulp_only(step, verdict):
    value = 0.1234567890123
    text = "k,eigenvalue\n1,%s\n2,%s\n" % (FLOAT_FMT % value, FLOAT_FMT % 2.5)
    changed = text.replace(FLOAT_FMT % value, FLOAT_FMT % moved(value, step))
    assert changed != text
    assert parity.compare_bytes("a.csv", text.encode(), text.encode())[0] == parity.IDENTICAL
    assert parity.compare_bytes("a.csv", text.encode(), changed.encode())[0] == verdict
    header = text.replace("eigenvalue", "eigenvalues")
    assert parity.compare_bytes("a.csv", text.encode(), header.encode())[0] == parity.DIFFERENT


@pytest.mark.parametrize("step, verdict", [("ulp", parity.ROUNDING), ("1e-3", parity.DIFFERENT)])
def test_projections_move_within_rounding_by_one_ulp_only(tmp_path, step, verdict):
    ds = geometric_noise_dataset(seed=0)
    fx = train(ds, partition_dataset(ds, TreeParams(h=2), "kd"), TrainConfig(d=4))
    path = str(tmp_path / "model.wssda")
    save_model(fx, path)
    with open(path, "rb") as fh:
        blob = fh.read()
    # the largest entry moves, so 1e-3 of it is 1e-3 of the largest entry
    at = int(np.argmax(np.abs(fx.projection)))
    fx.projection.flat[at] = moved(fx.projection.flat[at], step)
    save_model(fx, path)
    with open(path, "rb") as fh:
        changed = fh.read()
    assert parity.compare_bytes(path, blob, changed)[0] == verdict
    fx.meta = replace(fx.meta, sample_count=fx.meta.sample_count + 1)
    save_model(fx, path)
    with open(path, "rb") as fh:
        assert parity.compare_bytes(path, blob, fh.read())[0] == parity.DIFFERENT


def test_a_file_on_one_side_or_a_rerun_that_moved_is_different(tmp_path):
    for side in ("this", "other"):
        for top in ("out", "rerun"):
            os.makedirs(tmp_path / side / top)
            (tmp_path / side / top / "model.wssda").write_bytes(b"same")
    (tmp_path / "other" / "rerun" / "model.wssda").write_bytes(b"moved")
    (tmp_path / "this" / "out" / "extra.csv").write_text("1\n")
    rows = parity.compare_sides(str(tmp_path / "this"), str(tmp_path / "other"))
    assert [(path, verdict) for path, verdict, _ in rows] == [
        ("out/extra.csv", parity.DIFFERENT),
        ("out/model.wssda", parity.IDENTICAL),
        ("this:rerun/model.wssda", parity.IDENTICAL),
        ("other:rerun/model.wssda", parity.DIFFERENT),
    ]


def write_train_run(root, ds, part, d):
    """What `train --d d` writes: model.wssda, partition.csv, spectrum.csv."""
    os.makedirs(root)
    save_model(train(ds, part, TrainConfig(d=d)), os.path.join(root, "model.wssda"))
    for name in ("partition.csv", "spectrum.csv"):
        with open(os.path.join(root, name), "w") as fh:
            fh.write(name)


@pytest.mark.parametrize("tamper", [None, "ulp", "h", "spectrum", "missing"])
def test_a_prefix_run_is_byte_identical_only_as_the_leading_columns(tmp_path, tamper):
    ds = geometric_noise_dataset(seed=0)
    part = partition_dataset(ds, TreeParams(h=2), "kd")
    full, prefix = (str(tmp_path / "this" / top / "train/set/run") for top in ("out", "prefix"))
    write_train_run(full, ds, part, parity.TRAIN_D)
    write_train_run(prefix, ds, part, parity.PREFIX_D)
    model = os.path.join(prefix, "model.wssda")
    fx = load_model(model)
    if tamper == "ulp":
        fx.projection[3, 5] = np.nextafter(fx.projection[3, 5], np.inf)
    elif tamper == "h":
        fx.meta = replace(fx.meta, h=4)
    save_model(fx, model)
    if tamper == "spectrum":
        with open(os.path.join(prefix, "spectrum.csv"), "a") as fh:
            fh.write("\n")
    elif tamper == "missing":
        os.unlink(model)
    os.makedirs(tmp_path / "other")
    rows = parity.compare_sides(str(tmp_path / "this"), str(tmp_path / "other"))
    verdicts = {path: verdict for path, verdict, _ in rows}
    want = parity.IDENTICAL if tamper is None else parity.DIFFERENT
    assert verdicts["this:prefix/train/set/run"] == want



@pytest.mark.parametrize(
    "name, tamper, file_verdict, invariant_verdict",
    [
        ("identification.csv", None, parity.IDENTICAL, parity.IDENTICAL),
        ("identification.csv", ("3,0.125", "3,0.25"), parity.DIFFERENT, parity.DIFFERENT),
        ("identification.csv", ("3,0.125", "4,0.125"), parity.DIFFERENT, parity.IDENTICAL),
        ("eer.csv", ("mean,12.50", "mean,12.51"), parity.DIFFERENT, parity.DIFFERENT),
        ("eer.csv", ("mean,12.50", "mean,12.5"), parity.ROUNDING, parity.DIFFERENT),
        ("eer.csv", ("fold,eer_percent", "fold,eer"), parity.DIFFERENT, parity.DIFFERENT),
    ],
)
def test_an_eval_run_adds_an_invariant_row_on_its_metric_cells(
    tmp_path, name, tamper, file_verdict, invariant_verdict
):
    # the metric cells are compared as text, whatever the verdict on the file
    text = {
        "identification.csv": "d,error\n1,0.25\n3,0.125\n",
        "eer.csv": "fold,eer_percent\n0,12.50\nmean,12.50\nstd,0.00\n",
    }[name]
    path = f"out/train/set/run/eval/{name}"
    tampered = text if tamper is None else text.replace(*tamper)
    for side, body in (("this", text), ("other", tampered)):
        os.makedirs(tmp_path / side / os.path.dirname(path))
        (tmp_path / side / path).write_text(body)
    rows = parity.compare_sides(str(tmp_path / "this"), str(tmp_path / "other"))
    assert [(path, verdict) for path, verdict, _ in rows] == [
        (path, file_verdict),
        (f"invariant:{path}", invariant_verdict),
    ]
