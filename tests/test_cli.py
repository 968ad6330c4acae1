"""End-to-end tests of the command line front end.

Each test drives main() with an argv list and inspects the files it
leaves behind; a single smoke test shells out to a real interpreter to
prove the module entry point is wired.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import wssda
from wssda.cli import ENV_OUT_DIR, _subseed, load_config, main
from wssda.dataset import FLOAT_FMT, load_csv, make_gallery_probe_splits, save_csv, subset
from wssda.evaluation import identification_sweep
from wssda.pipeline import load_model


def run_cli(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def synth_args(out_path, seed=3, **over):
    opts = {
        "classes": 6,
        "subclasses": 2,
        "samples_per_subclass": 4,
        "dim": 12,
        "seed": seed,
    }
    opts.update(over)
    argv = ["synth", "--out", out_path]
    for key, val in opts.items():
        argv += ["--" + key.replace("_", "-"), val]
    return argv


def make_dataset_csv(tmp_path, capsys, name="data.csv", **over):
    path = str(tmp_path / name)
    code, _, err = run_cli(synth_args(path, **over), capsys)
    assert code == 0, err
    return path


def train_small(tmp_path, capsys, csv_path, d=4, **extra):
    out_dir = str(tmp_path / "run")
    argv = [
        "train", "--csv", csv_path, "--with-subclasses",
        "--d", d, "--out-dir", out_dir, "--seed", 0,
    ]
    for key, val in extra.items():
        argv += ["--" + key.replace("_", "-"), val]
    code, out, err = run_cli(argv, capsys)
    assert code == 0, err
    return out_dir, out


# ---------------------------------------------------------------- synth


def test_synth_writes_csv_and_sidecar(tmp_path, capsys):
    path = str(tmp_path / "data.csv")
    code, out, err = run_cli(synth_args(path), capsys)
    assert code == 0
    assert err == ""
    assert f"wrote {path}: 48 samples, 6 classes, dim 12" in out

    ds = load_csv(path, with_subclasses=True)
    assert ds.n == 48
    assert ds.dim == 12
    assert ds.class_count == 6

    sidecar = load_config(path + ".cfg")
    assert sidecar["classes"] == "6"
    assert sidecar["seed"] == "3"
    assert sidecar["scale_min"] == "0.5"


def test_synth_rerun_is_byte_identical(tmp_path, capsys):
    a = make_dataset_csv(tmp_path, capsys, name="a.csv", seed=11)
    b = make_dataset_csv(tmp_path, capsys, name="b.csv", seed=11)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_synth_seed_changes_output(tmp_path, capsys):
    a = make_dataset_csv(tmp_path, capsys, name="a.csv", seed=11)
    b = make_dataset_csv(tmp_path, capsys, name="b.csv", seed=12)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() != fb.read()


def test_synth_requires_out(tmp_path, capsys):
    code, _, err = run_cli(["synth", "--seed", 1], capsys)
    assert code == 1
    assert "--out" in err


def test_subseed_streams_are_independent():
    # same user seed, different consumers: streams must not collide
    assert _subseed(0, "synth") != _subseed(0, "partition")
    assert _subseed(0, "synth") == _subseed(0, "synth")


# ---------------------------------------------------------------- config


def test_config_file_supplies_values(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# synth settings\n"
        "classes=4\n"
        "subclasses=2\n"
        "samples_per_subclass=3\n"
        "dim=8\n"
        "seed=5\n"
    )
    path = str(tmp_path / "data.csv")
    code, out, _ = run_cli(["synth", "--config", str(cfg), "--out", path], capsys)
    assert code == 0
    assert "24 samples, 4 classes, dim 8" in out


def test_cli_flag_overrides_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("classes=4\ndim=8\n")
    path = str(tmp_path / "data.csv")
    code, out, _ = run_cli(
        ["synth", "--config", str(cfg), "--out", path, "--classes", "9"], capsys
    )
    assert code == 0
    assert "9 classes, dim 8" in out


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("classes=4\nbanana=1\n")
    code, _, err = run_cli(
        ["synth", "--config", str(cfg), "--out", str(tmp_path / "x.csv")], capsys
    )
    assert code == 1
    assert "unknown config keys: banana" in err
    assert not (tmp_path / "x.csv").exists()


def test_config_parse_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("classes\n")
    with pytest.raises(Exception, match="key=value"):
        load_config(str(bad))
    bad.write_text("a=1\na=2\n")
    with pytest.raises(Exception, match="duplicate"):
        load_config(str(bad))


def test_config_bad_value_names_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("classes=many\n")
    code, _, err = run_cli(
        ["synth", "--config", str(cfg), "--out", str(tmp_path / "x.csv")], capsys
    )
    assert code == 1
    assert "classes" in err


# ---------------------------------------------------------------- partition


def test_partition_command_writes_csv(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    out_dir = str(tmp_path / "part")
    code, out, err = run_cli(
        [
            "partition", "--csv", csv_path, "--with-subclasses",
            "--strategy", "kd", "--h", 2, "--out-dir", out_dir,
        ],
        capsys,
    )
    assert code == 0, err
    with open(os.path.join(out_dir, "partition.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "sample_index,class,subclass"
    assert len(lines) == 49
    subs = {line.split(",")[2] for line in lines[1:]}
    assert subs == {"0", "1"}


def test_partition_provided_requires_subclass_labels(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    # loaded without --with-subclasses the labels are just features
    code, _, err = run_cli(
        [
            "partition", "--csv", csv_path, "--strategy", "provided",
            "--out-dir", str(tmp_path / "part"),
        ],
        capsys,
    )
    assert code == 1
    assert "subclass" in err


# ---------------------------------------------------------------- train


def test_train_outputs(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    out_dir, out = train_small(tmp_path, capsys, csv_path, d=4)

    assert "d=4 mode=regularized" in out
    fx = load_model(os.path.join(out_dir, "model.wssda"))
    assert fx.dim == 12
    assert fx.d == 4
    assert fx.meta.strategy == "kd"
    assert fx.meta.h == 2

    with open(os.path.join(out_dir, "spectrum.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "k,eigenvalue,regularized_eigenvalue,weight"
    assert len(lines) == 13
    assert lines[1].split(",")[0] == "1"

    with open(os.path.join(out_dir, "partition.csv")) as fh:
        assert len(fh.read().splitlines()) == 49


def test_train_rerun_is_byte_identical(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    dir_a, _ = train_small(tmp_path / "a", capsys, csv_path)
    dir_b, _ = train_small(tmp_path / "b", capsys, csv_path)
    for name in ("model.wssda", "spectrum.csv", "partition.csv"):
        with open(os.path.join(dir_a, name), "rb") as fa:
            with open(os.path.join(dir_b, name), "rb") as fb:
                assert fa.read() == fb.read(), name


def test_train_requires_d(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    code, _, err = run_cli(
        ["train", "--csv", csv_path, "--with-subclasses", "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert "--d" in err


def test_train_truncated_mode(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    out_dir, out = train_small(tmp_path, capsys, csv_path, d=4, mode="truncated")
    assert "mode=truncated" in out
    assert "pivot=" not in out
    fx = load_model(os.path.join(out_dir, "model.wssda"))
    assert fx.meta.mode == "truncated"


def test_train_deficient_class_warning(tmp_path, capsys):
    # one class with a single sample cannot split into h=2 subclasses
    rows = ["0,1,0.5", "0,2,0.5", "0,3,0.25", "1,5,9"]
    csv_path = tmp_path / "tiny.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(
        [
            "train", "--csv", str(csv_path), "--d", 1,
            "--out-dir", str(tmp_path / "run"), "--h", 2,
        ],
        capsys,
    )
    assert code == 0
    assert "warning" in err
    assert "[1]" in err


def test_out_dir_from_environment(tmp_path, capsys, monkeypatch):
    csv_path = make_dataset_csv(tmp_path, capsys)
    env_dir = tmp_path / "envout"
    monkeypatch.setenv(ENV_OUT_DIR, str(env_dir))
    code, _, err = run_cli(
        ["train", "--csv", csv_path, "--with-subclasses", "--d", 2], capsys
    )
    assert code == 0, err
    assert (env_dir / "model.wssda").exists()


# ---------------------------------------------------------------- eval-id


def test_eval_id_matches_library(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    out_dir, _ = train_small(tmp_path, capsys, csv_path, d=6)
    model_path = os.path.join(out_dir, "model.wssda")

    code, out, err = run_cli(
        [
            "eval-id", "--csv", csv_path, "--with-subclasses",
            "--model", model_path, "--rotations", 2,
            "--d-sweep", "1,3,6", "--out-dir", out_dir,
        ],
        capsys,
    )
    assert code == 0, err

    fx = load_model(model_path)
    ds = load_csv(csv_path, with_subclasses=True)
    splits = make_gallery_probe_splits(ds, 2)
    report = identification_sweep(lambda d: fx, ds, splits, [1, 3, 6])

    with open(os.path.join(out_dir, "identification.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "d,error"
    got = [(int(l.split(",")[0]), float(l.split(",")[1])) for l in lines[1:]]
    assert [d for d, _ in got] == [1, 3, 6]
    for (d, err_csv), (d_lib, err_lib) in zip(got, report.curve):
        assert d == d_lib
        assert err_csv == err_lib


def test_eval_id_default_sweep_is_model_d(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    out_dir, _ = train_small(tmp_path, capsys, csv_path, d=4)
    code, out, _ = run_cli(
        [
            "eval-id", "--csv", csv_path, "--with-subclasses",
            "--model", os.path.join(out_dir, "model.wssda"), "--out-dir", out_dir,
        ],
        capsys,
    )
    assert code == 0
    assert "d=4 error=" in out


def test_eval_id_sweep_beyond_model_rejected(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    out_dir, _ = train_small(tmp_path, capsys, csv_path, d=4)
    code, _, err = run_cli(
        [
            "eval-id", "--csv", csv_path, "--with-subclasses",
            "--model", os.path.join(out_dir, "model.wssda"),
            "--d-sweep", "2,8", "--out-dir", out_dir,
        ],
        capsys,
    )
    assert code == 1
    assert "d=8 exceeds" in err


def test_eval_id_without_probes_rejected(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    out_dir, _ = train_small(tmp_path, capsys, csv_path, d=4)
    ds = load_csv(csv_path, with_subclasses=True)
    firsts = [int(np.flatnonzero(ds.class_labels == i)[0]) for i in range(ds.class_count)]
    one_per_class = str(tmp_path / "one_per_class.csv")
    save_csv(subset(ds, firsts), one_per_class)
    code, out, err = run_cli(
        [
            "eval-id", "--csv", one_per_class, "--with-subclasses",
            "--model", os.path.join(out_dir, "model.wssda"), "--out-dir", out_dir,
        ],
        capsys,
    )
    assert code == 1
    assert "split 0 has no probes" in err
    assert "error=" not in out
    assert not os.path.exists(os.path.join(out_dir, "identification.csv"))


def test_eval_dimension_mismatch_rejected(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    out_dir, _ = train_small(tmp_path, capsys, csv_path, d=4)
    other = make_dataset_csv(tmp_path, capsys, name="other.csv", dim=9)
    code, _, err = run_cli(
        [
            "eval-id", "--csv", other, "--with-subclasses",
            "--model", os.path.join(out_dir, "model.wssda"), "--out-dir", out_dir,
        ],
        capsys,
    )
    assert code == 1
    assert "dimension 9 does not match the model dimension 12" in err


# ---------------------------------------------------------------- eval-verify


def write_pairs(path, ds):
    """Exhaustive pair list over the first two samples of each class."""
    lines = []
    firsts = [np.flatnonzero(ds.class_labels == i)[:2] for i in range(ds.class_count)]
    for i, idx in enumerate(firsts):
        lines.append(f"{idx[0]},{idx[1]},same")
        other = firsts[(i + 1) % len(firsts)]
        lines.append(f"{idx[0]},{other[0]},diff")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_eval_verify_exact(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys, class_spread=30.0)
    out_dir, _ = train_small(tmp_path, capsys, csv_path, d=6)
    ds = load_csv(csv_path, with_subclasses=True)
    pairs_path = write_pairs(tmp_path / "pairs.csv", ds)

    code, out, err = run_cli(
        [
            "eval-verify", "--csv", csv_path, "--with-subclasses",
            "--model", os.path.join(out_dir, "model.wssda"),
            "--pairs", pairs_path, "--out-dir", out_dir,
        ],
        capsys,
    )
    assert code == 0, err
    # widely separated classes verify perfectly
    assert "EER: 0.00%" in out

    with open(os.path.join(out_dir, "roc.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "far,tar"
    assert lines[1] == "0,0"
    assert lines[-1] == "1,1"

    with open(os.path.join(out_dir, "eer.csv")) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "fold,eer_percent"
    assert lines[1] == "0,0.00"
    assert lines[-2] == "mean,0.00"
    assert lines[-1] == "std,0.00"


def test_eval_verify_kfold_rows(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys, class_spread=30.0)
    out_dir, _ = train_small(tmp_path, capsys, csv_path, d=6)
    ds = load_csv(csv_path, with_subclasses=True)
    pairs_path = write_pairs(tmp_path / "pairs.csv", ds)

    code, _, err = run_cli(
        [
            "eval-verify", "--csv", csv_path, "--with-subclasses",
            "--model", os.path.join(out_dir, "model.wssda"),
            "--pairs", pairs_path, "--folds", 2, "--out-dir", out_dir,
        ],
        capsys,
    )
    assert code == 0, err
    with open(os.path.join(out_dir, "eer.csv")) as fh:
        lines = fh.read().splitlines()
    assert [l.split(",")[0] for l in lines[1:]] == ["0", "1", "mean", "std"]


def test_eval_verify_resolution_needs_folds(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    out_dir, _ = train_small(tmp_path, capsys, csv_path, d=4)
    ds = load_csv(csv_path, with_subclasses=True)
    pairs_path = write_pairs(tmp_path / "pairs.csv", ds)
    base = [
        "eval-verify", "--csv", csv_path, "--with-subclasses",
        "--model", os.path.join(out_dir, "model.wssda"),
        "--pairs", pairs_path, "--out-dir", out_dir,
    ]
    # one fold writes the exact staircase, so a FAR grid size cannot apply
    code, _, err = run_cli(base + ["--resolution", 5], capsys)
    assert code == 1
    assert "--resolution" in err
    assert not os.path.exists(os.path.join(out_dir, "roc.csv"))
    code, _, err = run_cli(base + ["--resolution", 5, "--folds", 2], capsys)
    assert code == 0, err
    with open(os.path.join(out_dir, "roc.csv")) as fh:
        assert len(fh.read().splitlines()) == 1 + 5


def test_train_dual_regime_rerun_is_byte_identical(tmp_path, capsys):
    # 12 rows at dim 40: the Gram-matrix path, whose spectrum keeps dim rows
    csv_path = make_dataset_csv(tmp_path, capsys, classes=3, dim=40, samples_per_subclass=2)
    dir_a, _ = train_small(tmp_path / "a", capsys, csv_path, d=40)
    dir_b, _ = train_small(tmp_path / "b", capsys, csv_path, d=40)
    for name in ("model.wssda", "spectrum.csv"):
        with open(os.path.join(dir_a, name), "rb") as fa:
            with open(os.path.join(dir_b, name), "rb") as fb:
                assert fa.read() == fb.read(), name
    with open(os.path.join(dir_a, "spectrum.csv")) as fh:
        assert len(fh.read().splitlines()) == 1 + 40
    assert load_model(os.path.join(dir_a, "model.wssda")).projection.shape == (40, 40)


@pytest.mark.parametrize("folds", [1, 2])
def test_eval_verify_rerun_identical_and_matches_library(tmp_path, capsys, folds):
    csv_path = make_dataset_csv(tmp_path, capsys)
    out_dir, _ = train_small(tmp_path, capsys, csv_path, d=6)
    model_path = os.path.join(out_dir, "model.wssda")
    ds = load_csv(csv_path, with_subclasses=True)
    # every pair of rows: overlapping classes give a staircase with many steps
    index_pairs = [(a, b) for a in range(ds.n) for b in range(a + 1, ds.n)]
    pairs_path = tmp_path / "pairs.csv"
    same = ds.class_labels[:, None] == ds.class_labels[None, :]
    pairs_path.write_text(
        "".join(f"{a},{b},{'same' if same[a, b] else 'diff'}\n" for a, b in index_pairs)
    )

    outputs = []
    for rerun in ("a", "b"):
        rerun_dir = str(tmp_path / rerun)
        code, _, err = run_cli(
            [
                "eval-verify", "--csv", csv_path, "--with-subclasses", "--model", model_path,
                "--pairs", pairs_path, "--folds", folds, "--out-dir", rerun_dir,
            ],
            capsys,
        )
        assert code == 0, err
        outputs.append([(tmp_path / rerun / name).read_bytes() for name in ("roc.csv", "eer.csv")])
    assert outputs[0] == outputs[1]

    if folds == 1:
        feats = load_model(model_path).extract(ds.samples)
        scored = [(wssda.pair_similarity(feats[a], feats[b]), same[a, b]) for a, b in index_pairs]
        rep = wssda.verification_roc(scored)
        expect = "far,tar\n" + "".join(
            f"{FLOAT_FMT % far},{FLOAT_FMT % tar}\n" for far, tar in rep.points
        )
        assert outputs[0][0].decode() == expect
        assert len(rep.points) > 10


def test_pairs_file_errors_name_the_line(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    out_dir, _ = train_small(tmp_path, capsys, csv_path, d=4)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("0,1,same\n2,3,sim\n")
    code, _, err = run_cli(
        [
            "eval-verify", "--csv", csv_path, "--with-subclasses",
            "--model", os.path.join(out_dir, "model.wssda"),
            "--pairs", str(pairs), "--out-dir", out_dir,
        ],
        capsys,
    )
    assert code == 1
    assert "pairs.csv:2" in err
    assert "same or diff" in err


def test_pairs_index_out_of_range(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    out_dir, _ = train_small(tmp_path, capsys, csv_path, d=4)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("0,999,same\n")
    code, _, err = run_cli(
        [
            "eval-verify", "--csv", csv_path, "--with-subclasses",
            "--model", os.path.join(out_dir, "model.wssda"),
            "--pairs", str(pairs), "--out-dir", out_dir,
        ],
        capsys,
    )
    assert code == 1
    assert "out of range" in err


# ---------------------------------------------------------------- failure behavior


def test_exactly_one_source_required(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    code, _, err = run_cli(
        ["train", "--csv", csv_path, "--synth", "--d", 2, "--out-dir", str(tmp_path)],
        capsys,
    )
    assert code == 1
    assert "exactly one data source" in err

    code, _, err = run_cli(["train", "--d", 2, "--out-dir", str(tmp_path)], capsys)
    assert code == 1
    assert "exactly one data source" in err


def test_missing_file_is_reported_not_raised(tmp_path, capsys):
    code, _, err = run_cli(
        ["train", "--csv", str(tmp_path / "nope.csv"), "--d", 2], capsys
    )
    assert code == 1
    assert "error:" in err


def test_train_non_finite_csv_rejected_at_load(tmp_path, capsys):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("".join(f"{i % 2},{i},{i * i}\n" for i in range(7)) + "1,nan,2\n")
    code, _, err = run_cli(["train", "--csv", csv_path, "--d", 1, "--out-dir", tmp_path], capsys)
    assert code == 1
    assert "non-finite value at row 7, column 1" in err


def test_failed_run_rolls_back_outputs(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    out_dir = tmp_path / "run"
    # the last file train writes collides with a directory, forcing a late failure
    os.makedirs(out_dir / "spectrum.csv")
    code, _, err = run_cli(
        [
            "train", "--csv", csv_path, "--with-subclasses",
            "--d", 4, "--out-dir", str(out_dir),
        ],
        capsys,
    )
    assert code == 1
    assert not (out_dir / "model.wssda").exists()
    assert not (out_dir / "partition.csv").exists()
    assert not (out_dir / "spectrum.csv.part").exists()


def test_module_entry_point(tmp_path):
    out_path = tmp_path / "data.csv"
    # the child imports the same wssda as this suite, installed or not
    src = os.path.dirname(os.path.dirname(wssda.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-m", "wssda.cli", "synth",
            "--out", str(out_path), "--classes", "3", "--subclasses", "2",
            "--samples-per-subclass", "2", "--dim", "4",
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert out_path.exists()
    assert "12 samples, 3 classes, dim 4" in proc.stdout
