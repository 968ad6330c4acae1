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
import wssda.cli
from wssda.cli import ENV_OUT_DIR, _float_column, _subseed, _table, load_config, main
from wssda.dataset import FLOAT_FMT, load_csv, make_gallery_probe_splits, save_csv, subset
from wssda.evaluation import _grid_readout, identification_sweep
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


def test_synth_has_no_out_dir(tmp_path, capsys):
    # synth writes only --out; an --out-dir it would ignore is refused
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path / "d.csv"), "--out-dir", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out-dir" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out_dir={tmp_path / 'x'}\n")
    code, _, err = run_cli(["synth", "--out", tmp_path / "d.csv", "--config", cfg], capsys)
    assert code == 1
    assert err == "error: unknown config keys: out_dir\n"
    assert not (tmp_path / "d.csv").exists() and not (tmp_path / "x").exists()


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


def config_text(argv):
    """argv's flags as config lines: --flag value -> flag=value, a bare switch -> flag=1."""
    lines, i = [], 0
    while i < len(argv):
        key = str(argv[i]).removeprefix("--").replace("-", "_")
        switch = i + 1 == len(argv) or str(argv[i + 1]).startswith("--")
        lines.append(f"{key}={1 if switch else argv[i + 1]}\n")
        i += 1 if switch else 2
    return "".join(lines)


@pytest.mark.parametrize("command", ["train", "eval-verify"])
def test_config_keys_and_flags_write_the_same_bytes(tmp_path, capsys, command):
    if command == "train":
        # the synthetic source takes the synth flags too
        flags = [
            "--synth", "--classes", 5, "--subclasses", 3, "--samples-per-subclass", 4,
            "--dim", 10, "--spread", 2.5, "--scale-min", 0.25, "--scale-max", 2,
            "--class-spread", 4, "--with-subclasses", "--strategy", "kmeans", "--h", 3,
            "--seed", 9, "--d", 6, "--mode", "truncated", "--second-stage", "bs",
        ]
        outputs = ("model.wssda", "partition.csv", "spectrum.csv")
    else:
        csv_path = make_dataset_csv(tmp_path, capsys)
        model_dir, _ = train_small(tmp_path, capsys, csv_path, d=4)
        ds = load_csv(csv_path, with_subclasses=True)
        flags = [
            "--csv", csv_path, "--with-subclasses", "--seed", 2,
            "--model", os.path.join(model_dir, "model.wssda"),
            "--pairs", write_pairs(tmp_path / "pairs.csv", ds), "--folds", 3,
        ]
        outputs = ("roc.csv", "eer.csv")
    by_flags, by_config = tmp_path / "flags", tmp_path / "config"
    code, out_flags, err = run_cli([command, *flags, "--out-dir", by_flags], capsys)
    assert code == 0, err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config_text([*flags, "--out-dir", by_config]))
    code, out_config, err = run_cli([command, "--config", cfg], capsys)
    assert code == 0, err
    assert out_config == out_flags.replace(str(by_flags), str(by_config))
    for name in outputs:
        assert (by_config / name).read_bytes() == (by_flags / name).read_bytes(), name


def test_config_key_of_a_flag_the_source_ignores_is_accepted(tmp_path, capsys):
    # --csv ignores --classes; the classes key is accepted as the flag is
    csv_path = make_dataset_csv(tmp_path, capsys)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("classes=99\n")
    base = ["partition", "--csv", csv_path, "--with-subclasses"]
    for name, extra in (("flag", ["--classes", 99]), ("config", ["--config", cfg])):
        code, _, err = run_cli(base + extra + ["--out-dir", tmp_path / name], capsys)
        assert code == 0, err
    written = [(tmp_path / name / "partition.csv").read_bytes() for name in ("flag", "config")]
    assert written[0] == written[1]


@pytest.mark.parametrize(
    "line, message",
    [
        ("banana=1", "unknown config keys: banana"),
        ("h=two", "config key 'h': invalid literal for int() with base 10: 'two'"),
        ("with_subclasses=maybe", "config key 'with_subclasses': expected a boolean, got 'maybe'"),
    ],
)
def test_config_faults_are_reported_before_any_input_is_read(tmp_path, capsys, line, message):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    out_dir = tmp_path / "out"
    missing = tmp_path / "missing.csv"
    code, _, err = run_cli(
        ["train", "--config", cfg, "--csv", missing, "--d", 2, "--out-dir", out_dir], capsys
    )
    assert code == 1
    assert err == f"error: {message}\n"
    assert not out_dir.exists()


def test_help_shows_each_flag_default(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for shown in (
        "--seed SEED random seed (default: 0)",
        "--classes CLASSES number of classes (default: 20)",
        "--strategy {kd,rp,pca,kmeans,provided} partition strategy (default: kd)",
        "--h H subclasses per class (default: 2)",
        "--scale-min SCALE_MIN smallest subclass noise scale (default: 0.5)",
        "--d D feature dimension --mode",  # no default: required
    ):
        assert shown in text


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


def test_partition_tree_depth_is_not_an_option(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    argv = ["partition", "--csv", csv_path, "--out-dir", str(tmp_path / "part")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--max-depth", "3"])
    assert exc.value.code == 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_depth=3\n")
    code, _, err = run_cli(argv + ["--config", cfg], capsys)
    assert code == 1
    assert "unknown config keys: max_depth" in err
    # tree depth is log2 h, capped at 8: h=256 is accepted (8 rows per class
    # fall back to singletons), h=512 is not
    code, _, err = run_cli(argv + ["--h", 256], capsys)
    assert code == 0, err
    code, _, err = run_cli(argv + ["--h", 512], capsys)
    assert code == 1
    assert "h=512 needs depth 9, exceeding the tree depth cap 8" in err


def test_config_unknown_strategy_rejected(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("strategy=octree\n")
    code, _, err = run_cli(
        ["partition", "--config", cfg, "--csv", csv_path, "--out-dir", tmp_path / "part"],
        capsys,
    )
    assert code == 1
    assert "unknown strategy 'octree'" in err
    assert not (tmp_path / "part" / "partition.csv").exists()


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


def test_train_warns_when_d_exceeds_the_second_stage_rank_dual(tmp_path, capsys):
    # 30 rows at dim 40 take the Gram-matrix path; the total-subclass rows have rank 29
    csv_path = make_dataset_csv(
        tmp_path, capsys, classes=5, subclasses=2, samples_per_subclass=3, dim=40
    )
    out_dir = str(tmp_path / "run")
    argv = ["train", "--csv", csv_path, "--with-subclasses", "--d", 40, "--out-dir", out_dir]
    code, _, err = run_cli(argv, capsys)
    assert code == 0, err
    assert "warning: d=40 exceeds the second-stage rank 29" in err
    assert "columns 30..40 are zero" in err
    assert not load_model(os.path.join(out_dir, "model.wssda")).projection[:, 29:].any()


def test_train_warns_when_d_exceeds_the_second_stage_rank_dense(tmp_path, capsys):
    # 24 rows at dim 12 take the dense path; 6 subclass means give bs rank 5
    csv_path = make_dataset_csv(tmp_path, capsys, classes=3, subclasses=2, dim=12)
    _, _ = train_small(tmp_path, capsys, csv_path, d=5, second_stage="bs")
    assert "warning" not in capsys.readouterr().err
    out_dir = str(tmp_path / "run")
    argv = [
        "train", "--csv", csv_path, "--with-subclasses", "--d", 8,
        "--second-stage", "bs", "--out-dir", out_dir,
    ]
    code, _, err = run_cli(argv, capsys)
    assert code == 0, err
    assert "warning: d=8 exceeds the second-stage rank 5" in err
    assert "columns 6..8 are zero" in err
    assert not load_model(os.path.join(out_dir, "model.wssda")).projection[:, 5:].any()


def test_out_dir_from_environment(tmp_path, capsys, monkeypatch):
    csv_path = make_dataset_csv(tmp_path, capsys)
    env_dir = tmp_path / "envout"
    monkeypatch.setenv(ENV_OUT_DIR, str(env_dir))
    code, _, err = run_cli(
        ["train", "--csv", csv_path, "--with-subclasses", "--d", 2], capsys
    )
    assert code == 0, err
    assert (env_dir / "model.wssda").exists()


def write_pgm_tree(root, classes=2, images=6):
    rng = np.random.default_rng(0)
    for c in range(classes):
        (root / f"class{c}").mkdir(parents=True)
        for k in range(images):
            raster = rng.integers(0, 256, size=6, dtype=np.uint8).tobytes()
            (root / f"class{c}" / f"img{k}.pgm").write_bytes(b"P5\n3 2\n255\n" + raster)


@pytest.mark.parametrize(
    "command, args",
    [
        ("partition", []),
        ("train", ["--d", 1]),
        ("eval-id", ["--model", "model.wssda"]),
        ("eval-verify", ["--model", "model.wssda", "--pairs", "pairs.csv"]),
    ],
)
def test_out_dir_inside_pgm_dir_is_refused_before_anything_is_read(
    tmp_path, capsys, command, args
):
    # the output folder would be listed as one more class folder, one without
    # images; the model and pairs files do not exist, so nothing may be read
    faces = tmp_path / "faces"
    write_pgm_tree(faces)
    run_dir = faces / "run" / "sub"
    want = (
        f"error: --out-dir {run_dir} lies inside --pgm-dir {faces} (config keys 'out_dir' "
        "and 'pgm_dir'); write the outputs outside the image tree\n"
    )
    code, _, err = run_cli([command, "--pgm-dir", faces, "--out-dir", run_dir, *args], capsys)
    assert (code, err) == (1, want)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"pgm_dir={faces}\nout_dir={run_dir}\n")
    code, _, err = run_cli([command, "--config", cfg, *args], capsys)
    assert (code, err) == (1, want)
    assert sorted(p.name for p in faces.iterdir()) == ["class0", "class1"]


def test_out_dir_beside_or_at_the_pgm_dir_root_is_accepted(tmp_path, capsys):
    faces = tmp_path / "faces"
    write_pgm_tree(faces)
    for out_dir in (tmp_path / "faces-run", faces):  # the loader lists folders only
        argv = ["train", "--pgm-dir", faces, "--out-dir", out_dir, "--d", 1, "--h", 1]
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err
        assert (out_dir / "model.wssda").exists()


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


def test_eval_id_empty_sweep_rejected(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    out_dir, _ = train_small(tmp_path, capsys, csv_path, d=4)
    code, out, err = run_cli(
        [
            "eval-id", "--csv", csv_path, "--with-subclasses",
            "--model", os.path.join(out_dir, "model.wssda"),
            "--d-sweep", ",", "--out-dir", out_dir,
        ],
        capsys,
    )
    assert code == 1
    assert "d_values must be positive integers" in err
    assert not os.path.exists(os.path.join(out_dir, "identification.csv"))


def test_bad_d_sweep_is_reported_before_the_model_is_read(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("d_sweep=1,x\n")
    missing = tmp_path / "missing.wssda"
    argv = ["eval-id", "--synth", "--model", missing, "--out-dir", tmp_path / "out"]
    code, _, err = run_cli(argv + ["--config", cfg], capsys)
    assert code == 1
    assert err == "error: config key 'd_sweep': invalid literal for int() with base 10: 'x'\n"
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv + ["--d-sweep", "1,x"]])
    assert exc.value.code == 2
    assert "argument --d-sweep: invalid integer list value: '1,x'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sweep", ["0,2", "-1"])
def test_d_sweep_below_one_is_refused_by_its_flag_and_config_key(tmp_path, capsys, sweep):
    # the library's check would name d_values, neither the flag nor the key
    missing = tmp_path / "missing.wssda"
    argv = ["eval-id", "--synth", "--model", missing, "--out-dir", tmp_path / "out"]
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv + ["--d-sweep", sweep]])
    assert exc.value.code == 2
    assert f"argument --d-sweep: invalid integer list value: '{sweep}'" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"d_sweep={sweep}\n")
    code, _, err = run_cli(argv + ["--config", cfg], capsys)
    assert code == 1
    assert err == f"error: config key 'd_sweep': expected positive integers, got '{sweep}'\n"
    assert not (tmp_path / "out").exists()


# every command that takes the synthetic source, with the flags it needs
SYNTH_COMMANDS = pytest.mark.parametrize(
    "command, args",
    [
        ("synth", ["--out", "{out}/d.csv"]),
        ("partition", ["--synth", "--out-dir", "{out}"]),
        ("train", ["--synth", "--d", "2", "--out-dir", "{out}"]),
        ("eval-id", ["--synth", "--model", "{out}/m.wssda", "--out-dir", "{out}"]),
        ("eval-verify", ["--synth", "--model", "{out}/m.wssda", "--pairs", "{out}/p.csv",
                         "--out-dir", "{out}"]),
    ],
)


def assert_refused_by_flag_and_key(tmp_path, capsys, command, args, key, raw, kind, value):
    """--key raw exits 2 naming the flag and kind, key=raw in --config exits 1
    naming the key and value, and neither writes anything."""
    out_dir = tmp_path / "out"
    argv = [command, *(a.format(out=out_dir) for a in args)]
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv + [flag, raw]])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid {kind} value: '{raw}'" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={raw}\n")
    code, _, err = run_cli(argv + ["--config", cfg], capsys)
    assert code == 1
    assert err == f"error: config key '{key}': expected a {kind}, got {value}\n"
    assert not out_dir.exists()


@SYNTH_COMMANDS
def test_negative_seed_is_refused_by_its_flag_and_config_key(tmp_path, capsys, command, args):
    # SeedSequence would refuse it later, with a message that names no flag
    assert_refused_by_flag_and_key(
        tmp_path, capsys, command, args, "seed", "-1", "non-negative integer", -1
    )


@SYNTH_COMMANDS
@pytest.mark.parametrize(
    "key, raw, kind, value",
    [
        ("classes", "-1", "positive integer", -1),
        ("subclasses", "0", "positive integer", 0),
        ("samples_per_subclass", "0", "positive integer", 0),
        ("dim", "0", "positive integer", 0),
        ("spread", "-1", "finite non-negative number", -1.0),
        ("spread", "nan", "finite non-negative number", "nan"),
        ("scale_min", "0", "finite positive number", 0.0),
        ("scale_max", "inf", "finite positive number", "inf"),
        ("class_spread", "-2", "finite non-negative number", -2.0),
    ],
)
def test_bad_synth_knob_is_refused_by_its_flag_and_config_key(
    tmp_path, capsys, command, args, key, raw, kind, value
):
    # SynthSpec.validate would refuse it later, naming its field, not the flag
    assert_refused_by_flag_and_key(tmp_path, capsys, command, args, key, raw, kind, value)


@pytest.mark.parametrize("command", ["synth", "train"])
def test_scale_min_above_scale_max_names_both_flags_and_keys(tmp_path, capsys, command):
    out = tmp_path / "out"
    argv = {
        "synth": ["synth", "--out", out / "d.csv"],
        "train": ["train", "--synth", "--d", 2, "--out-dir", out],
    }[command]
    want = "error: --scale-min 3 exceeds --scale-max 2 (config keys 'scale_min' and 'scale_max')\n"
    code, _, err = run_cli(argv + ["--scale-min", 3, "--scale-max", 2], capsys)
    assert (code, err) == (1, want)
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scale_min=3\nscale_max=2\n")
    code, _, err = run_cli(argv + ["--config", cfg], capsys)
    assert (code, err) == (1, want)
    # train makes its --out-dir before it reads the data; no file is left in it
    assert not out.exists() or not any(out.iterdir())


def test_allow_flat_spectrum_is_neither_a_flag_nor_a_config_key(tmp_path, capsys):
    # a flat spectrum takes the flat model with no opt-in
    out = tmp_path / "out"
    argv = ["train", "--synth", "--d", 2, "--out-dir", out]
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv + ["--allow-flat-spectrum"]])
    assert exc.value.code == 2
    assert "unrecognized arguments: --allow-flat-spectrum" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text("allow_flat_spectrum=1\n")
    code, _, err = run_cli(argv + ["--config", cfg], capsys)
    assert (code, err) == (1, "error: unknown config keys: allow_flat_spectrum\n")
    assert not out.exists()


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


@pytest.mark.parametrize(
    "command, key, value", [("train", "med_factor", "1.0"), ("eval-verify", "resolution", "101")]
)
def test_the_pivot_threshold_and_far_grid_are_not_settable(tmp_path, capsys, command, key, value):
    # the pivot sits at the median and fold averaging reads FAR 0, 0.01, ..., 1
    flag = "--" + key.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main([command, flag, value])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    out_dir = tmp_path / "out"
    code, _, err = run_cli([command, "--config", cfg, "--out-dir", out_dir], capsys)
    assert code == 1
    assert err == f"error: unknown config keys: {key}\n"
    assert not out_dir.exists()


def test_eval_verify_folds_average_on_the_far_grid_of_101_points(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    out_dir, _ = train_small(tmp_path, capsys, csv_path, d=4)
    ds = load_csv(csv_path, with_subclasses=True)
    code, _, err = run_cli(
        [
            "eval-verify", "--csv", csv_path, "--with-subclasses",
            "--model", os.path.join(out_dir, "model.wssda"),
            "--pairs", write_pairs(tmp_path / "pairs.csv", ds), "--folds", 2,
            "--out-dir", out_dir,
        ],
        capsys,
    )
    assert code == 0, err
    with open(os.path.join(out_dir, "roc.csv")) as fh:
        far = [line.split(",")[0] for line in fh.read().splitlines()[1:]]
    assert far == [FLOAT_FMT % value for value in np.linspace(0.0, 1.0, 101)]


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


def per_cell_roc_text(points):
    """roc.csv as written with one FLOAT_FMT call per cell."""
    return "far,tar\n" + "".join(f"{FLOAT_FMT % far},{FLOAT_FMT % tar}\n" for far, tar in points)


def test_table_roc_text_matches_per_cell_float_text():
    rng = np.random.default_rng(5)
    flags = rng.random(3000) < 0.3
    # rounded scores tie, so runs of equal FAR and TAR values repeat
    scores = np.round(rng.normal(size=3000) + flags, 2).tolist()
    scored = list(zip(scores, flags.tolist()))
    roc = wssda.verification_roc(scored)
    fine = np.linspace(0.0, 1.0, 997)
    cases = {
        "staircase": roc.points,
        "two folds": wssda.kfold_pairwise(scored, folds=2).points,
        "ten folds": wssda.kfold_pairwise(scored, folds=10).points,
        "staircase on a fine grid": list(zip(fine.tolist(), _grid_readout(roc.far, roc.tar, fine))),
        "signed zeros and repeats": [(0.0, -0.0), (-0.0, 0.0), (0.1, 0.1), (0.1, 1 / 3), (1.0, 1.0)],
        "not monotone": [(0.5, 0.1), (0.2, 0.1), (0.5, 0.3), (0.5, 0.1)],
    }
    for name, points in cases.items():
        # the run formatting compares bit patterns: 0.0 and -0.0 are two runs
        far, tar = (np.array(column) for column in zip(*points))
        text = _table("far,tar", _float_column(far), _float_column(tar))
        assert text == per_cell_roc_text(points), name


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

    feats = load_model(model_path).extract(ds.samples)
    scored = [(wssda.pair_similarity(feats[a], feats[b]), same[a, b]) for a, b in index_pairs]
    if folds == 1:
        points = wssda.verification_roc(scored).points
    else:
        points = wssda.kfold_pairwise(scored, folds=folds).points
    assert outputs[0][0].decode() == per_cell_roc_text(points)
    assert len(points) > 10


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


def test_pairs_zero_feature_vector_names_the_pair_and_sample(tmp_path, capsys):
    # the fault is sample 3's features under this model, not a line of the pairs file
    csv_path = make_dataset_csv(tmp_path, capsys)
    out_dir, _ = train_small(tmp_path, capsys, csv_path, d=4)
    ds = load_csv(csv_path, with_subclasses=True)
    ds.samples[3] = 0.0
    zero_csv = str(tmp_path / "zero.csv")
    save_csv(ds, zero_csv)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("0,1,same\n\n2,3,diff\n")
    code, out, err = run_cli(
        [
            "eval-verify", "--csv", zero_csv, "--with-subclasses",
            "--model", os.path.join(out_dir, "model.wssda"),
            "--pairs", str(pairs), "--out-dir", out_dir,
        ],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert err == (
        "error: pair 1: sample 3 is a zero vector; "
        "cosine similarity is undefined for zero vectors\n"
    )
    assert not os.path.exists(os.path.join(out_dir, "roc.csv"))
    assert not os.path.exists(os.path.join(out_dir, "eer.csv"))


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


def _failing_commands(tmp_path, capsys):
    """argv of partition, train, eval-id and eval-verify runs that each fail
    after making their output directory: a missing CSV, a missing model, and
    a pair whose sample 3 has a zero feature vector."""
    csv_path = make_dataset_csv(tmp_path, capsys)
    out_dir, _ = train_small(tmp_path, capsys, csv_path, d=4)
    model = os.path.join(out_dir, "model.wssda")
    ds = load_csv(csv_path, with_subclasses=True)
    ds.samples[3] = 0.0
    zero_csv = str(tmp_path / "zero.csv")
    save_csv(ds, zero_csv)
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("0,1,same\n2,3,diff\n")
    missing = str(tmp_path / "missing.csv")
    return {
        "partition": ["partition", "--csv", missing],
        "train": ["train", "--csv", missing, "--d", 2],
        "eval-id": ["eval-id", "--csv", csv_path, "--model", str(tmp_path / "none.wssda")],
        "eval-verify": [
            "eval-verify", "--csv", zero_csv, "--with-subclasses", "--model", model,
            "--pairs", pairs,
        ],
    }


@pytest.mark.parametrize("command", ["partition", "train", "eval-id", "eval-verify"])
def test_failed_run_removes_the_directories_it_made(tmp_path, capsys, command):
    argv = _failing_commands(tmp_path, capsys)[command]
    new = tmp_path / "new"
    code, _, err = run_cli([*argv, "--out-dir", new / "a" / "b"], capsys)
    assert code == 1
    assert err.startswith("error: ")
    assert not new.exists()
    assert tmp_path.is_dir()


def test_failed_run_keeps_a_directory_holding_a_file_it_did_not_write(
    tmp_path, capsys, monkeypatch
):
    new = tmp_path / "new"

    def train_detailed(*args):
        # another writer puts a file in a directory this run made
        (new / "a" / "other.txt").write_text("kept")
        raise ValueError("training failed")

    monkeypatch.setattr(wssda.cli, "train_detailed", train_detailed)
    argv = ["train", "--synth", "--classes", 2, "--dim", 3, "--d", 1]
    code, _, err = run_cli([*argv, "--out-dir", new / "a" / "b"], capsys)
    assert code == 1
    assert err == "error: training failed\n"
    assert sorted(p.relative_to(new).as_posix() for p in new.rglob("*")) == ["a", "a/other.txt"]


@pytest.mark.parametrize(
    "raised, message",
    [
        (MemoryError("Unable to allocate 7.45 GiB"), "Unable to allocate 7.45 GiB"),
        (MemoryError(), "MemoryError"),
    ],
)
def test_memory_error_is_one_error_line_and_rolls_back(
    tmp_path, capsys, monkeypatch, raised, message
):
    def train_detailed(*args):
        raise raised

    monkeypatch.setattr(wssda.cli, "train_detailed", train_detailed)
    new = tmp_path / "new"
    argv = ["train", "--synth", "--classes", 2, "--dim", 3, "--d", 1]
    code, out, err = run_cli([*argv, "--out-dir", new / "a" / "b"], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not new.exists()


# train_detailed fails before any file is written; _partition_csv after model.wssda is
@pytest.mark.parametrize("name", ["train_detailed", "_partition_csv"])
def test_unexpected_exception_rolls_back_and_propagates(tmp_path, capsys, monkeypatch, name):
    def fail(*args):
        raise RuntimeError("bug")

    monkeypatch.setattr(wssda.cli, name, fail)
    new = tmp_path / "new"
    argv = ["train", "--synth", "--classes", 2, "--dim", 3, "--d", 1]
    with pytest.raises(RuntimeError, match="^bug$"):
        main([str(a) for a in [*argv, "--out-dir", new / "a" / "b"]])
    assert not new.exists()


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
