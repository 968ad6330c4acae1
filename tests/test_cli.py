"""End-to-end tests of the command line front end.

Each test drives main() with an argv list and inspects the files it
leaves behind; a single smoke test shells out to a real interpreter to
prove the module entry point is wired.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import wssda
import wssda.cli
from wssda.cli import (
    _float_column,
    _subseed,
    _table,
    build_parser,
    main,
)
from wssda.dataset import FLOAT_FMT, load_csv, make_gallery_probe_splits, save_csv, subset
from wssda.evaluation import _grid_readout, identification_sweep
from wssda.pipeline import load_model


def run_cli(argv, capsys):
    try:
        code = main([str(a) for a in argv])
    except SystemExit as exc:  # argparse exits 2 on a usage error
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def arg_file(tmp_path, text, name="run.args"):
    """The argument @FILE of a file that holds text."""
    path = tmp_path / name
    path.write_text(text)
    return f"@{path}"


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

    with open(path + ".cfg") as fh:
        assert fh.read() == (
            "classes=6\nsubclasses=2\nsamples_per_subclass=4\ndim=12\nspread=3\n"
            "scale_min=0.5\nscale_max=1.5\nclass_spread=6\nseed=3\n"
        )
    # the sidecar is an @FILE that regenerates the data
    again = tmp_path / "again.csv"
    code, _, err = run_cli(["synth", f"@{path}.cfg", "--out", again], capsys)
    assert (code, err) == (0, "")
    with open(path, "rb") as fh:
        assert again.read_bytes() == fh.read()
    assert (tmp_path / "again.csv.cfg").read_text() == (tmp_path / "data.csv.cfg").read_text()


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
    assert code == 2
    assert err.endswith("wssda synth: error: the following arguments are required: --out\n")


def test_synth_has_no_out_dir(tmp_path, capsys):
    # synth writes only --out; an --out-dir it would ignore is refused
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path / "d.csv"), "--out-dir", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out-dir" in capsys.readouterr().err
    args = arg_file(tmp_path, f"out_dir={tmp_path / 'x'}\n")
    code, _, err = run_cli(["synth", "--out", tmp_path / "d.csv", args], capsys)
    assert code == 2
    assert f"unrecognized arguments: --out-dir={tmp_path / 'x'}" in err
    assert not (tmp_path / "d.csv").exists() and not (tmp_path / "x").exists()


def test_subseed_streams_are_independent():
    # same user seed, different consumers: streams must not collide
    assert _subseed(0, "synth") != _subseed(0, "partition")
    assert _subseed(0, "synth") == _subseed(0, "synth")


# ---------------------------------------------------------------- argument files


def test_argument_file_supplies_values(tmp_path, capsys):
    args = arg_file(
        tmp_path,
        "# synth settings\n"
        "classes=4\n"
        "subclasses=2\n"
        "\n"
        "  samples_per_subclass = 3  \n"
        "dim=8\n"
        "seed=5\n",
    )
    path = str(tmp_path / "data.csv")
    code, out, _ = run_cli(["synth", args, "--out", path], capsys)
    assert code == 0
    assert "24 samples, 4 classes, dim 8" in out


def test_a_flag_after_an_argument_file_wins_and_one_before_it_loses(tmp_path, capsys):
    args = arg_file(tmp_path, "classes=4\ndim=8\n")
    path = str(tmp_path / "data.csv")
    code, out, _ = run_cli(["synth", args, "--out", path, "--classes", "9"], capsys)
    assert code == 0
    assert "9 classes, dim 8" in out
    code, out, _ = run_cli(["synth", "--classes", "9", args, "--out", path], capsys)
    assert code == 0
    assert "4 classes, dim 8" in out


@pytest.mark.parametrize(
    "text, outcome",
    [
        ("classes=4\nclasses=5\n", "5 classes"),  # the last value wins, as on the command line
        ("classes\n", "argument --classes: expected one argument"),
        ("classes=many\n", "argument --classes: invalid positive integer value: 'many'"),
        ("classes=4\nbanana=1\n", "unrecognized arguments: --banana=1"),
        ("= 4\n", "unrecognized arguments: --=4"),
        ("--classes=4\n", "unrecognized arguments: ----classes=4"),
    ],
)
def test_argument_file_lines_are_read_as_flags(tmp_path, capsys, text, outcome):
    path = tmp_path / "x.csv"
    code, out, err = run_cli(["synth", arg_file(tmp_path, text), "--out", path], capsys)
    if outcome.endswith("classes"):
        assert (code, err) == (0, "")
        assert outcome in out
        return
    assert code == 2
    assert err.endswith(f"error: {outcome}\n")
    assert not path.exists()


@pytest.mark.parametrize("spelling", ["1", "true", "0", "no", ""])
def test_a_switch_in_an_argument_file_is_a_bare_key(tmp_path, capsys, spelling):
    # only a CSV read with its subclass column has labels for "provided"
    csv_path = make_dataset_csv(tmp_path, capsys)
    out_dir = tmp_path / "out"
    argv = ["partition", "--csv", csv_path, "--out-dir", out_dir]
    args = arg_file(tmp_path, "  with_subclasses  \nstrategy=provided\n")
    assert run_cli([*argv, args], capsys)[::2] == (0, "")
    args = arg_file(tmp_path, f"with_subclasses={spelling}\nstrategy=provided\n")
    code, _, err = run_cli([*argv, args], capsys)
    assert code == 2
    assert err.endswith(f"argument --with-subclasses: ignored explicit argument '{spelling}'\n")


def test_an_argument_that_starts_with_at_names_an_argument_file(tmp_path, capsys, monkeypatch):
    # a data path that starts with @ is written ./@x.csv
    monkeypatch.chdir(tmp_path)
    os.rename(make_dataset_csv(tmp_path, capsys), "@x.csv")
    argv = ["partition", "--with-subclasses", "--out-dir", "part", "--csv"]
    code, _, err = run_cli([*argv, "@x.csv"], capsys)
    assert code == 2
    assert err.endswith("error: [Errno 2] No such file or directory: 'x.csv'\n")
    assert not os.path.exists("part")
    code, _, err = run_cli([*argv, "./@x.csv"], capsys)
    assert (code, err) == (0, "")


def test_an_argument_file_that_is_not_utf8_is_one_error_line(tmp_path, capsys):
    # the bad byte lies past the first 8 KiB, where a chunked decode starts its second chunk
    csv_path = make_dataset_csv(tmp_path, capsys)
    args = tmp_path / "run.args"
    args.write_bytes(b"# padding\n" * 1000 + b"csv=\xff.csv\n")
    out_dir = tmp_path / "out"
    argv = ["partition", "--csv", csv_path, f"@{args}", "--out-dir", out_dir]
    code, out, err = run_cli(argv, capsys)
    assert code in (1, 2) and out == ""
    assert len([line for line in err.splitlines() if "error: " in line]) == 1
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "line, message",
    [
        ("banana=1", "unrecognized arguments: --banana=1"),
        ("h=two", "argument --h: invalid positive integer value: 'two'"),
        ("with_subclasses=maybe", "argument --with-subclasses: ignored explicit argument 'maybe'"),
    ],
)
def test_argument_file_faults_are_reported_before_any_input_is_read(
    tmp_path, capsys, line, message
):
    out_dir = tmp_path / "out"
    missing = tmp_path / "missing.csv"
    args = arg_file(tmp_path, line + "\n")
    code, _, err = run_cli(
        ["train", args, "--csv", missing, "--d", 2, "--out-dir", out_dir], capsys
    )
    assert code == 2
    assert err.endswith(f": error: {message}\n")
    assert not out_dir.exists()


# each command's inputs, named as in its working directory, and the flags
# that run it on them; the flags a draw adds come after, so they win
PROPERTY_BASE = {
    "synth": ["--out", "d.csv", "--classes", "3", "--samples-per-subclass", "3", "--dim", "4"],
    "partition": ["--csv", "data.csv"],
    "train": ["--csv", "data.csv", "--d", "2", "--out-dir", "run"],
    "eval-id": ["--csv", "data.csv", "--model", "model.wssda", "--out-dir", "run"],
    "eval-verify": [
        "--csv", "data.csv", "--model", "model.wssda", "--pairs", "pairs.csv", "--out-dir", "run",
    ],
}
# no newline and no surrounding space, which an @FILE line could not carry
HOSTILE_VALUES = [
    "-1", "-2.5", "0", "1", "2", "2.5", "1e400", "nan", "", "true", "\u0663", "\uff11\uff12",
    "12345678901234567890", "1,2", "kmeans", "provided", "truncated", "bs",
]
COMMAND_PARSERS = next(a for a in build_parser()._actions if a.dest == "command").choices


@st.composite
def command_draws(draw):
    """A command and (key, value) pairs of its flags; a switch's value is None."""
    command = draw(st.sampled_from(sorted(COMMAND_PARSERS)))
    actions = [a for a in COMMAND_PARSERS[command]._actions if a.dest != "help"]
    chosen = draw(st.lists(st.sampled_from(actions), unique_by=lambda a: a.dest, max_size=4))
    values = st.sampled_from(HOSTILE_VALUES)
    return command, [(a.dest, None if a.nargs == 0 else draw(values)) for a in chosen]


@pytest.fixture(scope="module")
def property_inputs(tmp_path_factory):
    """The bytes of data.csv, model.wssda and pairs.csv for every command."""
    root = tmp_path_factory.mktemp("inputs")
    data = str(root / "data.csv")
    argv = ["synth", "--out", data, "--classes", "3", "--samples-per-subclass", "3", "--dim", "4"]
    assert main(argv) == 0
    argv = ["train", "--csv", data, "--with-subclasses", "--d", "2", "--out-dir", str(root)]
    assert main(argv) == 0
    (root / "pairs.csv").write_text("0,1,same\n0,6,diff\n7,8,same\n3,12,diff\n")
    return {name: (root / name).read_bytes() for name in ("data.csv", "model.wssda", "pairs.csv")}


def run_in(work, argv):
    """main(argv) with work as the working directory: the exit code, stdout,
    stderr and every file under work."""
    stdout, stderr = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(work)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        os.chdir(home)
    files = {}
    for folder, _, names in os.walk(work):
        for name in names:
            path = os.path.join(folder, name)
            with open(path, "rb") as fh:
                files[os.path.relpath(path, work)] = fh.read()
    return code, stdout.getvalue(), stderr.getvalue(), files


@settings(max_examples=100, deadline=None)
@given(command_draws())
def test_an_argument_file_runs_as_its_flags_do(property_inputs, draw):
    command, pairs = draw
    flags, lines = [], []
    for key, value in pairs:
        flag = "--" + key.replace("_", "-")
        flags += [flag] if value is None else [flag, value]
        lines.append(key if value is None else f"{key}={value}")
    with tempfile.TemporaryDirectory() as top:
        runs = []
        for name in ("flags", "file"):
            work = os.path.join(top, name)
            os.mkdir(work)
            for input_name, blob in property_inputs.items():
                with open(os.path.join(work, input_name), "wb") as fh:
                    fh.write(blob)
            extra = flags
            if name == "file":
                args = os.path.join(top, "run.args")
                with open(args, "w", encoding="utf-8") as fh:
                    fh.write("".join(line + "\n" for line in lines))
                extra = ["@" + args]
            runs.append(run_in(work, [command, *PROPERTY_BASE[command], *extra]))
    assert runs[0] == runs[1]
    code, _, err, files = runs[0]
    event(f"{command} exits {code}")
    assert code in (0, 1, 2), err
    if code == 1:  # one error line, the last
        lines = err.splitlines()
        assert lines[-1].startswith("error: ") and sum("error:" in l for l in lines) == 1, err
    if code:
        assert files == property_inputs, err


def test_config_key_of_a_synth_flag_is_refused_where_data_is_read(tmp_path, capsys):
    # only synth makes data; a command that reads --csv takes no synth knob
    csv_path = make_dataset_csv(tmp_path, capsys)
    args = ["--csv", csv_path, "--with-subclasses", "--out-dir", "{out}"]
    assert_unrecognized_by_flag_and_key(tmp_path, capsys, "partition", args, "classes", "99")


def test_each_command_takes_exactly_its_flags():
    # a new knob is a deliberate edit here; synth alone makes data, and the
    # seed reaches only the synthetic data and the partition
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    taken = {
        name: {flag for a in p._actions for flag in a.option_strings} - {"-h", "--help"}
        for name, p in commands.items()
    }
    reads = {"--out-dir", "--csv", "--with-subclasses", "--pgm-dir"}
    partitions = {"--seed", "--strategy", "--h"}
    assert taken == {
        "synth": {
            "--seed", "--classes", "--subclasses", "--samples-per-subclass",
            "--dim", "--spread", "--scale-min", "--scale-max", "--class-spread", "--out",
        },
        "partition": reads | partitions,
        "train": reads | partitions | {"--d", "--mode", "--second-stage"},
        "eval-id": reads | {"--model", "--rotations", "--d-sweep"},
        "eval-verify": reads | {"--model", "--pairs", "--folds"},
    }
    assert sum(map(len, taken.values())) == 41


def test_help_shows_each_flag_default(capsys):
    texts = {}
    for command in ("train", "synth"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        texts[command] = " ".join(capsys.readouterr().out.split())
    for command, shown in (
        ("train", "--seed SEED seed of the rp and kmeans partitions (default: 0)"),
        ("synth", "--classes CLASSES number of classes (default: 20)"),
        ("train", "--strategy {kd,rp,pca,kmeans,provided} partition strategy (default: kd)"),
        ("train", "--h H subclasses per class (default: 2)"),
        ("synth", "--scale-min SCALE_MIN smallest subclass noise scale (default: 0.5)"),
        ("train", "--d D feature dimension --mode"),  # no default: required
        ("train", "--out-dir OUT_DIR output directory (default: .)"),
    ):
        assert shown in texts[command]


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
    code, _, err = run_cli(argv + [arg_file(tmp_path, "max_depth=3\n")], capsys)
    assert code == 2
    assert "unrecognized arguments: --max-depth=3" in err
    # tree depth is log2 h, capped at 8: h=256 is accepted (8 rows per class
    # fall back to singletons), h=512 is not
    code, _, err = run_cli(argv + ["--h", 256], capsys)
    assert code == 0, err
    code, _, err = run_cli(argv + ["--h", 512], capsys)
    assert code == 1
    assert "h=512 needs depth 9, exceeding the tree depth cap 8" in err


@pytest.mark.parametrize("command", ["partition", "train"])
@pytest.mark.parametrize("h", [3, 512])
@pytest.mark.parametrize("strategy", ["kd", "rp", "pca"])
def test_tree_rule_is_refused_by_its_flags_before_any_input_is_read(
    tmp_path, capsys, strategy, h, command
):
    # the CSV is missing: the binary-split rule on h, which names neither
    # flag in the library, comes first, by flag and by @FILE key alike
    argv, out_dir = command_argv(tmp_path, command, COMMAND_ARGS[command])
    want = f"error: --h {h} with --strategy {strategy}: h={h} "
    code, _, err = run_cli(argv + ["--strategy", strategy, "--h", h], capsys)
    assert code == 1 and err.startswith(want), err
    args = arg_file(tmp_path, f"strategy={strategy}\nh={h}\n")
    code, _, err = run_cli(argv + [args], capsys)
    assert code == 1 and err.startswith(want), err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["partition", "train"])
@pytest.mark.parametrize("strategy", ["kmeans", "provided"])
def test_non_tree_strategies_take_any_h_past_the_tree_rule(tmp_path, capsys, strategy, command):
    argv, out_dir = command_argv(tmp_path, command, COMMAND_ARGS[command])
    code, _, err = run_cli(argv + ["--strategy", strategy, "--h", 3], capsys)
    assert code == 1
    assert err == f"error: [Errno 2] No such file or directory: '{tmp_path / 'missing.csv'}'\n"
    assert not out_dir.exists()


def test_unknown_strategy_in_an_argument_file_is_refused_by_its_flag(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    args = arg_file(tmp_path, "strategy=octree\n")
    code, _, err = run_cli(
        ["partition", args, "--csv", csv_path, "--out-dir", tmp_path / "part"], capsys
    )
    assert code == 2
    assert "argument --strategy: invalid choice: 'octree'" in err
    assert not (tmp_path / "part").exists()


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


def read_spectrum(out_dir):
    with open(os.path.join(out_dir, "spectrum.csv")) as fh:
        return [line.split(",") for line in fh.read().splitlines()[1:]]


@pytest.mark.parametrize("p", [600, -600])
@pytest.mark.parametrize("dim", [12, 40], ids=["dense", "dual"])
def test_train_at_any_power_of_two_scale_is_exact(tmp_path, capsys, dim, p):
    # the model of the data times 2^p is the unit-scale model times 2^-p, bit
    # for bit; the spectrum columns, 4^p times the unit-scale values, leave
    # float64 and read inf (or 0 for a zero eigenvalue) at 2^600 and 0 at
    # 2^-600, while the weights stay finite
    csv_path = make_dataset_csv(tmp_path, capsys, dim=dim, samples_per_subclass=2)
    ds = load_csv(csv_path, with_subclasses=True)
    scaled_path = str(tmp_path / "scaled.csv")
    scaled = wssda.LabeledDataset(np.ldexp(ds.samples, p), ds.class_labels, ds.subclass_labels)
    save_csv(scaled, scaled_path)
    unit_dir, _ = train_small(tmp_path / "unit", capsys, csv_path, d=8)
    scaled_dir, _ = train_small(tmp_path / "scaled", capsys, scaled_path, d=8)
    unit = load_model(os.path.join(unit_dir, "model.wssda")).projection
    scaled = load_model(os.path.join(scaled_dir, "model.wssda")).projection
    assert scaled.tobytes() == np.ldexp(unit, -p).tobytes()
    rows = read_spectrum(scaled_dir)
    assert len(rows) == dim
    for (k, *unit_values, unit_weight), (_, *values, weight) in zip(read_spectrum(unit_dir), rows):
        for unit_value, value in zip(unit_values, values):
            assert value == ("inf" if p > 0 and float(unit_value) > 0 else "0"), k
        assert float(weight) == np.ldexp(float(unit_weight), -p), k


@pytest.mark.parametrize(
    "shape, strategy, second_stage",
    [
        (dict(classes=6, subclasses=2, samples_per_subclass=4, dim=12), "kmeans", "ts"),
        (dict(classes=4, subclasses=2, samples_per_subclass=3, dim=40), "rp", "bs"),
    ],
    ids=["dense", "dual"],
)
def test_synth_then_train_on_its_csv_writes_the_library_model(
    tmp_path, capsys, shape, strategy, second_stage
):
    # synth --seed s, then train --csv --with-subclasses --seed s, trains on the
    # data the library generates from the synth stream of s, partitioned by the
    # partition stream of s; kmeans and rp draw from that stream
    seed = 7
    csv_path = make_dataset_csv(tmp_path, capsys, seed=seed, **shape)
    out_dir, _ = train_small(
        tmp_path, capsys, csv_path, d=4, seed=seed, strategy=strategy, second_stage=second_stage
    )
    spec = wssda.SynthSpec(
        shape["classes"], shape["subclasses"], shape["samples_per_subclass"], shape["dim"],
        seed=_subseed(seed, "synth"),
    )
    ds = wssda.generate_synthetic(spec)
    params = wssda.TreeParams(h=2, seed=_subseed(seed, "partition"))
    part = wssda.partition_dataset(ds, params, strategy)
    fx = wssda.train(ds, part, wssda.TrainConfig(d=4, second_stage=second_stage))
    wssda.save_model(fx, tmp_path / "library.wssda")
    written = (tmp_path / "run" / "model.wssda").read_bytes()
    assert written == (tmp_path / "library.wssda").read_bytes()


@pytest.mark.parametrize(
    "command, args, missing",
    [
        ("train", ["--csv", "{missing}.csv"], "--d"),
        ("eval-id", ["--csv", "{missing}.csv"], "--model"),
        ("eval-verify", ["--csv", "{missing}.csv"], "--model, --pairs"),
        ("eval-verify", ["--csv", "{missing}.csv", "--model", "{missing}.wssda"], "--pairs"),
    ],
)
def test_a_missing_required_flag_exits_2_before_the_out_dir_is_made(
    tmp_path, capsys, command, args, missing
):
    argv, out_dir = command_argv(tmp_path, command, [*args, "--out-dir", "{out}"])
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.endswith(f"error: the following arguments are required: {missing}\n")
    assert not out_dir.exists()


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


def test_out_dir_defaults_to_the_working_directory_whatever_the_environment(
    tmp_path, capsys, monkeypatch
):
    # --out-dir, as a flag or an @FILE key, is the only way to move the outputs
    csv_path = make_dataset_csv(tmp_path, capsys)
    env_dir = tmp_path / "envout"
    monkeypatch.setenv("WSSDA_OUT_DIR", str(env_dir))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    code, _, err = run_cli(
        ["train", "--csv", csv_path, "--with-subclasses", "--d", 2], capsys
    )
    assert code == 0, err
    assert sorted(os.listdir(work)) == ["model.wssda", "partition.csv", "spectrum.csv"]
    assert not env_dir.exists()


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
        f"error: --out-dir {run_dir} lies inside --pgm-dir {faces}; "
        "write the outputs outside the image tree\n"
    )
    code, _, err = run_cli([command, "--pgm-dir", faces, "--out-dir", run_dir, *args], capsys)
    assert (code, err) == (1, want)
    at = arg_file(tmp_path, f"pgm_dir={faces}\nout_dir={run_dir}\n")
    code, _, err = run_cli([command, at, *args], capsys)
    assert (code, err) == (1, want)
    assert sorted(p.name for p in faces.iterdir()) == ["class0", "class1"]


@pytest.mark.parametrize(
    "source, want",
    [
        ([], "exactly one data source required: --csv or --pgm-dir"),
        (
            ["--csv", "{missing}.csv", "--pgm-dir", "{missing}"],
            "exactly one data source required: --csv or --pgm-dir",
        ),
        (
            ["--pgm-dir", "{missing}", "--with-subclasses"],
            "--with-subclasses reads a CSV's subclass column; --pgm-dir has none",
        ),
    ],
    ids=["no source", "both sources", "pgm-dir with subclasses"],
)
@pytest.mark.parametrize("command", ["eval-id", "eval-verify"])
def test_eval_reports_a_source_fault_before_reading_the_model(
    tmp_path, capsys, command, source, want
):
    # the model file is missing too; it was read first, so its "No such file"
    # hid the source fault
    args = [a for a in COMMAND_ARGS[command] if a not in ("--csv", "{missing}.csv")]
    argv, out_dir = command_argv(tmp_path, command, args + source)
    code, _, err = run_cli(argv, capsys)
    assert (code, err) == (1, f"error: {want}\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["eval-id", "eval-verify"])
def test_eval_reads_the_model_before_the_data(tmp_path, capsys, command):
    # the data file is damaged too; it was read first, so its ragged row hid
    # the missing model
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("0,1.0,2.0\n0,1.0\n")
    args = [str(ragged) if a == "{missing}.csv" else a for a in COMMAND_ARGS[command]]
    argv, out_dir = command_argv(tmp_path, command, args)
    code, _, err = run_cli(argv, capsys)
    assert (code, err) == (
        1,
        f"error: [Errno 2] No such file or directory: '{tmp_path / 'missing.wssda'}'\n",
    )
    assert not out_dir.exists()


def test_out_dir_beside_or_at_the_pgm_dir_root_is_accepted(tmp_path, capsys):
    faces = tmp_path / "faces"
    write_pgm_tree(faces)
    for out_dir in (tmp_path / "faces-run", faces):  # the loader lists folders only
        argv = ["train", "--pgm-dir", faces, "--out-dir", out_dir, "--d", 1, "--h", 1]
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err
        assert (out_dir / "model.wssda").exists()


@pytest.mark.parametrize("command", ["partition", "train", "eval-id", "eval-verify"])
def test_with_subclasses_is_refused_with_a_pgm_dir(tmp_path, capsys, command):
    # a PGM tree has no subclass column; the switch was accepted, then ignored
    faces = tmp_path / "faces"
    write_pgm_tree(faces)
    model = tmp_path / "model"
    argv = ["train", "--pgm-dir", faces, "--out-dir", model, "--d", 1, "--h", 1]
    code, _, err = run_cli(argv, capsys)
    assert code == 0, err
    pairs = tmp_path / "pairs.csv"
    pairs.write_text("0,1,same\n0,6,diff\n")
    args = {
        "partition": [],
        "train": ["--d", 1, "--h", 1],
        "eval-id": ["--model", model / "model.wssda"],
        "eval-verify": ["--model", model / "model.wssda", "--pairs", pairs],
    }[command]
    out_dir = tmp_path / "out"
    argv = [command, "--pgm-dir", faces, "--out-dir", out_dir, *args]
    want = "error: --with-subclasses reads a CSV's subclass column; --pgm-dir has none\n"
    code, _, err = run_cli(argv + ["--with-subclasses"], capsys)
    assert (code, err) == (1, want)
    code, _, err = run_cli(argv + [arg_file(tmp_path, "with_subclasses\n")], capsys)
    assert (code, err) == (1, want)
    assert not out_dir.exists()


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


@pytest.mark.parametrize("sweep", [",", ""])
def test_eval_id_empty_sweep_is_refused_by_its_flag_and_config_key(tmp_path, capsys, sweep):
    # an empty list once reached the library's check, which names d_values,
    # after the model and the data were read
    missing = tmp_path / "missing.wssda"
    argv = ["eval-id", "--csv", tmp_path / "missing.csv", "--model", missing]
    argv += ["--out-dir", tmp_path / "out"]
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv + ["--d-sweep", sweep]])
    assert exc.value.code == 2
    assert f"argument --d-sweep: invalid integer list value: '{sweep}'" in capsys.readouterr().err
    code, _, err = run_cli(argv + [arg_file(tmp_path, f"d_sweep={sweep}\n")], capsys)
    assert code == 2
    assert f"argument --d-sweep: invalid integer list value: '{sweep}'" in err
    assert not (tmp_path / "out").exists()


def test_bad_d_sweep_is_reported_before_the_model_is_read(tmp_path, capsys):
    missing = tmp_path / "missing.wssda"
    argv = ["eval-id", "--csv", tmp_path / "missing.csv", "--model", missing]
    argv += ["--out-dir", tmp_path / "out"]
    code, _, err = run_cli(argv + [arg_file(tmp_path, "d_sweep=1,x\n")], capsys)
    assert code == 2
    assert "argument --d-sweep: invalid integer list value: '1,x'" in err
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv + ["--d-sweep", "1,x"]])
    assert exc.value.code == 2
    assert "argument --d-sweep: invalid integer list value: '1,x'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sweep", ["0,2", "-1"])
def test_d_sweep_below_one_is_refused_by_its_flag_and_config_key(tmp_path, capsys, sweep):
    # the library's check would name d_values, neither the flag nor the key
    missing = tmp_path / "missing.wssda"
    argv = ["eval-id", "--csv", tmp_path / "missing.csv", "--model", missing]
    argv += ["--out-dir", tmp_path / "out"]
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv + ["--d-sweep", sweep]])
    assert exc.value.code == 2
    assert f"argument --d-sweep: invalid integer list value: '{sweep}'" in capsys.readouterr().err
    code, _, err = run_cli(argv + [arg_file(tmp_path, f"d_sweep={sweep}\n")], capsys)
    assert code == 2
    assert f"argument --d-sweep: invalid integer list value: '{sweep}'" in err
    assert not (tmp_path / "out").exists()


# every command with the flags it needs; the data, model and pairs files are
# missing, so a refusal that names the flag comes before any input is read
COMMAND_ARGS = {
    "synth": ["--out", "{out}/d.csv"],
    "partition": ["--csv", "{missing}.csv", "--out-dir", "{out}"],
    "train": ["--csv", "{missing}.csv", "--d", "2", "--out-dir", "{out}"],
    "eval-id": ["--csv", "{missing}.csv", "--model", "{missing}.wssda", "--out-dir", "{out}"],
    "eval-verify": [
        "--csv", "{missing}.csv", "--model", "{missing}.wssda", "--pairs", "{missing}.pairs",
        "--out-dir", "{out}",
    ],
}
COMMANDS = pytest.mark.parametrize("command, args", list(COMMAND_ARGS.items()))

def command_argv(tmp_path, command, args):
    """command and args with {out} and {missing} filled in, and the out directory."""
    out_dir = tmp_path / "out"
    return [command, *(a.format(out=out_dir, missing=tmp_path / "missing") for a in args)], out_dir


def assert_refused_by_flag_and_key(tmp_path, capsys, command, args, key, raw, kind):
    """--key raw, and key=raw in an @FILE, exit 2 naming the flag, kind and
    value, and neither writes anything."""
    argv, out_dir = command_argv(tmp_path, command, args)
    flag = "--" + key.replace("_", "-")
    want = f"error: argument {flag}: invalid {kind} value: '{raw}'\n"
    for supplied in ([flag, raw], [arg_file(tmp_path, f"{key}={raw}\n")]):
        code, _, err = run_cli(argv + supplied, capsys)
        assert code == 2 and err.endswith(want), supplied
    assert not out_dir.exists()


def assert_unrecognized_by_flag_and_key(tmp_path, capsys, command, args, key, raw):
    """--key raw, and key=raw in an @FILE, exit 2 as unrecognized arguments,
    and neither writes anything."""
    argv, out_dir = command_argv(tmp_path, command, args)
    flag = "--" + key.replace("_", "-")
    code, _, err = run_cli(argv + [flag, raw], capsys)
    assert code == 2
    assert f"unrecognized arguments: {flag} {raw}" in err
    code, _, err = run_cli(argv + [arg_file(tmp_path, f"{key}={raw}\n")], capsys)
    assert code == 2
    assert f"unrecognized arguments: {flag}={raw}" in err
    assert not out_dir.exists()


@COMMANDS
def test_negative_seed_is_refused_by_its_flag_and_config_key(tmp_path, capsys, command, args):
    if command in ("eval-id", "eval-verify"):  # they draw nothing at random
        assert_unrecognized_by_flag_and_key(tmp_path, capsys, command, args, "seed", "-1")
        return
    # SeedSequence would refuse it later, with a message that names no flag
    assert_refused_by_flag_and_key(
        tmp_path, capsys, command, args, "seed", "-1", "non-negative integer"
    )


@COMMANDS
def test_abbreviated_flags_are_refused(tmp_path, capsys, command, args):
    # a flag matches exactly: a long flag cut by one letter is unrecognized,
    # never taken for the flag it abbreviates
    argv, out_dir = command_argv(tmp_path, command, args)
    parser = next(a for a in build_parser()._actions if a.dest == "command").choices[command]
    flags = {flag for a in parser._actions for flag in a.option_strings}
    cuts = [flag[:-1] for flag in sorted(flags) if len(flag) >= 5 and flag[:-1] not in flags]
    assert cuts
    for cut in cuts:
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv + [cut, "1"]])
        assert exc.value.code == 2, cut
        assert f"unrecognized arguments: {cut} 1" in capsys.readouterr().err
        assert not out_dir.exists()


@COMMANDS
@pytest.mark.parametrize(
    "key, raw, kind",
    [
        ("classes", "-1", "positive integer"),
        ("subclasses", "0", "positive integer"),
        ("samples_per_subclass", "0", "positive integer"),
        ("dim", "0", "positive integer"),
        ("spread", "-1", "finite non-negative number"),
        ("spread", "nan", "finite non-negative number"),
        ("scale_min", "0", "finite positive number"),
        ("scale_max", "inf", "finite positive number"),
        ("class_spread", "-2", "finite non-negative number"),
    ],
)
def test_bad_synth_knob_is_refused_by_its_flag_and_config_key(
    tmp_path, capsys, command, args, key, raw, kind
):
    if command != "synth":  # only synth makes data
        assert_unrecognized_by_flag_and_key(tmp_path, capsys, command, args, key, raw)
        return
    # SynthSpec.validate would refuse it later, naming its field, not the flag
    assert_refused_by_flag_and_key(tmp_path, capsys, command, args, key, raw, kind)


@pytest.mark.parametrize(
    "command, key",
    [("partition", "h"), ("train", "h"), ("train", "d"), ("eval-id", "rotations"),
     ("eval-verify", "folds")],
)
def test_count_below_one_is_refused_by_its_flag_and_config_key(tmp_path, capsys, command, key):
    # the library would refuse it only after the data and the model are read
    assert_refused_by_flag_and_key(
        tmp_path, capsys, command, COMMAND_ARGS[command], key, "0", "positive integer"
    )


@pytest.mark.parametrize(
    "command, key",
    [("synth", "out"), ("train", "out_dir"), ("partition", "csv"), ("partition", "pgm_dir"),
     ("eval-id", "model"), ("eval-verify", "pairs")],
)
def test_an_empty_path_is_refused_by_its_flag_and_config_key(
    tmp_path, capsys, monkeypatch, command, key
):
    # past the parse, an empty path named no flag, and synth's error named
    # its temporary file '.part'; the refusal writes nothing, here either
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    assert_refused_by_flag_and_key(
        tmp_path, capsys, command, COMMAND_ARGS[command], key, "", "non-empty path"
    )
    assert not any(work.iterdir())


@pytest.mark.parametrize("command", ["synth", "train"])
def test_scale_min_above_scale_max_names_both_flags_and_keys(tmp_path, capsys, command):
    out = tmp_path / "out"
    flags = ["--scale-min", 3, "--scale-max", 2]
    args = arg_file(tmp_path, "scale_min=3\nscale_max=2\n")
    if command == "train":  # only synth makes data
        argv = ["train", "--csv", tmp_path / "missing.csv", "--d", 2, "--out-dir", out]
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in argv + flags])
        assert exc.value.code == 2
        assert "unrecognized arguments: --scale-min 3 --scale-max 2" in capsys.readouterr().err
        code, _, err = run_cli(argv + [args], capsys)
        assert code == 2
        assert "unrecognized arguments: --scale-min=3 --scale-max=2" in err
        assert not out.exists()
        return
    argv = ["synth", "--out", out / "d.csv"]
    want = "error: --scale-min 3 exceeds --scale-max 2\n"
    code, _, err = run_cli(argv + flags, capsys)
    assert (code, err) == (1, want)
    code, _, err = run_cli(argv + [args], capsys)
    assert (code, err) == (1, want)
    assert not out.exists()


def test_allow_flat_spectrum_is_neither_a_flag_nor_a_config_key(tmp_path, capsys):
    # a flat spectrum takes the flat model with no opt-in
    out = tmp_path / "out"
    argv = ["train", "--csv", make_dataset_csv(tmp_path, capsys), "--with-subclasses"]
    argv += ["--d", 2, "--out-dir", out]
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv + ["--allow-flat-spectrum"]])
    assert exc.value.code == 2
    assert "unrecognized arguments: --allow-flat-spectrum" in capsys.readouterr().err
    code, _, err = run_cli(argv + [arg_file(tmp_path, "allow_flat_spectrum\n")], capsys)
    assert code == 2
    assert "unrecognized arguments: --allow-flat-spectrum" in err
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
    args = COMMAND_ARGS[command]
    assert_unrecognized_by_flag_and_key(tmp_path, capsys, command, args, key, value)


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


def test_data_files_that_are_not_utf8_are_one_error_line_naming_the_line(tmp_path, capsys):
    csv_path = make_dataset_csv(tmp_path, capsys)
    out_dir, _ = train_small(tmp_path, capsys, csv_path, d=4)
    with open(csv_path, "rb") as fh:
        rows = fh.read().split(b"\n")
    rows[5] = rows[5].replace(b".", b"\xff", 1)
    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_bytes(b"\n".join(rows))
    pairs = tmp_path / "pairs.csv"
    pairs.write_bytes(b"0,1,same\n2,3,d\xe9ff\n")
    model = os.path.join(out_dir, "model.wssda")
    for argv, want in (
        (["eval-id", "--csv", bad_csv, "--model", model], f"{bad_csv}: row 5 is not UTF-8 text"),
        (
            ["eval-verify", "--csv", csv_path, "--model", model, "--pairs", pairs],
            f"{pairs}:2: not UTF-8 text",
        ),
    ):
        new = tmp_path / "new"
        code, out, err = run_cli([*argv, "--with-subclasses", "--out-dir", new], capsys)
        assert (code, out, err) == (1, "", f"error: {want}\n")
        assert not new.exists()


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
    faces = tmp_path / "faces"
    write_pgm_tree(faces)
    argv = ["train", "--csv", csv_path, "--pgm-dir", faces, "--d", 2, "--out-dir", tmp_path]
    code, _, err = run_cli(argv, capsys)
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

    csv_path = make_dataset_csv(tmp_path, capsys, classes=2, dim=3)
    monkeypatch.setattr(wssda.cli, "train_detailed", train_detailed)
    argv = ["train", "--csv", csv_path, "--with-subclasses", "--d", 1]
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

    csv_path = make_dataset_csv(tmp_path, capsys, classes=2, dim=3)
    monkeypatch.setattr(wssda.cli, "train_detailed", train_detailed)
    new = tmp_path / "new"
    argv = ["train", "--csv", csv_path, "--with-subclasses", "--d", 1]
    code, out, err = run_cli([*argv, "--out-dir", new / "a" / "b"], capsys)
    assert (code, out, err) == (1, "", f"error: {message}\n")
    assert not new.exists()


# train_detailed fails before any file is written; _partition_csv after model.wssda is
@pytest.mark.parametrize("name", ["train_detailed", "_partition_csv"])
def test_unexpected_exception_rolls_back_and_propagates(tmp_path, capsys, monkeypatch, name):
    def fail(*args):
        raise RuntimeError("bug")

    csv_path = make_dataset_csv(tmp_path, capsys, classes=2, dim=3)
    monkeypatch.setattr(wssda.cli, name, fail)
    new = tmp_path / "new"
    argv = ["train", "--csv", csv_path, "--with-subclasses", "--d", 1]
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
