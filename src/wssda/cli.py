"""Command line front end.

Subcommands: synth, train, eval-id, eval-verify, partition.  synth is the
only command that makes data: it writes a CSV, which the others read through
--csv (--with-subclasses keeps its subclass column), as they read image
folders through --pgm-dir.  Each flag's type and default are declared once,
in its add_argument call, and argparse alone reads every value.  An argument
@FILE stands for the flags its lines name: a line key=value is the flag
--key=value, with the key's underscores read as dashes, a bare key is the
switch --key, and blank lines and # comments name none.  The flags stand
where @FILE is written, so a flag after it wins.  Output files are written
atomically (temp file, then rename), and a failing run removes the files and
directories it made, so no output directory holds a partial result.

Seeds are namespaced per purpose: the user-facing --seed of synth,
partition and train is combined with the consumer name (synth, partition)
through a hash, so `synth --seed s` then `train --csv --seed s` draws the
data and the partition from two independent streams.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import zlib
from collections.abc import Callable

import numpy as np

from .dataset import (
    FLOAT_FMT,
    LabeledDataset,
    SynthSpec,
    generate_synthetic,
    load_csv,
    load_pairs,
    load_pgm_dir,
    make_gallery_probe_splits,
    save_csv,
)
from .errors import ConfigError, WSSDAError
from .evaluation import (
    identification_sweep,
    kfold_pairwise,
    pair_scores,
    # not called here: perfbench --trace 1 wraps wssda.cli.pair_similarity
    pair_similarity,  # noqa: F401
    verification_roc,
)
from .partition import STRATEGIES, TreeParams, partition_dataset
from .pipeline import (
    SECOND_STAGES,
    TrainConfig,
    load_model,
    save_model,
    train_detailed,
)
from .spectrum import REGULARIZED, TRUNCATED


def _subseed(seed: int, name: str) -> int:
    """Independent stream per consumer; stable across runs and platforms."""
    ss = np.random.SeedSequence([seed, zlib.crc32(name.encode("ascii"))])
    return int(ss.generate_state(1)[0])


def _bounded(cast, accept, name: str):
    """A flag type: cast(raw), refused unless accept(value); argparse names it name."""

    def parse(raw: str):
        value = cast(raw)
        if not accept(value):  # NaN fails every bound
            raise ValueError(f"expected a {name}, got {value}")
        return value

    parse.__name__ = name
    return parse


_seed = _bounded(int, lambda value: value >= 0, "non-negative integer")
_count = _bounded(int, lambda value: value >= 1, "positive integer")
_spread = _bounded(float, lambda value: 0 <= value < np.inf, "finite non-negative number")
_scale = _bounded(float, lambda value: 0 < value < np.inf, "finite positive number")
_path = _bounded(str, bool, "non-empty path")


def _int_list(raw: str) -> list[int]:
    """Comma-separated positive integers, at least one; empty items are
    skipped, so "," is refused."""
    values = [int(tok) for tok in raw.split(",") if tok.strip()]
    if min(values, default=0) < 1:
        raise ValueError(f"expected positive integers, got {raw!r}")
    return values


# argparse names a flag's type in its error
_int_list.__name__ = "integer list"


class OutputSet:
    """Atomic writes plus rollback of the files and directories a failed command made."""

    def __init__(self):
        self._written: list[str] = []
        self._made: list[str] = []

    def make_dir(self, path: str) -> str:
        """Make directory path and its missing parents, each recorded for discard."""
        level = os.path.abspath(path)
        while not os.path.exists(level):
            self._made.append(level)
            level = os.path.dirname(level)
        os.makedirs(path, exist_ok=True)
        return path

    def write_file(self, path: str, writer) -> None:
        tmp = path + ".part"
        try:
            writer(tmp)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        self._written.append(path)

    def write_text(self, path: str, text: str) -> None:
        def writer(tmp):
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)

        self.write_file(path, writer)

    def discard(self) -> None:
        for path in self._written:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(path)
        # deepest first; a directory that holds a file this command did not write stays
        for path in sorted(self._made, key=len, reverse=True):
            with contextlib.suppress(OSError):
                os.rmdir(path)
        self._written.clear()
        self._made.clear()


def _table(header: str, *columns: list[str]) -> str:
    """CSV text: the header line, then one line per row.  Each column is a
    list of cell texts, all of one length; cells and separators are laid out
    in one list and joined once, about a quarter of the cost of one
    "%s,%s" % row format per row."""
    width = 2 * len(columns)
    cells = [","] * (len(columns[0]) * width)
    cells[width - 1 :: width] = ["\n"] * len(columns[0])
    for j, column in enumerate(columns):
        cells[2 * j :: width] = column
    return header + "\n" + "".join(cells)


def _column(fmt: str, values) -> list[str]:
    return [fmt % value for value in values]


def _float_column(values) -> list[str]:
    """FLOAT_FMT % value for each value, formatted once per run of equal bit
    patterns: a ROC column repeats its value between its own steps, and a
    modeled spectrum its tail value."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    bits = values.view(np.int64)
    fresh = np.ones(bits.size, dtype=bool)
    np.not_equal(bits[1:], bits[:-1], out=fresh[1:])
    text = np.array(_column(FLOAT_FMT, values[fresh].tolist()), dtype=object)
    return text[np.cumsum(fresh) - 1].tolist()


# ---------------------------------------------------------------- sources


def _dataset_reader(args: argparse.Namespace) -> Callable[[], LabeledDataset]:
    """The reader of the one data source the flags name; the flag rules are
    checked here, before anything is read."""
    if bool(args.csv) == bool(args.pgm_dir):
        raise ConfigError("exactly one data source required: --csv or --pgm-dir")
    if args.csv:
        return lambda: load_csv(args.csv, with_subclasses=args.with_subclasses)
    if args.with_subclasses:
        raise ConfigError("--with-subclasses reads a CSV's subclass column; --pgm-dir has none")
    return lambda: load_pgm_dir(args.pgm_dir)


def _tree_params(args: argparse.Namespace) -> TreeParams:
    """The partition knobs, refused by their flags before any input is read."""
    params = TreeParams(h=args.h, seed=_subseed(args.seed, "partition"))
    try:
        params.validate(args.strategy)
    except ValueError as exc:
        raise ConfigError(f"--h {args.h} with --strategy {args.strategy}: {exc}") from exc
    return params


def _out_dir(args: argparse.Namespace, out: OutputSet) -> str:
    if args.pgm_dir:  # an output folder inside the tree would be read as a class folder
        inner, root = os.path.realpath(args.out_dir), os.path.realpath(args.pgm_dir)
        if inner != root and os.path.commonpath([inner, root]) == root:
            raise ConfigError(
                f"--out-dir {args.out_dir} lies inside --pgm-dir {args.pgm_dir}; "
                "write the outputs outside the image tree"
            )
    return out.make_dir(args.out_dir)


def _partition_csv(part) -> str:
    return _table(
        "sample_index,class,subclass",
        _column("%d", range(len(part.class_labels))),
        _column("%d", part.class_labels.tolist()),
        _column("%d", part.subclass_labels.tolist()),
    )


def _warn_deficient(part, h: int) -> None:
    if part.deficient_classes:
        print(
            f"warning: classes {list(part.deficient_classes)} have fewer samples than "
            f"h={h}; they fall back to singleton subclasses",
            file=sys.stderr,
        )


def _warn_rank(d: int, rank: int) -> None:
    if d > rank:
        print(
            f"warning: d={d} exceeds the second-stage rank {rank}; "
            f"feature columns {rank + 1}..{d} are zero",
            file=sys.stderr,
        )


# ---------------------------------------------------------------- commands


def cmd_synth(args: argparse.Namespace, out: OutputSet) -> None:
    if args.scale_min > args.scale_max:  # SynthSpec.validate would name scale_range
        raise ConfigError(f"--scale-min {args.scale_min:g} exceeds --scale-max {args.scale_max:g}")
    spec = SynthSpec(
        class_count=args.classes,
        subclasses_per_class=args.subclasses,
        samples_per_subclass=args.samples_per_subclass,
        dim=args.dim,
        subclass_mean_spread=args.spread,
        scale_range=(args.scale_min, args.scale_max),
        class_center_spread=args.class_spread,
        seed=_subseed(args.seed, "synth"),
    )
    ds = generate_synthetic(spec)
    out.write_file(args.out, lambda tmp: save_csv(ds, tmp))
    # the settings that regenerate the file, as an @FILE argument file
    echo = [(key, "%d" if kind is _count else FLOAT_FMT) for key, kind, _, _ in SYNTH_FLAGS]
    echo.append(("seed", "%d"))
    out.write_text(
        args.out + ".cfg", "".join(f"{key}={fmt % getattr(args, key)}\n" for key, fmt in echo)
    )
    print(f"wrote {args.out}: {ds.n} samples, {ds.class_count} classes, dim {ds.dim}")


def cmd_partition(args: argparse.Namespace, out: OutputSet) -> None:
    out_dir = _out_dir(args, out)
    params = _tree_params(args)
    ds = _dataset_reader(args)()
    part = partition_dataset(ds, params, args.strategy)
    _warn_deficient(part, params.h)
    path = os.path.join(out_dir, "partition.csv")
    out.write_text(path, _partition_csv(part))
    print(f"wrote {path}: strategy={args.strategy} h={params.h}")


def cmd_train(args: argparse.Namespace, out: OutputSet) -> None:
    out_dir = _out_dir(args, out)
    params = _tree_params(args)
    config = TrainConfig(
        d=args.d,
        mode=args.mode,
        second_stage=args.second_stage,
    )
    ds = _dataset_reader(args)()

    part = partition_dataset(ds, params, args.strategy)
    _warn_deficient(part, params.h)
    fx, details = train_detailed(ds, part, config)
    _warn_rank(config.d, details.second_stage_rank)

    model_path = os.path.join(out_dir, "model.wssda")
    out.write_file(model_path, lambda tmp: save_model(fx, tmp))
    out.write_text(os.path.join(out_dir, "partition.csv"), _partition_csv(part))

    es = details.spectrum
    model = details.model
    out.write_text(
        os.path.join(out_dir, "spectrum.csv"),
        _table(
            "k,eigenvalue,regularized_eigenvalue,weight",
            _column("%d", range(1, es.dim + 1)),
            _float_column(es.eigenvalues),
            _float_column(model.lambda_reg),
            _float_column(model.weights),
        ),
    )
    pivot_note = f" pivot={model.pivot}" if model.pivot is not None else ""
    print(
        f"wrote {model_path}: dim={fx.dim} d={fx.d} mode={config.mode} "
        f"rank={es.rank}{pivot_note}"
    )


def _load_eval_common(args: argparse.Namespace):
    read = _dataset_reader(args)
    fx = load_model(args.model)  # before the data, which may be far larger
    ds = read()
    if ds.dim != fx.dim:
        raise ConfigError(
            f"data dimension {ds.dim} does not match the model dimension {fx.dim}"
        )
    return fx, ds


def cmd_eval_id(args: argparse.Namespace, out: OutputSet) -> None:
    out_dir = _out_dir(args, out)
    fx, ds = _load_eval_common(args)
    d_values = [fx.d] if args.d_sweep is None else args.d_sweep
    splits = make_gallery_probe_splits(ds, args.rotations)
    report = identification_sweep(lambda d_max: fx, ds, splits, d_values)
    path = os.path.join(out_dir, "identification.csv")
    d_values, errors = zip(*report.curve)
    out.write_text(path, _table("d,error", _column("%d", d_values), _float_column(errors)))
    for d, err in report.curve:
        print(f"d={d} error={err * 100:.2f}%")
    print(f"wrote {path}")


def cmd_eval_verify(args: argparse.Namespace, out: OutputSet) -> None:
    out_dir = _out_dir(args, out)
    fx, ds = _load_eval_common(args)

    index, same = load_pairs(args.pairs, ds.n)
    scores = pair_scores(ds.samples @ fx.projection, index[:, 0], index[:, 1])

    if args.folds == 1:
        curve = verification_roc(scores, same)
        fold_eers, mean, std = [curve.eer], curve.eer, 0.0
    else:
        curve = kfold_pairwise(scores, same, folds=args.folds)
        fold_eers, mean, std = curve.fold_eers, curve.eer_mean, curve.eer_std

    roc_path = os.path.join(out_dir, "roc.csv")
    out.write_text(roc_path, _table("far,tar", _float_column(curve.far), _float_column(curve.tar)))
    eer_path = os.path.join(out_dir, "eer.csv")
    out.write_text(
        eer_path,
        _table(
            "fold,eer_percent",
            _column("%s", [*range(len(fold_eers)), "mean", "std"]),
            _column("%.2f", [e * 100 for e in [*fold_eers, mean, std]]),
        ),
    )
    print(f"EER: {mean * 100:.2f}%")
    print(f"wrote {roc_path} and {eer_path}")


# ---------------------------------------------------------------- wiring

# (key, type, default, help) of each synthetic-data flag; `synth` echoes them
SYNTH_FLAGS = (
    ("classes", _count, 20, "number of classes"),
    ("subclasses", _count, 2, "subclasses per class"),
    ("samples_per_subclass", _count, 10, "samples per subclass"),
    ("dim", _count, 50, "sample dimension"),
    ("spread", _spread, 3.0, "subclass mean distance from the class center"),
    ("scale_min", _scale, 0.5, "smallest subclass noise scale"),
    ("scale_max", _scale, 1.5, "largest subclass noise scale"),
    ("class_spread", _spread, 6.0, "class center spread"),
)


class _Parser(argparse.ArgumentParser):
    def convert_arg_line_to_args(self, arg_line: str) -> list[str]:
        """One @FILE line as flags: key=value -> --key=value, key -> --key."""
        text = arg_line.strip()
        if not text or text.startswith("#"):
            return []
        key, eq, value = text.partition("=")
        return ["--" + key.strip().replace("_", "-") + eq + value.strip()]


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Shows each flag's default, unless it has none."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


def _add_io_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out-dir", type=_path, default=".", help="output directory")
    p.add_argument("--csv", type=_path, help="dataset CSV (class[,subclass],v1,...)")
    p.add_argument(
        "--with-subclasses",
        action="store_true",
        help="the CSV's second column is a subclass label, as in a synth CSV",
    )
    p.add_argument("--pgm-dir", type=_path, help="directory of per-class PGM image folders")


def _add_partition_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_seed, default=0, help="seed of the rp and kmeans partitions")
    p.add_argument("--strategy", choices=STRATEGIES, default="kd", help="partition strategy")
    p.add_argument("--h", type=_count, default=2, help="subclasses per class")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wssda",
        description="subclass discriminant analysis over the whole eigenspace",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        # a flag matches exactly: no abbreviations
        p = sub.add_parser(name, help=help, formatter_class=_HelpFormatter, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p = command("synth", cmd_synth, "write a synthetic dataset CSV; read it with --csv")
    p.add_argument("--seed", type=_seed, default=0, help="seed of the synthetic data")
    for key, kind, default, help in SYNTH_FLAGS:
        p.add_argument("--" + key.replace("_", "-"), type=kind, default=default, help=help)
    p.add_argument("--out", type=_path, required=True, help="output CSV path")

    p = command("partition", cmd_partition, "partition classes into subclasses")
    _add_io_flags(p)
    _add_partition_flags(p)

    p = command("train", cmd_train, "train a feature extractor")
    _add_io_flags(p)
    _add_partition_flags(p)
    p.add_argument("--d", type=_count, required=True, help="feature dimension")
    p.add_argument(
        "--mode", choices=(REGULARIZED, TRUNCATED), default=REGULARIZED, help="spectrum model"
    )
    p.add_argument("--second-stage", choices=SECOND_STAGES, default="ts", help="second stage")

    p = command("eval-id", cmd_eval_id, "closed-set identification error vs d")
    _add_io_flags(p)
    p.add_argument("--model", type=_path, required=True, help="trained model file")
    p.add_argument("--rotations", type=_count, default=1, help="gallery/probe rotations")
    p.add_argument(
        "--d-sweep",
        type=_int_list,
        help="comma-separated feature dimensions, e.g. 1,2,4 (default: the model's d)",
    )

    p = command("eval-verify", cmd_eval_verify, "pairwise verification ROC and EER")
    _add_io_flags(p)
    p.add_argument("--model", type=_path, required=True, help="trained model file")
    p.add_argument(
        "--pairs", type=_path, required=True, help="pairs file: index_a,index_b,same|diff per line"
    )
    p.add_argument("--folds", type=_count, default=1, help="folds; 1 writes the exact ROC")

    return parser


def main(argv=None) -> int:
    out = OutputSet()
    try:
        # in the try: an @FILE that is not UTF-8 text fails as it is read
        args = build_parser().parse_args(argv)
        args.func(args, out)
    except BaseException as exc:
        out.discard()
        if not isinstance(exc, (WSSDAError, ValueError, OSError, MemoryError)):
            raise
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
