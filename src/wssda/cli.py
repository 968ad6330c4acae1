"""Command line front end.

Subcommands: synth, train, eval-id, eval-verify, partition.  Every value
flag can also come from a flat key=value config file (--config); explicit
flags win.  Output files are written atomically (temp file, then rename)
and any files already produced by a failing run are removed, so an output
directory never holds a partial result.

Seeds are namespaced per purpose: the user-facing --seed is combined with
the consumer name (synth, partition) through a hash so that, say, adding a
partition step never shifts the synthetic data stream.
"""

from __future__ import annotations

import argparse
import os
import sys
import zlib

import numpy as np

from .dataset import (
    FLOAT_FMT,
    LabeledDataset,
    SynthSpec,
    _pairs_fault,
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
    # locates a failed score; perfbench --trace 1 also wraps wssda.cli.pair_similarity
    pair_similarity,
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

ENV_OUT_DIR = "WSSDA_OUT_DIR"


def _subseed(seed: int, name: str) -> int:
    """Independent stream per consumer; stable across runs and platforms."""
    ss = np.random.SeedSequence([seed, zlib.crc32(name.encode("ascii"))])
    return int(ss.generate_state(1)[0])


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {raw!r}")


def load_config(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments are ignored."""
    cfg: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            if "=" not in text:
                raise ConfigError(f"{path}:{lineno}: expected key=value")
            key, _, val = text.partition("=")
            key = key.strip()
            if not key:
                raise ConfigError(f"{path}:{lineno}: empty key")
            if key in cfg:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            cfg[key] = val.strip()
    return cfg


class Settings:
    """Merged view of CLI flags and the config file; flags win."""

    def __init__(self, args: argparse.Namespace, cfg: dict[str, str]):
        self._args = args
        self._cfg = cfg
        self._seen: set[str] = set()

    def get(self, name, cast, default=None):
        self._seen.add(name)
        val = getattr(self._args, name, None)
        if val is not None:
            return val
        raw = self._cfg.get(name)
        if raw is not None:
            try:
                return cast(raw)
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"config key {name!r}: {exc}") from exc
        return default

    def require(self, name, cast):
        val = self.get(name, cast)
        if val is None:
            flag = "--" + name.replace("_", "-")
            raise ConfigError(f"{flag} (or config key {name!r}) is required")
        return val

    def check_unknown(self):
        unknown = set(self._cfg) - self._seen
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")


class OutputSet:
    """Atomic writes plus rollback of everything written by a failed command."""

    def __init__(self):
        self._written: list[str] = []

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
            try:
                os.unlink(path)
            except FileNotFoundError:
                pass
        self._written.clear()


def _csv_text(header: str, rows) -> str:
    lines = [header]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return FLOAT_FMT % x


def _roc_rows(points):
    """_fmt cells of (far, tar) points, a value formatted once per run of equal
    values in its column.  Both columns are non-decreasing, on the exact
    staircase and on fold-averaged grids alike, so that is once per distinct
    value: FAR repeats along every run of same pairs, TAR along every run of
    different ones.  Runs are told apart by bits, so -0.0 keeps its own text."""
    bits = np.array(points, dtype=np.float64).reshape(-1, 2).view(np.int64)
    repeat = np.zeros(bits.shape, dtype=bool)
    repeat[1:] = bits[1:] == bits[:-1]
    del bits  # the text lines grow while this generator runs: hold only the flags
    far = tar = ""
    for (f, t), same_far, same_tar in zip(points, repeat[:, 0], repeat[:, 1]):
        if not same_far:
            far = _fmt(f)
        if not same_tar:
            tar = _fmt(t)
        yield far, tar


# ---------------------------------------------------------------- sources


def _synth_spec(s: Settings, seed: int) -> SynthSpec:
    spec = SynthSpec(
        class_count=s.get("classes", int, 20),
        subclasses_per_class=s.get("subclasses", int, 2),
        samples_per_subclass=s.get("samples_per_subclass", int, 10),
        dim=s.get("dim", int, 50),
        subclass_mean_spread=s.get("spread", float, 3.0),
        scale_range=(s.get("scale_min", float, 0.5), s.get("scale_max", float, 1.5)),
        class_center_spread=s.get("class_spread", float, 6.0),
        seed=_subseed(seed, "synth"),
    )
    spec.validate()
    return spec


def _load_dataset(s: Settings, seed: int) -> LabeledDataset:
    csv_path = s.get("csv", str)
    pgm_dir = s.get("pgm_dir", str)
    synth = s.get("synth", _parse_bool, False)
    with_sub = s.get("with_subclasses", _parse_bool, False)
    chosen = sum(1 for flag in (csv_path, pgm_dir, synth) if flag)
    if chosen != 1:
        raise ConfigError("exactly one data source required: --csv, --pgm-dir, or --synth")
    if csv_path:
        return load_csv(csv_path, with_subclasses=with_sub)
    if pgm_dir:
        return load_pgm_dir(pgm_dir)
    return generate_synthetic(_synth_spec(s, seed))


def _out_dir(s: Settings) -> str:
    out = s.get("out_dir", str)
    if out is None:
        out = os.environ.get(ENV_OUT_DIR, ".")
    os.makedirs(out, exist_ok=True)
    return out


def _partition_params(s: Settings, seed: int):
    strategy = s.get("strategy", str, "kd")
    params = TreeParams(h=s.get("h", int, 2), seed=_subseed(seed, "partition"))
    return strategy, params


def _partition_csv(part) -> str:
    rows = (
        (str(i), str(int(part.class_labels[i])), str(int(part.subclass_labels[i])))
        for i in range(len(part.class_labels))
    )
    return _csv_text("sample_index,class,subclass", rows)


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


def cmd_synth(s: Settings, out: OutputSet) -> None:
    seed = s.get("seed", int, 0)
    out_path = s.require("out", str)
    spec = _synth_spec(s, seed)
    s.check_unknown()
    ds = generate_synthetic(spec)
    out.write_file(out_path, lambda tmp: save_csv(ds, tmp))
    echo = [
        ("classes", str(spec.class_count)),
        ("subclasses", str(spec.subclasses_per_class)),
        ("samples_per_subclass", str(spec.samples_per_subclass)),
        ("dim", str(spec.dim)),
        ("spread", _fmt(spec.subclass_mean_spread)),
        ("scale_min", _fmt(spec.scale_range[0])),
        ("scale_max", _fmt(spec.scale_range[1])),
        ("class_spread", _fmt(spec.class_center_spread)),
        ("seed", str(seed)),
    ]
    out.write_text(out_path + ".cfg", "".join(f"{k}={v}\n" for k, v in echo))
    print(f"wrote {out_path}: {ds.n} samples, {ds.class_count} classes, dim {ds.dim}")


def cmd_partition(s: Settings, out: OutputSet) -> None:
    seed = s.get("seed", int, 0)
    out_dir = _out_dir(s)
    strategy, params = _partition_params(s, seed)
    ds = _load_dataset(s, seed)
    s.check_unknown()
    part = partition_dataset(ds, params, strategy)
    _warn_deficient(part, params.h)
    path = os.path.join(out_dir, "partition.csv")
    out.write_text(path, _partition_csv(part))
    print(f"wrote {path}: strategy={strategy} h={params.h}")


def cmd_train(s: Settings, out: OutputSet) -> None:
    seed = s.get("seed", int, 0)
    out_dir = _out_dir(s)
    strategy, params = _partition_params(s, seed)
    config = TrainConfig(
        d=s.require("d", int),
        mode=s.get("mode", str, REGULARIZED),
        second_stage=s.get("second_stage", str, "ts"),
        med_factor=s.get("med_factor", float, 1.0),
        allow_flat_spectrum=s.get("allow_flat_spectrum", _parse_bool, False),
    )
    ds = _load_dataset(s, seed)
    s.check_unknown()

    part = partition_dataset(ds, params, strategy)
    _warn_deficient(part, params.h)
    fx, details = train_detailed(ds, part, config)
    _warn_rank(config.d, details.second_stage_rank)

    model_path = os.path.join(out_dir, "model.wssda")
    out.write_file(model_path, lambda tmp: save_model(fx, tmp))
    out.write_text(os.path.join(out_dir, "partition.csv"), _partition_csv(part))

    es = details.spectrum
    model = details.model
    spectrum_rows = (
        (str(k + 1), _fmt(es.eigenvalues[k]), _fmt(model.lambda_reg[k]), _fmt(model.weights[k]))
        for k in range(es.dim)
    )
    out.write_text(
        os.path.join(out_dir, "spectrum.csv"),
        _csv_text("k,eigenvalue,regularized_eigenvalue,weight", spectrum_rows),
    )
    pivot_note = f" pivot={model.pivot}" if model.pivot is not None else ""
    print(
        f"wrote {model_path}: dim={fx.dim} d={fx.d} mode={config.mode} "
        f"rank={es.rank}{pivot_note}"
    )


def _load_eval_common(s: Settings, seed: int):
    model_path = s.require("model", str)
    fx = load_model(model_path)
    ds = _load_dataset(s, seed)
    if ds.dim != fx.dim:
        raise ConfigError(
            f"data dimension {ds.dim} does not match the model dimension {fx.dim}"
        )
    return fx, ds


def cmd_eval_id(s: Settings, out: OutputSet) -> None:
    seed = s.get("seed", int, 0)
    out_dir = _out_dir(s)
    rotations = s.get("rotations", int, 1)
    sweep_raw = s.get("d_sweep", str)
    fx, ds = _load_eval_common(s, seed)
    s.check_unknown()

    if sweep_raw is None:
        d_values = [fx.d]
    else:
        try:
            d_values = [int(tok) for tok in sweep_raw.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad d sweep {sweep_raw!r}: {exc}") from exc

    splits = make_gallery_probe_splits(ds, rotations)
    report = identification_sweep(lambda d_max: fx, ds, splits, d_values)
    rows = ((str(d), _fmt(err)) for d, err in report.curve)
    path = os.path.join(out_dir, "identification.csv")
    out.write_text(path, _csv_text("d,error", rows))
    for d, err in report.curve:
        print(f"d={d} error={err * 100:.2f}%")
    print(f"wrote {path}")


def cmd_eval_verify(s: Settings, out: OutputSet) -> None:
    seed = s.get("seed", int, 0)
    out_dir = _out_dir(s)
    pairs_path = s.require("pairs", str)
    folds = s.get("folds", int, 1)
    resolution = s.get("resolution", int)
    if resolution is not None and folds == 1:
        raise ConfigError(
            "--resolution sets the FAR grid of fold averaging and needs --folds above 1; "
            "one fold writes the exact ROC"
        )
    fx, ds = _load_eval_common(s, seed)
    s.check_unknown()

    index, same = load_pairs(pairs_path, ds.n)
    feats = ds.samples @ fx.projection
    try:
        scores = pair_scores(feats, index[:, 0], index[:, 1])
    except ValueError as exc:
        score = lambda a, b: pair_similarity(feats[a], feats[b])  # noqa: E731
        raise _pairs_fault(pairs_path, ds.n, score) from exc
    scored = list(zip(scores.tolist(), same.tolist()))

    if folds == 1:
        rep = verification_roc(scored)
        points, fold_eers, mean, std = rep.points, [rep.eer], rep.eer, 0.0
    else:
        grid = 101 if resolution is None else resolution
        krep = kfold_pairwise(scored, folds=folds, resolution=grid)
        points, fold_eers = krep.points, krep.fold_eers
        mean, std = krep.eer_mean, krep.eer_std

    roc_path = os.path.join(out_dir, "roc.csv")
    out.write_text(roc_path, _csv_text("far,tar", _roc_rows(points)))
    eer_rows = [(str(i), f"{e * 100:.2f}") for i, e in enumerate(fold_eers)]
    eer_rows.append(("mean", f"{mean * 100:.2f}"))
    eer_rows.append(("std", f"{std * 100:.2f}"))
    eer_path = os.path.join(out_dir, "eer.csv")
    out.write_text(eer_path, _csv_text("fold,eer_percent", eer_rows))
    print(f"EER: {mean * 100:.2f}%")
    print(f"wrote {roc_path} and {eer_path}")


# ---------------------------------------------------------------- wiring


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--csv", help="dataset CSV (class[,subclass],v1,...)")
    p.add_argument(
        "--with-subclasses",
        action="store_true",
        default=None,
        help="the CSV's second column is a subclass label",
    )
    p.add_argument("--pgm-dir", help="directory of per-class PGM image folders")
    p.add_argument("--synth", action="store_true", default=None, help="generate synthetic data")
    _add_synth_flags(p)


def _add_synth_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--classes", type=int)
    p.add_argument("--subclasses", type=int)
    p.add_argument("--samples-per-subclass", type=int)
    p.add_argument("--dim", type=int)
    p.add_argument("--spread", type=float, help="subclass mean distance from the class center")
    p.add_argument("--scale-min", type=float)
    p.add_argument("--scale-max", type=float)
    p.add_argument("--class-spread", type=float, help="class center spread")


def _add_partition_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--strategy", choices=STRATEGIES)
    p.add_argument("--h", type=int, help="subclasses per class")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wssda",
        description="subclass discriminant analysis over the whole eigenspace",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value config file; flags override it")
        p.add_argument("--seed", type=int)
        p.add_argument("--out-dir", help=f"output directory (default ${ENV_OUT_DIR} or .)")

    p = sub.add_parser("synth", help="generate a synthetic dataset CSV")
    common(p)
    _add_synth_flags(p)
    p.add_argument("--out", help="output CSV path")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("partition", help="partition classes into subclasses")
    common(p)
    _add_source_flags(p)
    _add_partition_flags(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("train", help="train a feature extractor")
    common(p)
    _add_source_flags(p)
    _add_partition_flags(p)
    p.add_argument("--d", type=int, help="feature dimension")
    p.add_argument("--mode", choices=(REGULARIZED, TRUNCATED))
    p.add_argument("--second-stage", choices=SECOND_STAGES)
    p.add_argument("--med-factor", type=float)
    p.add_argument(
        "--allow-flat-spectrum",
        action="store_true",
        default=None,
        help="fall back to uniform weights when the spectrum has no decay",
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval-id", help="closed-set identification error vs d")
    common(p)
    _add_source_flags(p)
    p.add_argument("--model", help="trained model file")
    p.add_argument("--rotations", type=int, help="gallery/probe rotations")
    p.add_argument("--d-sweep", help="comma-separated feature dimensions, e.g. 1,2,4")
    p.set_defaults(func=cmd_eval_id)

    p = sub.add_parser("eval-verify", help="pairwise verification ROC and EER")
    common(p)
    _add_source_flags(p)
    p.add_argument("--model", help="trained model file")
    p.add_argument("--pairs", help="pairs file: index_a,index_b,same|diff per line")
    p.add_argument("--folds", type=int)
    p.add_argument("--resolution", type=int, help="FAR grid size for fold averaging")
    p.set_defaults(func=cmd_eval_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = {}
    out = OutputSet()
    try:
        if args.config is not None:
            cfg = load_config(args.config)
        args.func(Settings(args, cfg), out)
    except (WSSDAError, ValueError, OSError) as exc:
        out.discard()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
