"""The names the benchmark under perfbench/ reaches into the package by.

perfbench imports its library calls from wssda, and its --trace 1 tracer
swaps timing wrappers onto module attributes of wssda.pipeline and
wssda.cli.  A simplification that drops or renames one of those names
breaks the benchmark, not the package's own tests; entering the tracer here
catches it in the tier-1 run.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import wssda.cli
import wssda.pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    return spans, workloads


def test_tracer_installs_on_the_package_names_and_restores_them(perfbench, tmp_path):
    spans, workloads = perfbench
    before = {owner: dict(vars(owner)) for owner in (wssda.cli, wssda.pipeline)}
    tracer = spans.Tracer()
    with tracer.installed(workloads.make_api()):
        assert wssda.cli.pair_similarity is not before[wssda.cli]["pair_similarity"]
        code = wssda.cli.main(
            ["synth", "--out", str(tmp_path / "d.csv"), "--classes", "2", "--dim", "3"]
        )
        assert code == 0
    assert {s["name"] for s in tracer.spans} >= {"dataset.generate", "dataset.save_csv"}
    for owner, names in before.items():
        for attr, value in names.items():
            assert getattr(owner, attr) is value, (owner.__name__, attr)


@pytest.mark.parametrize("second_stage", ["ts", "bs"])
def test_dense_train_records_every_layer_span(perfbench, tmp_path, second_stage):
    # the spans wrap names on wssda.pipeline and read part.subclass_counts,
    # out.matrix and out.eigenvalues; a layer that stops calling one reads as 0
    spans, workloads = perfbench
    tracer = spans.Tracer()
    argv = [
        "train", "--synth", "--classes", "4", "--dim", "12", "--d", "3",
        "--second-stage", second_stage, "--out-dir", str(tmp_path),
    ]
    with tracer.installed(workloads.make_api()):
        assert wssda.cli.main(argv) == 0
    layers = {
        "pipeline.train",
        "scatter.within_subclass",
        "scatter.class_means",
        "scatter.second_stage",
        "spectrum.eig",
        "spectrum.model",
    }
    assert layers - {s["name"] for s in tracer.spans} == set()


def test_eval_id_records_the_identify_span(perfbench, tmp_path):
    # evaluation.identify_s reads this span; a sweep the CLI stops calling by
    # the wrapped name would time it as 0
    spans, workloads = perfbench
    data = ["--synth", "--classes", "4", "--dim", "12", "--out-dir", str(tmp_path)]
    assert wssda.cli.main(["train", *data, "--d", "3"]) == 0
    argv = ["eval-id", *data, "--model", str(tmp_path / "model.wssda"), "--d-sweep", "1,3"]
    tracer = spans.Tracer()
    with tracer.installed(workloads.make_api()):
        assert wssda.cli.main(argv) == 0
    identify = [s for s in tracer.spans if s["name"] == "evaluation.identify"]
    assert len(identify) == 1 and identify[0]["end"] > identify[0]["start"]


@pytest.mark.parametrize("folds", ["1", "10"])
def test_eval_verify_records_the_roc_span_with_its_counts(perfbench, tmp_path, folds):
    # evaluation.roc_pairs and roc_thresholds read len(args[0]) and
    # len(out.thresholds) of this span: a ROC the CLI stops calling by the
    # wrapped name reads as 0, and thresholds held as an ndarray would raise
    spans, workloads = perfbench
    data = ["--synth", "--classes", "4", "--dim", "12", "--out-dir", str(tmp_path)]
    assert wssda.cli.main(["train", *data, "--d", "3"]) == 0
    index = np.argwhere(np.triu(np.ones((80, 80), dtype=bool), k=1))
    index = index[np.random.default_rng(0).permutation(len(index))]
    labels = np.repeat(np.arange(4), 20)  # 2 subclasses x 10 samples per class
    pairs = tmp_path / "pairs.csv"
    pairs.write_text(
        "".join(
            f"{a},{b},{'same' if labels[a] == labels[b] else 'diff'}\n" for a, b in index.tolist()
        )
    )
    argv = ["eval-verify", *data, "--model", str(tmp_path / "model.wssda")]
    argv += ["--pairs", str(pairs), "--folds", folds]
    tracer = spans.Tracer()
    with tracer.installed(workloads.make_api()):
        assert wssda.cli.main(argv) == 0
    roc = [s for s in tracer.spans if s["name"] == "evaluation.roc"]
    assert len(roc) == 1
    assert roc[0]["counts"]["pairs"] == len(index)
    assert roc[0]["counts"]["thresholds"] > 0


def test_every_cli_name_the_tracer_wraps_is_bound(perfbench):
    # the tracer skips a CLI_CALLS name wssda.cli lacks, so a dropped import
    # reads as a zero span, not as an error
    spans, _ = perfbench
    missing = [attr for attr, _ in spans.CLI_CALLS if not hasattr(wssda.cli, attr)]
    assert missing == []
