"""The README's library examples and API list, checked against the package."""

import contextlib
import dataclasses
import inspect
import io
import re
from pathlib import Path

import wssda
from wssda.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def section(title):
    """The README text under a '## title' heading, up to the next one."""
    return re.search(rf"^## {title}\n(.*?)(?=^## )", README, re.S | re.M).group(1)


def test_quick_start_runs_as_written():
    code = re.search(r"```python\n(.*?)```", section("Library quick start"), re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README quick start", "exec"), {})
    curve = [line.split() for line in out.getvalue().splitlines()]
    assert [int(d) for d, _ in curve] == [5, 10, 20, 40]
    assert all(0.0 <= float(err) <= 1.0 for _, err in curve)


def test_package_root_exports_exactly_the_listed_names():
    listed = {}
    items = re.findall(r"^- `(\w+)`: (.*?)(?=^- |^$)", section("Public API"), re.S | re.M)
    for module, names in items:
        for name in re.findall(r"`(\w+)`", names):
            listed[name] = f"wssda.{module}"
    public = {
        name: getattr(wssda, name).__module__
        for name in dir(wssda)
        if not name.startswith("_") and not inspect.ismodule(getattr(wssda, name))
    }
    assert public == listed
    assert len(public) == 38


def test_train_config_knobs_paragraph_names_exactly_its_fields():
    knobs = re.search(r"^`TrainConfig` knobs: (.*?\))\.", README, re.S | re.M).group(1)
    named = re.findall(r"`(\w+)`\s\(", knobs)
    assert named == [field.name for field in dataclasses.fields(wssda.TrainConfig)]


def test_every_flag_the_readme_names_is_a_cli_flag():
    # pip's flags under Install and the scripts' own are not wssda's
    text = README.replace(section("Install"), "").replace(section("Experiment scripts"), "")
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", text))
    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    flags = {flag for p in commands.values() for a in p._actions for flag in a.option_strings}
    assert named and named <= flags, sorted(named - flags)
