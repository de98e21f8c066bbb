"""Consistency checks between documentation and the actual package."""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


class TestDocsExist:
    @pytest.mark.parametrize(
        "path",
        [
            "README.md",
            "DESIGN.md",
            "EXPERIMENTS.md",
            "LICENSE",
            "docs/TUTORIAL.md",
            "docs/API.md",
            "docs/REPRODUCTION_NOTES.md",
            "docs/NOTATION.md",
            "docs/OBSERVABILITY.md",
            "docs/PERF.md",
            "benchmarks/README.md",
        ],
    )
    def test_file_present_and_nonempty(self, path):
        file = ROOT / path
        assert file.exists(), path
        assert len(file.read_text()) > 200, path


class TestReadmeClaims:
    def test_documented_subpackages_importable(self):
        readme = (ROOT / "README.md").read_text()
        for subpackage in re.findall(r"^  (\w+)/", readme, flags=re.M):
            if subpackage in {"repro", "tests", "benchmarks", "examples",
                              "scripts", "docs", "src", "figures"}:
                continue
            importlib.import_module(f"repro.{subpackage}")

    def test_documented_examples_exist(self):
        readme = (ROOT / "README.md").read_text()
        for example in re.findall(r"python (examples/\w+\.py)", readme):
            assert (ROOT / example).exists(), example

    def test_documented_scripts_exist(self):
        readme = (ROOT / "README.md").read_text()
        for script in re.findall(r"python (scripts/\w+\.py)", readme):
            assert (ROOT / script).exists(), script


class TestTutorialImports:
    def test_code_block_imports_resolve(self):
        tutorial = (ROOT / "docs" / "TUTORIAL.md").read_text()
        for module in re.findall(r"^from (repro[\w.]*) import", tutorial, flags=re.M):
            importlib.import_module(module)

    def test_tutorial_names_exist(self):
        tutorial = (ROOT / "docs" / "TUTORIAL.md").read_text()
        for module_name, names in re.findall(
            r"^from (repro[\w.]*) import ([\w, ]+)$", tutorial, flags=re.M
        ):
            module = importlib.import_module(module_name)
            for name in names.split(","):
                assert hasattr(module, name.strip()), f"{module_name}.{name}"


class TestApiDocsCoverObs:
    def test_every_obs_export_documented_in_api_md(self):
        # docs/API.md must name every public symbol of repro.obs so the
        # observability docs cannot silently rot as the surface grows.
        obs = importlib.import_module("repro.obs")
        api = (ROOT / "docs" / "API.md").read_text()
        for symbol in obs.__all__:
            assert symbol in api, f"repro.obs.{symbol} missing from docs/API.md"

    def test_every_event_type_documented_in_observability_md(self):
        from repro.obs import EVENT_TYPES

        text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
        for event in EVENT_TYPES:
            assert f"`{event}`" in text, f"event {event!r} missing from OBSERVABILITY.md"

    def test_always_on_table_lists_the_training_families(self):
        # Every row whose Source names an event ("`epoch` event: ...") is a
        # training family; together they must be exactly the rows of
        # repro.obs.TRAINING_FAMILIES, with the same kind and event.
        from repro.obs import TRAINING_FAMILIES

        text = (ROOT / "docs" / "OBSERVABILITY.md").read_text()
        table = text[text.index("Always-on families wired through the codebase"):]
        table = table[: table.index("\n\n", table.index("| Metric |"))]
        documented = set(
            re.findall(
                r"^\| `(\w+)(?:\{[\w,]*\})?` \| (\w+) \| `(\w+)` event\b",
                table,
                flags=re.M,
            )
        )
        assert documented == {(f.name, f.kind, f.event) for f in TRAINING_FAMILIES}


class TestDesignIndex:
    def test_per_experiment_index_covers_all(self):
        design = (ROOT / "DESIGN.md").read_text()
        for table in range(3, 11):
            assert f"Table {table}" in design
        for figure in range(4, 9):
            assert f"Fig. {figure}" in design

    def test_referenced_bench_files_exist(self):
        design = (ROOT / "DESIGN.md").read_text()
        for bench in set(re.findall(r"benchmarks/(bench_\w+\.py)", design)):
            assert (ROOT / "benchmarks" / bench).exists(), bench


def _run_ses_commands(text):
    """The arguments of each ``run-ses`` command in a markdown text: per
    line of a fenced block (continuations joined, comments cut), and per
    inline code span, which may wrap within its paragraph."""
    commands = []

    def fenced(block):
        for line in block.group(0).replace("\\\n", " ").splitlines():
            if "run-ses" in line:
                commands.append(line.split("run-ses", 1)[1].split("#")[0])
        return ""

    prose = re.sub(r"```.*?```", fenced, text, flags=re.S)
    for paragraph in prose.split("\n\n"):
        for span in re.findall(r"`([^`]*run-ses[^`]*)`", paragraph):
            commands.append(span.split("run-ses", 1)[1])
    return commands


class TestCliAndApiDocs:
    def test_documented_run_ses_flags_exist(self):
        from repro.run_ses import build_parser

        known = {
            option for action in build_parser()._actions for option in action.option_strings
        }
        paths = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
        documented = {}
        for path in paths:
            for command in _run_ses_commands(path.read_text()):
                for flag in re.findall(r"(?<![\w-])--[a-z][a-z-]*", command):
                    documented.setdefault(flag, path.name)
        assert documented, "no run-ses command found in the docs"
        unknown = {flag: where for flag, where in documented.items() if flag not in known}
        assert unknown == {}

    def test_parallel_config_row_names_the_fields(self):
        from repro.parallel import ParallelConfig

        assert _api_row_arguments("ParallelConfig") == _field_names(ParallelConfig)

    def test_recovery_policy_row_names_the_fields(self):
        from repro.resilience import RecoveryPolicy

        assert _api_row_arguments("RecoveryPolicy") == _field_names(RecoveryPolicy)

    @pytest.mark.parametrize("name", ["NaNWatchdog", "mask_health"])
    def test_obs_row_matches_the_signature(self, name):
        import inspect

        import repro.obs

        parameters = inspect.signature(getattr(repro.obs, name)).parameters
        assert _api_row_arguments(name) == list(parameters)


def _api_row_arguments(name):
    """Argument names of the ``| `name(...)` |`` row of docs/API.md."""
    api = (ROOT / "docs" / "API.md").read_text()
    row = re.search(rf"^\| `{name}\(([^)]*)\)`", api, flags=re.M)
    assert row, f"docs/API.md has no {name}(...) row"
    return [arg.split("=")[0].strip() for arg in row.group(1).split(",")]


def _field_names(cls):
    from dataclasses import fields

    return [field.name for field in fields(cls)]
