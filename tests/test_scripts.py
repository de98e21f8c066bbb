"""Tests for the repository scripts (EXPERIMENTS.md builder, self-check)."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBuildExperimentsMd:
    def test_sections_cover_every_table_and_figure(self):
        builder = _load("build_experiments_md")
        names = [name for name, *_ in builder.SECTIONS]
        expected = [f"table{i}" for i in range(3, 11)] + [f"fig{i}" for i in range(4, 9)]
        assert set(names) == set(expected)

    def test_each_section_has_paper_numbers_and_verdict(self):
        builder = _load("build_experiments_md")
        for name, title, paper_side, verdict in builder.SECTIONS:
            assert "Paper" in paper_side, name
            assert verdict.startswith("Verdict"), name

    def test_main_writes_file(self, tmp_path, monkeypatch):
        builder = _load("build_experiments_md")
        monkeypatch.setattr(builder, "ROOT", tmp_path)
        monkeypatch.setattr(builder, "RESULTS", tmp_path / "results")
        (tmp_path / "results").mkdir()
        (tmp_path / "results" / "table8.txt").write_text("measured table 8")
        builder.main()
        text = (tmp_path / "EXPERIMENTS.md").read_text()
        assert "measured table 8" in text
        assert "not yet generated" in text  # the missing ones are flagged


class TestGenerateExperiments:
    def test_profiles_cover_all_experiments(self):
        generator = _load("generate_experiments")
        from repro.experiments import ALL_EXPERIMENTS

        assert set(generator.PROFILES) == set(ALL_EXPERIMENTS)
        assert set(generator.ORDER) == set(ALL_EXPERIMENTS)


class TestCheckDocs:
    def test_repo_docs_python_blocks_compile(self):
        # Tier-1 shim for the docs lint: every fenced python block in the
        # observability/tutorial docs must at least compile.
        checker = _load("check_docs")
        assert checker.main([]) == 0

    def test_detects_broken_block(self, tmp_path):
        checker = _load("check_docs")
        doc = tmp_path / "bad.md"
        doc.write_text("intro\n```python\ndef broken(:\n```\n")
        assert checker.main([str(doc)]) == 1

    def test_block_extraction_ignores_other_languages(self):
        checker = _load("check_docs")
        text = "```bash\nls\n```\n```python\nx = 1\n```\n"
        blocks = checker.python_blocks(text)
        assert len(blocks) == 1 and blocks[0][1] == "x = 1"

    def test_missing_file_fails(self, tmp_path):
        checker = _load("check_docs")
        assert checker.main([str(tmp_path / "nope.md")]) == 1


class TestSelfcheckStructure:
    def test_selfcheck_has_check_helper(self):
        selfcheck = _load("selfcheck")
        results = []
        selfcheck.check("ok", lambda: None, results)
        selfcheck.check("bad", lambda: 1 / 0, results)
        assert results[0][1] is True
        assert results[1][1] is False


class TestDoctor:
    def test_docs_check_passes(self, capsys):
        from repro import doctor

        assert doctor.main(["--only", "docs"]) == 0
        out = capsys.readouterr().out
        assert "PASS  docs" in out
        assert "doctor: PASS (1/1 checks)" in out

    def test_missing_script_fails(self, tmp_path, capsys):
        from repro import doctor

        assert doctor.main(["--only", "docs"], root=tmp_path) == 1
        out = capsys.readouterr().out
        assert "FAIL  docs" in out
        assert "doctor: FAIL (0/1 checks)" in out

    def test_unknown_check_rejected(self):
        from repro import doctor

        with pytest.raises(SystemExit):
            doctor.main(["--only", "bogus"])

    def test_dispatch_through_python_m_repro(self, capsys):
        from repro.__main__ import main as repro_main

        assert repro_main(["doctor", "--only", "docs"]) == 0
        assert "doctor: PASS" in capsys.readouterr().out
