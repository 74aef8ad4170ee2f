"""Documentation/consistency checks: the repo keeps its promises.

DESIGN.md's experiment index, the benchmark files, and the CLI registry must
stay in sync — a reproduction whose map doesn't match its territory is worse
than none.
"""

import importlib.util
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).parent.parent
EXAMPLES = sorted((REPO / "examples").glob("*.py"))

PAPER_ARTIFACTS = [
    "fig02", "fig03", "fig04", "fig08", "fig09", "fig10", "fig11",
    "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
    "tab01", "tab02",
]


class TestBenchCoverage:
    def test_every_artifact_has_a_bench_file(self):
        bench_names = {p.stem for p in (REPO / "benchmarks").glob("bench_*.py")}
        for artifact in PAPER_ARTIFACTS:
            assert any(
                artifact in name for name in bench_names
            ), f"no bench for {artifact}"

    def test_design_md_mentions_every_bench_target(self):
        design = (REPO / "DESIGN.md").read_text()
        for artifact in PAPER_ARTIFACTS:
            number = int(artifact[3:])
            kind = "Fig" if artifact.startswith("fig") else "Tab"
            assert re.search(
                rf"{kind} {number}\b", design
            ), f"DESIGN.md lacks the {kind} {number} row"

    def test_design_md_has_substitution_map(self):
        design = (REPO / "DESIGN.md").read_text()
        assert "Substitutions" in design
        for substrate in ("ZFS", "QCOW2", "glusterfs", "DAS-4"):
            assert substrate in design

    def test_readme_points_at_the_deliverables(self):
        readme = (REPO / "README.md").read_text()
        for path in ("DESIGN.md", "EXPERIMENTS.md", "examples/quickstart.py"):
            assert path in readme

    def test_examples_exist_and_are_runnable_scripts(self):
        examples = list((REPO / "examples").glob("*.py"))
        assert len(examples) >= 3
        for example in examples:
            text = example.read_text()
            assert '__main__' in text, f"{example.name} is not runnable"
            assert '"""' in text, f"{example.name} lacks a docstring"

    @pytest.mark.parametrize("example", EXAMPLES, ids=lambda p: p.stem)
    def test_example_imports_cleanly(self, example):
        """Load the script as a module (not as ``__main__``, so nothing
        runs): every name it imports from ``repro`` must still exist."""
        spec = importlib.util.spec_from_file_location(
            f"example_{example.stem}", example
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main)
