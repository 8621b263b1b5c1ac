"""Documentation-consistency checks.

The experiment registry is the single source of truth; DESIGN.md and
EXPERIMENTS.md must track it, and the README's inventory claims must
stay true. These tests fail when docs drift from code.
"""

import doctest
import importlib
import pathlib
import re

from repro.reporting import EXPERIMENTS

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _read(name: str) -> str:
    return (ROOT / name).read_text()


class TestExperimentDocs:
    def test_every_experiment_in_design_md(self):
        design = _read("DESIGN.md")
        missing = [
            e.experiment_id
            for e in EXPERIMENTS
            if not re.search(rf"\|\s*{e.experiment_id}\s*\|", design)
        ]
        assert not missing, f"DESIGN.md lacks experiment rows: {missing}"

    def test_every_experiment_in_experiments_md(self):
        text = _read("EXPERIMENTS.md")
        missing = [
            e.experiment_id
            for e in EXPERIMENTS
            if f"{e.experiment_id} —" not in text
            and f"{e.experiment_id} -" not in text
        ]
        assert not missing, f"EXPERIMENTS.md lacks sections: {missing}"

    def test_every_bench_referenced_in_experiments_md(self):
        text = _read("EXPERIMENTS.md")
        missing = [
            e.bench
            for e in EXPERIMENTS
            if pathlib.Path(e.bench).name not in text
        ]
        assert not missing, f"EXPERIMENTS.md never names: {missing}"

    def test_readme_experiment_count_current(self):
        readme = _read("README.md")
        assert f"all {len(EXPERIMENTS)} experiments" in readme

    def test_no_stale_bench_files(self):
        registered = {pathlib.Path(e.bench).name for e in EXPERIMENTS}
        on_disk = {
            p.name for p in (ROOT / "benchmarks").glob("test_bench_*.py")
        }
        unregistered = on_disk - registered
        assert not unregistered, f"benches not in the registry: {unregistered}"


class TestReadmeCode:
    def test_resilience_example_runs(self):
        section = _read("README.md").split(
            "### Fault injection & resilience policies", 1
        )[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
        assert namespace["read"].value == "ok"


class TestDocstringExamples:
    def test_every_module_example_runs(self):
        package = ROOT / "src" / "repro"
        modules = sorted(
            ".".join(path.relative_to(package.parent).with_suffix("").parts)
            for path in package.rglob("*.py")
            if ">>>" in path.read_text()
        )
        assert modules, "no docstring examples found"
        failed = [
            name for name in modules
            if doctest.testmod(importlib.import_module(name)).failed
        ]
        assert not failed, f"docstring examples fail in: {failed}"


class TestExampleDocs:
    def test_every_example_in_readme(self):
        readme = _read("README.md")
        examples = sorted((ROOT / "examples").glob("*.py"))
        missing = [
            p.name for p in examples if f"examples/{p.name}" not in readme
        ]
        assert not missing, f"README.md lacks example rows: {missing}"

    def test_examples_have_module_docstrings_and_main(self):
        for path in (ROOT / "examples").glob("*.py"):
            text = path.read_text()
            assert text.lstrip().startswith(('"""', "#!")), path.name
            assert 'if __name__ == "__main__":' in text, path.name
