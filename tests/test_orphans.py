"""No library code that only tests reach.

Every top-level ``def``/``class`` in a non-``__init__`` module of
``src/repro`` must be named, as a whole word, somewhere outside
``tests/``: in another module of the package, in the same module outside
its own definition, under ``benchmarks/``, ``perfbench/`` or
``examples/``, or in README.md, DESIGN.md or EXPERIMENTS.md. Package
``__init__`` re-exports do not count as a use, and neither does a
mention inside another unused definition: the scan repeats until no new
unused definition turns up, so a helper that only dead code calls is
caught too.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
USER_DIRS = ("benchmarks", "perfbench", "examples")
USER_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
WORD = re.compile(r"\w+")


def _definitions(modules):
    """``(module, name, first_line, last_line)`` per top-level def/class."""
    out = []
    for module in modules:
        for node in ast.parse(module.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                first = min([node.lineno]
                            + [d.lineno for d in node.decorator_list])
                out.append((module, node.name, first, node.end_lineno))
    return out


def unused_definitions(root: Path = ROOT):
    """Sorted ``module:name`` of every definition only tests reach."""
    package = root / "src" / "repro"
    modules = sorted(p for p in package.rglob("*.py") if p.name != "__init__.py")
    outside = set()
    for directory in USER_DIRS:
        for path in (root / directory).rglob("*"):
            if path.is_file():
                outside.update(WORD.findall(path.read_text(errors="replace")))
    for doc in USER_DOCS:
        outside.update(WORD.findall((root / doc).read_text()))
    mentions = defaultdict(list)
    for module in modules:
        for number, line in enumerate(module.read_text().splitlines(), 1):
            for word in set(WORD.findall(line)):
                mentions[word].append((module, number))
    definitions = [d for d in _definitions(modules) if d[1] not in outside]
    unused = set()
    while True:
        dead_spans = [d for d in definitions if d in unused]
        found = {
            d for d in definitions
            if d not in unused and not any(
                not any(m == module and first <= n <= last
                        for module, _, first, last in dead_spans + [d])
                for m, n in mentions[d[1]]
            )
        }
        if not found:
            break
        unused |= found
    return sorted(f"{m.relative_to(package)}:{name}"
                  for m, name, _, _ in unused)


def test_every_definition_is_reached_outside_tests():
    assert unused_definitions() == []
