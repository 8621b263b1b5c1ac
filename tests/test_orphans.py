"""No library code that only tests reach.

A definition is every top-level ``def``/``class`` of a non-``__init__``
module of ``src/repro``, every method or property in the body of a
top-level class (dunder methods aside: Python calls those), and every
instance attribute a method sets as ``self.attr = ...``. Each must be
reached from outside ``tests/``, and a reach is resolved through the
AST, never matched as a bare word:

- A top-level definition is reached by a ``Name`` in its own module; by
  a ``from <module> import name`` in another module, following package
  ``__init__`` re-exports back to the defining module; by
  ``alias.name`` where ``alias`` is bound to a ``repro`` module
  (``nx.name`` is not); and by a ``"repro.module:name"`` or
  ``f"{__name__}:name"`` string.
- A class member is reached by an ``Attribute`` of its name, and an
  instance attribute by an ``Attribute`` of its name that reads it.
- Uses count in ``src/repro`` outside the definition itself, under
  ``benchmarks/``, ``perfbench/`` and ``examples/``, in the
  ``python -c`` snippets of ``.github/workflows/*.yml``, and in
  README.md, DESIGN.md and EXPERIMENTS.md inside backtick spans and
  fenced blocks only. Comments, docstrings and prose never count, and
  a package ``__init__`` import is a re-export, not a use.
- A use inside another unreached definition does not count: the scan
  repeats until no new unreached definition turns up, so a helper that
  only dead code calls is caught too.

``EXEMPT`` keeps a definition that only tests reach, one row per
reason; a row naming a whole module keeps each of its definitions that
a test reaches. Print the findings and the exemptions with
``python tests/test_orphans.py``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
USER_DIRS = ("benchmarks", "perfbench", "examples")
USER_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
WORD = re.compile(r"\w+")
CODE_SPAN = re.compile(r"```.*?```|``.+?``|`[^`\n]+`", re.S)
PYTHON_C = re.compile(r"""python3? -c (?:"([^"]*)"|'([^']*)')""")
ENTRYPOINT = re.compile(r"(repro(?:\.\w+)*):(\w+)")
#: Definitions kept although only tests reach them, each with its reason.
EXEMPT = {
    "_perfref.py": "the frozen kernel copy the golden-trace and perf "
    "tests compare the live kernel against",
    "_modelref.py:reference_cost_per_unit_curve": "the oracle a test "
    "compares the live SoC/SiP cost curve against",
    "runner/pool.py:WorkerPool.worker_pids": "the crash-containment "
    "tests read the live worker pids to see a worker reused or replaced",
    "service/server.py:serve_in_thread": "the in-process service harness "
    "(with ServiceHandle and ExperimentService.request_kill) three test "
    "modules drive; moving it into tests is no reduction",
    "engine/resources.py:Resource.in_use": "a read-only accessor the "
    "tests use to observe live resource state",
    "engine/sim.py:Event.cancelled": "a read-only accessor the tests use "
    "to observe a cancelled event",
    "engine/faults.py:FaultInjector.is_down": "a read-only accessor the "
    "tests use to observe live fault state",
    "client.py:ServiceClient.meta": "a read-only accessor the tests use "
    "to read the service's metadata",
    "network/failures.py:DegradationProfile.exhausted": "a result "
    "payload field: whether the failure sweep ran out of links to fail",
    "errors.py:ProcessFailure.process_name": "an exception payload field "
    "naming the process that failed",
    "errors.py:DeadlineExceeded.deadline_s": "an exception payload field "
    "naming the deadline that passed",
}
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


class _File:
    """One parsed Python source and the names its imports bind."""

    def __init__(self, path, tree, module=None, package=False):
        self.path, self.tree, self.module = path, tree, module
        self.package = package
        self.bound = {}
        self.imports = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.bound[alias.asname] = ("mod", alias.name)
                    else:
                        head = alias.name.split(".")[0]
                        self.bound[head] = ("mod", head)
            elif isinstance(node, ast.ImportFrom):
                base = self._absolute(node)
                for alias in node.names:
                    target = ("sym", base, alias.name)
                    self.bound[alias.asname or alias.name] = target
                    self.imports.append((node, target))

    def _absolute(self, node):
        if not node.level or self.module is None:
            return node.module
        parts = self.module.split(".")
        if not self.package:
            parts = parts[:-1]
        parts = parts[: len(parts) - node.level + 1]
        return ".".join(parts + ([node.module] if node.module else []))


def _parse(path, text=None, **where):
    try:
        tree = ast.parse(path.read_text() if text is None else text)
    except SyntaxError:
        return None
    return _File(path, tree, **where)


def _span(node):
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return first, node.end_lineno


class _Package:
    """The modules of ``src/repro`` and what each name in them means."""

    def __init__(self, root):
        src = root / "src"
        self.files = {}
        for path in sorted((src / "repro").rglob("*.py")):
            package = path.name == "__init__.py"
            parts = path.relative_to(src).with_suffix("").parts
            module = ".".join(parts[:-1] if package else parts)
            self.files[module] = _parse(path, module=module, package=package)
        self.defined = {
            module: {
                target.id if isinstance(target, ast.Name) else node.name
                for node in file.tree.body
                for target in (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target] if isinstance(node, ast.AnnAssign)
                    else [node]
                )
                if isinstance(target, (ast.Name, ast.ClassDef) + _FUNCTIONS)
            }
            for module, file in self.files.items()
        }

    def resolve(self, module, name, seen=()):
        """``("mod", module)`` or ``("sym", module, name)`` for what
        ``module.name`` means, following re-exports; else ``None``."""
        if module not in self.files or (module, name) in seen:
            return None
        if name in self.defined[module]:
            return ("sym", module, name)
        if f"{module}.{name}" in self.files:
            return ("mod", f"{module}.{name}")
        return self._follow(self.files[module].bound.get(name),
                            seen + ((module, name),))

    def _follow(self, target, seen=()):
        """What an import binding ``target`` means, if it is ours."""
        if target is None:
            return None
        if target[0] == "mod":
            return target if target[1] in self.files else None
        return self.resolve(target[1], target[2], seen)

    def meaning(self, file, node):
        """What the ``Name``/``Attribute`` chain ``node`` refers to."""
        if isinstance(node, ast.Attribute):
            owner = self.meaning(file, node.value)
            if owner and owner[0] == "mod":
                return self.resolve(owner[1], node.attr)
            return None
        if not isinstance(node, ast.Name):
            return None
        if file.module and node.id in self.defined[file.module]:
            return ("sym", file.module, node.id)
        return self._follow(file.bound.get(node.id))


def _uses(package, file):
    """``(key, line)`` for every reach in ``file``: ``("sym", module,
    name)`` for a top-level definition, ``("attr", name)`` for any
    attribute and ``("read", name)`` for an attribute that is read."""
    out = []
    if not file.package:
        for node, (_, base, name) in file.imports:
            target = package.resolve(base, name)
            if target and target[0] == "sym":
                out.append((target, node.lineno))
    for node in ast.walk(file.tree):
        if isinstance(node, ast.Attribute):
            out.append((("attr", node.attr), node.lineno))
            if isinstance(node.ctx, ast.Load):
                out.append((("read", node.attr), node.lineno))
        if isinstance(node, (ast.Name, ast.Attribute)):
            target = package.meaning(file, node)
            if target and target[0] == "sym":
                out.append((target, node.lineno))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr")
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
            out.append((("attr", node.args[1].value), node.lineno))
            out.append((("read", node.args[1].value), node.lineno))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = ENTRYPOINT.fullmatch(node.value)
            if match:
                target = package.resolve(*match.groups())
                if target:
                    out.append((target, node.lineno))
        elif isinstance(node, ast.JoinedStr) and file.module:
            parts = node.values
            if (len(parts) == 2 and isinstance(parts[0], ast.FormattedValue)
                    and isinstance(parts[0].value, ast.Name)
                    and parts[0].value.id == "__name__"
                    and isinstance(parts[1], ast.Constant)
                    and parts[1].value.startswith(":")):
                out.append((("sym", file.module, parts[1].value[1:]),
                            node.lineno))
    return out


def _definitions(package, root):
    """``(path, keys, label, spans)`` per definition: a top-level
    def/class, a non-dunder member of a top-level class, and an instance
    attribute set on ``self`` in a method of a top-level class."""
    out = []
    for module, file in package.files.items():
        if file.package:
            continue
        name = file.path.relative_to(root / "src" / "repro").as_posix()
        for node in file.tree.body:
            if not isinstance(node, _FUNCTIONS + (ast.ClassDef,)):
                continue
            out.append((file.path, {("sym", module, node.name)},
                        f"{name}:{node.name}", [_span(node)]))
            if not isinstance(node, ast.ClassDef):
                continue
            attributes = {}
            for member in node.body:
                if not isinstance(member, _FUNCTIONS):
                    continue
                if not (member.name.startswith("__")
                        and member.name.endswith("__")):
                    out.append((file.path, {("attr", member.name)},
                                f"{name}:{node.name}.{member.name}",
                                [_span(member)]))
                for statement in ast.walk(member):
                    targets = (
                        statement.targets if isinstance(statement, ast.Assign)
                        else [statement.target]
                        if isinstance(statement, ast.AnnAssign) else []
                    )
                    for target in targets:
                        if (isinstance(target, ast.Attribute)
                                and isinstance(target.value, ast.Name)
                                and target.value.id == "self"):
                            attributes.setdefault(target.attr, []).append(
                                (statement.lineno, statement.end_lineno))
            out.extend(
                (file.path, {("read", attr)}, f"{name}:{node.name}.{attr}",
                 spans)
                for attr, spans in attributes.items()
            )
    return out


def _outside_files(root):
    """Every parsed user file outside ``src`` and ``tests``."""
    files = []
    for directory in USER_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            files.append(_parse(path))
    for path in sorted((root / ".github" / "workflows").glob("*.yml")):
        for match in PYTHON_C.finditer(path.read_text()):
            files.append(_parse(path, text=match.group(1) or match.group(2)))
    return [file for file in files if file is not None]


def _doc_words(root):
    """Every word inside a backtick span or fenced block of the docs."""
    words = set()
    for doc in USER_DOCS:
        path = root / doc
        if path.exists():
            for span in CODE_SPAN.findall(path.read_text()):
                words.update(WORD.findall(span))
    return words


def _test_keys(root, package):
    """Every key something under ``tests/`` reaches."""
    return {
        key
        for path in sorted((root / "tests").rglob("*.py"))
        if (file := _parse(path)) is not None
        for key, _ in _uses(package, file)
    }


def _reached(definition, inside, dead):
    """Whether a use in ``src`` outside ``dead`` spans and outside the
    definition itself reaches ``definition``."""
    path, keys, _, spans = definition
    void = dead + [(path, span) for span in spans]
    return any(
        not any(where == file and first <= line <= last
                for file, (first, last) in void)
        for key in keys
        for where, line in inside.get(key, ())
    )


def scan(root: Path = ROOT, exempt=EXEMPT):
    """``(findings, kept)``: sorted ``module:label`` of every definition
    only tests reach, and of every one ``exempt`` keeps. A module row
    keeps every definition in it; any other row keeps its definition
    while a test reaches it."""
    package = _Package(root)
    inside = {}
    for file in package.files.values():
        for key, line in _uses(package, file):
            inside.setdefault(key, []).append((file.path, line))
    outside = {key for file in _outside_files(root)
               for key, _ in _uses(package, file)}
    words = _doc_words(root)
    tested = _test_keys(root, package)
    candidates = [
        d for d in _definitions(package, root)
        if not d[1] & outside and not any(key[-1] in words for key in d[1])
    ]
    unused, kept = [], []
    while True:
        dead = [(d[0], span) for d in unused for span in d[3]]
        found = [d for d in candidates if d not in unused + kept
                 and not _reached(d, inside, dead)]
        if not found:
            break
        for d in found:
            _, keys, label, _ = d
            keep = label.split(":")[0] in exempt or (
                label in exempt and keys & tested)
            (kept if keep else unused).append(d)
    return sorted(d[2] for d in unused), sorted(d[2] for d in kept)


def unused_definitions(root: Path = ROOT, exempt=EXEMPT):
    """Sorted ``module:label`` of every definition only tests reach."""
    return scan(root, exempt)[0]


def test_every_definition_is_reached_outside_tests():
    assert unused_definitions() == []


def _names(row, label):
    """Whether the ``EXEMPT`` row ``row`` names ``label`` or its module."""
    return label == row or label.startswith(f"{row}:")


def test_every_exemption_keeps_something():
    kept = scan()[1]
    stale = [row for row in EXEMPT
             if not any(_names(row, label) for label in kept)]
    assert not stale, f"exemptions that keep nothing: {stale}"



def _tree(root, files):
    """A fake checkout under ``root``: ``files`` maps a relative path to
    its text; the package ``__init__`` and the three docs default to
    empty."""
    for name in ("src/repro/__init__.py",) + USER_DOCS:
        files.setdefault(name, "")
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


class TestGuardRules:
    """One fake tree per rule; each asserts the guard's verdict."""

    def test_a_comment_is_not_a_use(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/a.py": "def helper():\n    return 1\n",
            "src/repro/b.py": "# helper is called from here\nX = 1\n",
        })
        assert unused_definitions(root, {}) == ["a.py:helper"]

    def test_a_method_of_the_same_name_is_not_a_use(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/a.py": "def summarize():\n    return 1\n",
            "src/repro/b.py": (
                "class Report:\n"
                "    def summarize(self):\n        return 2\n\n\n"
                "def main():\n    return Report().summarize()\n\n\n"
                "main()\n"
            ),
        })
        assert unused_definitions(root, {}) == ["a.py:summarize"]

    def test_an_attribute_of_a_foreign_module_is_not_a_use(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/graph.py": "def pagerank(g):\n    return g\n",
            "examples/demo.py": (
                "import networkx as nx\n\nprint(nx.pagerank({}))\n"
            ),
        })
        assert unused_definitions(root, {}) == ["graph.py:pagerank"]

    def test_a_reexport_is_followed_but_is_not_a_use(self, tmp_path):
        files = {
            "src/repro/pkg/__init__.py": "from .mod import f, g\n",
            "src/repro/pkg/mod.py": (
                "def f():\n    return 1\n\n\ndef g():\n    return 2\n"
            ),
            "examples/demo.py": (
                "import repro.pkg\nfrom repro.pkg import f\n\n"
                "print(f(), repro.pkg.mod)\n"
            ),
        }
        root = _tree(tmp_path, files)
        assert unused_definitions(root, {}) == ["pkg/mod.py:g"]

    def test_a_module_alias_reaches_through_a_reexport(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/pkg/__init__.py": "from repro.pkg.mod import g\n",
            "src/repro/pkg/mod.py": "def g():\n    return 2\n",
            "perfbench/demo.py": "from repro import pkg\n\nprint(pkg.g())\n",
        })
        assert unused_definitions(root, {}) == []

    def test_entrypoint_strings_are_uses(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/jobs.py": (
                "def run_it():\n    return 1\n\n\n"
                "def _shard():\n    return 2\n\n\n"
                "def _unnamed():\n    return 3\n\n\n"
                'SELF = f"{__name__}:_shard"\n'
            ),
            "src/repro/registry.py": 'ENTRY = "repro.jobs:run_it"\n',
        })
        assert unused_definitions(root, {}) == ["jobs.py:_unnamed"]

    def test_docs_count_in_code_spans_only(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/rows.py": (
                "def select_rows():\n    return 1\n\n\n"
                "def project():\n    return 2\n"
            ),
            "README.md": (
                "Call `select_rows()` to filter. We project the rows.\n\n"
                "```python\nimport repro\n```\n"
            ),
        })
        assert unused_definitions(root, {}) == ["rows.py:project"]

    def test_an_unread_instance_attribute_is_found(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/cache.py": (
                "class Cache:\n"
                "    def __init__(self):\n"
                "        self.hits = 0\n        self.misses = 0\n\n"
                "    def get(self):\n"
                "        self.misses += 1\n        return self.hits\n"
            ),
            "examples/demo.py": (
                "from repro.cache import Cache\n\nprint(Cache().get())\n"
            ),
        })
        assert unused_definitions(root, {}) == ["cache.py:Cache.misses"]

    def test_an_exemption_keeps_only_what_a_test_reaches(self, tmp_path):
        root = _tree(tmp_path, {
            "src/repro/a.py": (
                "def probe():\n    return 1\n\n\n"
                "def stale():\n    return 2\n"
            ),
            "src/repro/_frozen.py": "def oracle():\n    return 3\n",
            "tests/test_a.py": "from repro.a import probe\n\nprobe()\n",
        })
        exempt = {"a.py:probe": "why", "a.py:stale": "why",
                  "_frozen.py": "why"}
        assert scan(root, exempt) == (
            ["a.py:stale"], ["_frozen.py:oracle", "a.py:probe"]
        )


if __name__ == "__main__":
    findings, kept = scan()
    print(f"{len(findings)} definitions only tests reach:")
    for label in findings:
        print(f"  {label}")
    print(f"{len(kept)} kept by an exemption:")
    for row, reason in EXEMPT.items():
        print(f"  {row}: {reason}")
        for label in kept:
            if _names(row, label):
                print(f"    {label}")
