"""Every function, method and class under ``src/repro`` has a caller.

A definition whose name appears nowhere in the repository's Python or
CI files besides its own ``def``/``class`` line is dead: nothing calls
it, wraps it or documents it.  Three kinds of mention do not count as a
caller, because none of them runs the definition on the program's
behalf:

- anything under ``tests/``: a definition only a test reaches is
  test-only code, and goes together with the tests that check it;
- import lines in a package ``__init__.py``: a re-export is not a use;
- ``__all__`` entries in a package ``__init__.py``, for the same reason.

The check is by word, so a name shared with a live definition elsewhere,
or mentioned in a comment or string, passes (a false negative, never a
false positive).  A dynamically built
name (``"do_" + method``) or a test-only entry point kept on purpose
must sit on the allowlist with the reason it lives.
"""

import ast
import os
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
#: Where a reference counts: every Python file outside hidden, cache,
#: build and test directories, and the CI workflows under ``.github``.
SKIPPED_DIRS = {"__pycache__", "build", "dist"}
TESTS = ROOT / "tests"
#: Definitions kept although no program code names them, each with why.
ALLOWLIST = {
    "do_GET": "BaseHTTPRequestHandler dispatches to do_<verb> by string",
    "do_POST": "BaseHTTPRequestHandler dispatches to do_<verb> by string",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _files():
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in SKIPPED_DIRS
                       and Path(dirpath, d) != TESTS
                       and (d == ".github" or not d.startswith("."))]
        ci = ".github" in Path(dirpath).relative_to(ROOT).parts
        for name in filenames:
            if name.endswith(".py") or (
                    ci and name.endswith((".yml", ".yaml"))):
                yield Path(dirpath, name)


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name


def _is_reexport(node):
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _referencing_text(path, text, tree):
    """*text* without the lines of a package ``__init__``'s re-exports."""
    if path.name != "__init__.py":
        return text
    skipped = {line for node in tree.body if _is_reexport(node)
               for line in range(node.lineno, node.end_lineno + 1)}
    return "\n".join(line for n, line in enumerate(text.splitlines(), 1)
                     if n not in skipped)


def dead_definitions():
    words = Counter()
    defined = Counter()
    for path in _files():
        text = path.read_text(encoding="utf-8")
        if path.suffix != ".py":
            words.update(_WORD.findall(text))
            continue
        tree = ast.parse(text)
        words.update(_WORD.findall(_referencing_text(path, text, tree)))
        if SOURCE in path.parents:
            defined.update(_definitions(tree))
    return sorted(
        name for name, count in defined.items()
        if words[name] <= count and name not in ALLOWLIST
        and not (name.startswith("__") and name.endswith("__")))


def test_every_definition_is_referenced():
    dead = dead_definitions()
    assert not dead, f"defined under src/repro, called only by tests: {dead}"

