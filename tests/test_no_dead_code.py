"""Every function, method and class under ``src/repro`` is used somewhere.

A definition whose name appears nowhere in the repository's Python or
CI files besides its own ``def``/``class`` line is dead: nothing calls
it, wraps it, documents it or tests it.  The check is by name, so a
name shared with a live definition elsewhere passes (a false negative,
never a false positive), and a dynamically built name (``"do_" +
method``) must sit on the allowlist with the reason it lives.
"""

import ast
import os
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
#: Where a reference counts: every Python file outside hidden, cache and
#: build directories, and the CI workflows under ``.github``.
SKIPPED_DIRS = {"__pycache__", "build", "dist"}
#: Names only the standard library calls: ``BaseHTTPRequestHandler``
#: dispatches to ``do_<verb>`` by string.
ALLOWLIST = {"do_GET", "do_POST"}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _files():
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in SKIPPED_DIRS
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


def test_every_definition_is_referenced():
    words = Counter()
    defined = Counter()
    for path in _files():
        text = path.read_text(encoding="utf-8")
        words.update(_WORD.findall(text))
        if path.suffix == ".py" and SOURCE in path.parents:
            defined.update(_definitions(ast.parse(text)))
    dead = sorted(
        name for name, count in defined.items()
        if words[name] <= count and name not in ALLOWLIST
        and not (name.startswith("__") and name.endswith("__")))
    assert not dead, f"defined under src/repro but never referenced: {dead}"
