"""Every function, method and class under ``src/repro`` has a caller.

A definition whose name appears nowhere in the repository's Python or
CI code besides its own ``def``/``class`` line is dead: nothing calls
it or wraps it.  Only code counts: in Python files a mention is a NAME
token (the expressions inside f-strings included), so a name that only
a comment, a docstring or another string spells out is not a caller.
Three kinds of code do not count either, because none of them runs the
definition on the program's behalf:

- anything under ``tests/``: a definition only a test reaches is
  test-only code, and goes together with the tests that check it;
- import lines in a package ``__init__.py``: a re-export is not a use;
- ``__all__`` entries in a package ``__init__.py``, for the same reason.

A name shared with a live definition elsewhere passes (a false
negative, never a false positive).  A name the program reaches only
through a string (``getattr``, a registry entry, a ``module:function``
path, perfbench's lists of wrapped methods) or a test-only entry point
kept on purpose must sit on the allowlist with the reason it lives.
"""

import ast
import io
import os
import re
import tokenize
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
    "getsockopt": "perfbench's tracer wraps GuestLib.getsockopt by name",
    "shutdown": "perfbench's tracer wraps GuestLib.shutdown by name",
    "push_batch": "perfbench's tracer wraps SpscRing.push_batch by name",
    "lookup_nsm": "perfbench's tracer wraps it on ConnectionTable by name",
    "vms_for_nsm": "perfbench's tracer wraps it on ConnectionTable by name",
    "supports_migration": "ServiceLib reads it with getattr by string",
    "run_migration": "the migrate scenario's runner_path names it",
    "run_autoscale_scenario": "the autoscale scenario's runner_path "
                              "names it",
    "run_capacity": "the capacity scenario's runner_path names it",
    "run_table2": "the experiment registry names it by string",
    "run_table7": "the experiment registry names it by string",
    "run_until_event": "the deadlock-guarded run the simulator tests "
                       "drive",
    "StackSocket": "documents the duck type TcpConnection and ShmChannel "
                   "implement; no code is meant to name it",
}

#: CI workflows are not Python: any word in them counts.
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


def _reexport_lines(path, tree):
    """Line numbers of a package ``__init__``'s re-exports."""
    if path.name != "__init__.py":
        return set()
    return {line for node in tree.body if _is_reexport(node)
            for line in range(node.lineno, node.end_lineno + 1)}


def _fstring_names(source):
    """Names in the expressions of one f-string token: CPython 3.11
    tokenizes a whole f-string as a single STRING token."""
    names = []
    for node in ast.walk(ast.parse(source, mode="eval")):
        if isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return names


def _code_names(path, text, tree):
    """Every NAME token of *text* outside comments, strings and the
    re-export lines of a package ``__init__``."""
    skipped = _reexport_lines(path, tree)
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.start[0] in skipped:
            continue
        if token.type == tokenize.NAME:
            yield token.string
        elif token.type == tokenize.STRING:
            quote = token.string[-1]
            prefix = token.string[:token.string.index(quote)]
            if "f" in prefix.lower():
                yield from _fstring_names(token.string)


def dead_definitions():
    words = Counter()
    defined = Counter()
    for path in _files():
        text = path.read_text(encoding="utf-8")
        if path.suffix != ".py":
            words.update(_WORD.findall(text))
            continue
        tree = ast.parse(text)
        words.update(_code_names(path, text, tree))
        if SOURCE in path.parents:
            defined.update(_definitions(tree))
    return sorted(
        name for name, count in defined.items()
        if words[name] <= count and name not in ALLOWLIST
        and not (name.startswith("__") and name.endswith("__")))


def test_every_definition_is_referenced():
    dead = dead_definitions()
    assert not dead, f"defined under src/repro, called only by tests: {dead}"

