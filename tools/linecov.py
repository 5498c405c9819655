"""List the statements of src/gcdlab that no test executes.

Runs pytest with a line tracer (sys.settrace and threading.settrace) on the
files of src/gcdlab.  The tracer is installed by a temporary sitecustomize
module put first on PYTHONPATH, so the pytest process and every child
interpreter a test starts (the CLI and demo runs) are traced alike; each
writes the lines it ran when it exits.  The statements come from the ast of
each source file; a statement counts as executed when a line of its own
(its header, for a compound statement) ran.  Docstrings and global or
nonlocal declarations have no code and are never listed.

Usage, from the repository root (stdlib only; takes a few minutes):

    python tools/linecov.py            # the whole test suite
    python tools/linecov.py tests/test_arith.py -k sieve

Extra arguments go to pytest.  Prints one `path:line: source` row per
statement that no test ran, then their count; exits with pytest's code.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gcdlab"

_SITECUSTOMIZE = '''\
import atexit, json, os, sys, threading

_PREFIX, _OUT = {prefix!r}, {out!r}
_hits, _traced = {{}}, {{}}


def _local(frame, event, arg):
    if event == "line":
        _hits.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    name = frame.f_code.co_filename
    real = _traced.get(name)
    if real is None:  # a file's real path, or "" outside the package
        real = _traced[name] = os.path.realpath(name)
        if not real.startswith(_PREFIX):
            real = _traced[name] = ""
    if real:
        _hits.setdefault(name, set()).add(frame.f_lineno)
        return _local
    return None


@atexit.register
def _write():
    sys.settrace(None)
    path = os.path.join(_OUT, f"hits-{{os.getpid()}}.json")
    with open(path, "w") as fh:
        json.dump({{_traced[k]: sorted(v) for k, v in _hits.items()}}, fh)


sys.settrace(_global)
threading.settrace(_global)
'''


_SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _own_lines(node: ast.stmt) -> range:
    """The lines of node that belong to no statement nested in it: its
    header, for a compound statement (from its first decorator, if any)."""
    start = min([d.lineno for d in getattr(node, "decorator_list", ())] + [node.lineno])
    nested = [
        child.lineno
        for field in ("body", "orelse", "finalbody", "handlers")
        for child in getattr(node, field, ())
    ]
    if not nested:
        return range(start, node.end_lineno + 1)
    return range(start, max(min(nested), node.lineno + 1))


def _statements(path: Path):
    """(line, own lines) of every statement in path that has code."""
    tree = ast.parse(path.read_text(), str(path))
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, _SCOPES) and node.body and isinstance(node.body[0], ast.Expr):
            if isinstance(node.body[0].value, ast.Constant) and isinstance(node.body[0].value.value, str):
                skip.add(node.body[0])  # a docstring
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            skip.add(node)
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and node not in skip:
            yield node.lineno, _own_lines(node)


def main(argv: list[str]) -> int:
    with tempfile.TemporaryDirectory(prefix="linecov-") as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "hits")
        site.mkdir()
        out.mkdir()
        prefix = str(PACKAGE) + os.sep
        (site / "sitecustomize.py").write_text(_SITECUSTOMIZE.format(prefix=prefix, out=str(out)))
        paths = [str(site), str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *argv]
        code = subprocess.run(cmd, cwd=ROOT, env=env).returncode
        hits: dict[str, set[int]] = {}
        for part in out.glob("hits-*.json"):
            for name, lines in json.loads(part.read_text()).items():
                hits.setdefault(name, set()).update(lines)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        ran = hits.get(str(path), set())
        source = path.read_text().splitlines()
        for line, own in sorted(_statements(path)):
            if ran.isdisjoint(own):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{line}: {source[line - 1].strip()}")
    print(f"{missed} statements of src/gcdlab not executed by the tests")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
