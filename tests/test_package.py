import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gcdlab

SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_every_export_is_its_modules_object():
    for module, names in gcdlab._EXPORTS.items():
        mod = importlib.import_module(f"gcdlab.{module}")
        for name in names:
            assert getattr(gcdlab, name) is getattr(mod, name), name
    namespace = {}
    exec("from gcdlab import *", namespace)
    for name in gcdlab.__all__:
        assert namespace[name] is getattr(gcdlab, name), name


def test_internal_consistency_error_is_one_class():
    # instance defines it, so cli.main catches it without loading structure
    import gcdlab.instance
    import gcdlab.search
    import gcdlab.structure

    cls = gcdlab.instance.InternalConsistencyError
    assert gcdlab.InternalConsistencyError is cls
    assert gcdlab.structure.InternalConsistencyError is cls
    assert gcdlab.search.InternalConsistencyError is cls


def test_export_map_lists_each_name_once():
    assert len(gcdlab.__all__) == len(set(gcdlab.__all__)) == len(gcdlab._MODULE_OF)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gcdlab.no_such_name
    assert not hasattr(gcdlab, "__no_such_dunder__")


def test_import_loads_no_submodule_and_dir_lists_every_export():
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "import gcdlab\n"
        "print(sorted(m for m in sys.modules if m.startswith('gcdlab.')))\n"
        "print(sorted(set(gcdlab.__all__) - set(dir(gcdlab))))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    assert proc.stdout == "[]\n[]\n"


def test_no_module_imports_dataclasses():
    # records are NamedTuples, so a cold start pays for no dataclass codegen
    for path in sorted(Path(SRC, "gcdlab").rglob("*.py")):
        assert "dataclasses" not in path.read_text(encoding="utf-8"), path


def test_every_imported_name_is_used():
    # a stdlib stand-in for an unused-import lint: each name a module imports
    # is read in it, or named by a string such as an __all__ entry
    paths = sorted(Path(SRC, "gcdlab").glob("*.py"))
    assert paths
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"
            ):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
        assert imported <= used, (path.name, sorted(imported - used))



def test_epsilon_stays_an_exact_fraction():
    # epsilon is parsed once, at an input boundary, into a Fraction: no
    # parameter or record field of that name is typed float, and its parser
    # keeps no cache
    for path in sorted(Path(SRC, "gcdlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.arg) and node.arg == "epsilon":
                annotation = node.annotation
            elif isinstance(node, ast.AnnAssign) and ast.unparse(node.target) == "epsilon":
                annotation = node.annotation
            else:
                annotation = None
            if annotation is not None:
                assert "float" not in ast.unparse(annotation), (path.name, node.lineno)
            if isinstance(node, ast.FunctionDef) and node.name == "epsilon_fraction":
                decorators = [ast.unparse(d) for d in node.decorator_list]
                assert not any("cache" in d for d in decorators), (path.name, decorators)
