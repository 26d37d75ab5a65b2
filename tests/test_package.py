import ast
import importlib
import pathlib
import types

import grobcell


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from grobcell import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(grobcell.__all__)
    assert not [k for k, v in namespace.items() if isinstance(v, types.ModuleType)]


def test_traced_functions_exist():
    # the benchmark's tracer looks up each traced name when it installs, so
    # renaming or deleting one of these functions breaks `run.py --trace 1`;
    # the tuple is read from the source, without importing the benchmark
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (traced,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]
    ]
    assert traced
    for name in traced:
        module, func = name.split(".")
        assert callable(getattr(importlib.import_module("grobcell." + module), func)), name
