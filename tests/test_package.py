import types

import grobcell


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from grobcell import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(grobcell.__all__)
    assert not [k for k, v in namespace.items() if isinstance(v, types.ModuleType)]
