import types

import hgineq


def test_public_names_resolve():
    names = hgineq.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(hgineq, name)]
    assert not missing
    public = {name for name, value in vars(hgineq).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= set(names), sorted(public - set(names))
    exec("from hgineq import *", {})
