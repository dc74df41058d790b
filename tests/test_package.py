"""The package's public surface is its modules' __all__ lists."""

import types

import strongmax
from strongmax import covering, harness, heisenberg, lattice, weights


def test_package_exports_exactly_the_modules_all_lists():
    lists = [m.__all__ for m in (lattice, weights, heisenberg, covering, harness)]
    declared = [name for names in lists for name in names]
    # one owner per name, so no module's export shadows another's
    assert len(declared) == len(set(declared))
    exported = {
        name
        for name, val in vars(strongmax).items()
        if not name.startswith("_") and not isinstance(val, types.ModuleType)
    }
    assert exported == set(declared)
