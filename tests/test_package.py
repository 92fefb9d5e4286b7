"""The package's export list names every public name it holds, once."""

import types

import couplesim
import couplesim.cli  # noqa: F401  (binds the module couplesim.cli, as the CLI does)


def test_all_lists_every_public_name_that_is_not_a_module_once():
    public = {
        name for name, value in vars(couplesim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(couplesim.__all__) == len(set(couplesim.__all__))
    assert set(couplesim.__all__) == public
