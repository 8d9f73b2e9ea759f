"""The package export lists: every name is listed once and resolves."""

import pytest

import capmdp
import capmdp.envs


@pytest.mark.parametrize("module", [capmdp, capmdp.envs], ids=lambda m: m.__name__)
def test_every_export_resolves_and_is_listed_once(module):
    names = module.__all__
    assert len(names) == len(set(names)), sorted({n for n in names if names.count(n) > 1})
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing
