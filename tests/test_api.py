import phasestab
from phasestab import bounds, experiments, geometry, grid, io

MODULES = (bounds, geometry, grid, experiments, io)


def test_package_exports_every_module_all():
    # each public name is stated once, in its module's __all__
    assert phasestab.__all__ == [name for module in MODULES for name in module.__all__]


def test_no_duplicate_names():
    assert len(set(phasestab.__all__)) == len(phasestab.__all__)


def test_every_name_resolves_to_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(phasestab, name) is getattr(module, name), name
