"""The package's public names: every entry of aoi_sched.__all__ resolves."""

import aoi_sched


def test_star_import_resolves_every_public_name():
    # a name left in __all__ after its definition is gone fails the star import
    namespace: dict = {}
    exec("from aoi_sched import *", namespace)
    assert set(aoi_sched.__all__) <= set(namespace)
