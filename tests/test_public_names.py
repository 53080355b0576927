"""The package's public names: every entry of aoi_sched.__all__ resolves."""

import aoi_sched


def test_star_import_resolves_every_public_name():
    # a name left in __all__ after its definition is gone fails the star import
    namespace: dict = {}
    exec("from aoi_sched import *", namespace)
    assert set(aoi_sched.__all__) <= set(namespace)


def test_every_policy_class_is_public():
    """The class behind each CLI policy name is exported under its own name."""
    params = aoi_sched.ModelParams(2, 1, 0.5, (0.5, 0.5), 3)
    for name in aoi_sched.POLICY_NAMES:
        cls = type(aoi_sched.make_policy(name, params, table=object()))
        assert cls.__name__ in aoi_sched.__all__, name
        assert getattr(aoi_sched, cls.__name__) is cls, name
