import dynamap


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from dynamap import *", namespace)
    for name in dynamap.__all__:
        assert namespace[name] is getattr(dynamap, name)
    assert dynamap.__all__ == sorted(set(dynamap.__all__))
