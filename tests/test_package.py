import freqcache


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from freqcache import *", namespace)  # raises on a missing name
    assert set(freqcache.__all__) <= namespace.keys()
