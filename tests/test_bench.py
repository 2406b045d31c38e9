import pytest

from freqcache import CacheConfig
from freqcache.bench import WARMUP, bench


def test_report_shape():
    result = bench(CacheConfig(patch_size=16), 64, 64, iterations=5)
    assert result["warmup"] == WARMUP == 5
    assert result["iterations"] == 5
    assert 0.0 < result["median_ms"] <= result["p95_ms"]


def test_small_frames_are_faster():
    cfg = CacheConfig(patch_size=16)
    small = bench(cfg, 32, 32, iterations=15, seed=1)
    large = bench(cfg, 224, 224, iterations=15, seed=1)
    assert small["median_ms"] < large["median_ms"]


def test_rejects_zero_iterations():
    with pytest.raises(ValueError):
        bench(CacheConfig(patch_size=16), 32, 32, iterations=0)
