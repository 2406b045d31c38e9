"""Tests of the benchmark itself: generator, output checks and tracing.

Run from the root of the checkout with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import sys
import types
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]

import checks  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from freqcache import fusion, migration  # noqa: E402
from harness import Stream  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_and_float32_exact(name):
    a = workloads.build(name, 3)
    b = workloads.build(name, 3)
    other = workloads.build(name, 4)
    assert len(a.frames) == len(a.truth) == len(b.frames)
    assert a.truth == b.truth
    for fa, fb in zip(a.frames, b.frames):
        assert np.array_equal(fa, fb)
        assert fa.dtype == np.float64
        assert np.array_equal(fa, fa.astype(np.float32).astype(np.float64))
    assert not all(np.array_equal(fa, fo) for fa, fo in zip(a.frames, other.frames))


def test_shots_ground_truth_script():
    wl = workloads.build("shots-224-p16", 0)
    truth = wl.truth[1:]
    assert sum(t.cut for t in truth) == 3
    black = [t for t, f in enumerate(wl.frames) if not f.any()]
    assert len(black) == 2
    for t in black:
        assert wl.truth[t].black and wl.truth[t + 1].black
    edge_steps = [t for t in truth if t.edges]
    assert edge_steps and all(len(t.edges) <= len(workloads.EDGE_APPEAR_AT)
                              for t in edge_steps)


def test_translate_shift_is_canonical_ground_truth():
    wl = workloads.translate("t", 0, 64, 8, length=3)
    assert np.array_equal(wl.frames[1], np.roll(wl.frames[0], wl.truth[1].shift,
                                                axis=(0, 1)))


def _fake_fq(decide):
    """freqcache as the harness sees it, with ``decide`` replaced."""
    import freqcache
    import freqcache.records

    fake_fusion = types.SimpleNamespace(
        CacheConfig=fusion.CacheConfig, decide=decide, step=fusion.step,
        populate_cache=fusion.populate_cache,
        default_token_fn=fusion.default_token_fn)
    return types.SimpleNamespace(fusion=fake_fusion, records=freqcache.records)


def _run_stream(decide, wl):
    tally = checks.Tally()
    Stream(_fake_fq(decide), wl, tally, speed.Probes()).run(0.0, len(wl.frames) - 1)
    return tally


def _plant(t_bad, plant):
    def decide(prev, curr, cfg, step=0):
        d = fusion.decide(prev, curr, cfg, step=step)
        return plant(d) if step == t_bad else d
    return decide


def _small_edge_workload():
    wl = workloads.build("shots-224-p16", 0)
    return dataclasses.replace(wl, frames=wl.frames[:12], truth=wl.truth[:12])


def test_clean_run_has_no_errors():
    tally = _run_stream(fusion.decide, _small_edge_workload())
    assert tally.attempted == 11
    assert tally.error_rate == 0.0


def test_planted_reused_edge_patch_raises_error_rate():
    def reuse_an_edge(d):
        extra = d.refresh_set[0]
        reuse = d.reuse_set + (extra,)
        return dataclasses.replace(
            d, reuse_set=reuse, k_final=len(reuse), k_reuse=len(reuse),
            k_candidate=max(d.k_candidate, len(reuse)),
            recompute_set=tuple(p for p in d.recompute_set if p != extra))

    tally = _run_stream(_plant(5, reuse_an_edge), _small_edge_workload())
    assert tally.failed >= 1
    assert tally.error_rate > 0.0
    assert any("refresh set" in p for p in tally.problems)


def test_planted_non_partition_raises_error_rate():
    def drop_a_patch(d):
        return dataclasses.replace(d, recompute_set=d.recompute_set[1:])

    tally = _run_stream(_plant(3, drop_a_patch), _small_edge_workload())
    assert tally.error_rate > 0.0
    assert any("partition" in p for p in tally.problems)


def test_raising_call_counts_as_failed_frame_and_run_ends():
    def raise_at_4(prev, curr, cfg, step=0):
        if step == 4:
            raise RuntimeError("planted")
        return fusion.decide(prev, curr, cfg, step=step)

    tally = _run_stream(raise_at_4, _small_edge_workload())
    assert tally.attempted == 11 and tally.failed == 1
    assert "planted" in tally.problems[0]


def test_false_reuse_counts_cuts_and_edge_patches():
    d = types.SimpleNamespace(reuse_set=(1, 2, 3))
    assert checks.false_reuse(d, workloads.Truth(cut=True)) == 3
    assert checks.false_reuse(d, workloads.Truth(edges=frozenset({2, 9}))) == 1
    assert checks.false_reuse(d, workloads.Truth(shift=(0, 0))) == 0


def test_self_time_plus_children_equals_span_on_synthetic_trace():
    # decide [0, 100] with children fft [10, 30] and sim_freq [40, 55]; the
    # grandchild [12, 20] lies inside fft and must not be subtracted again.
    trace = [
        ["fusion.decide", 0, 100, -1, 0, None],
        ["fft.fft2", 10, 30, 0, 0, None],
        ["fft.inner", 12, 20, 1, 0, None],
        ["migration.sim_freq", 40, 55, 0, 0, None],
    ]
    kids = spans.children(trace)
    assert kids == {0: [1, 3], 1: [2]}
    own = spans.self_time_ns(trace, 0, kids)
    assert own == 65
    child_total = sum(trace[c][spans.END] - trace[c][spans.START] for c in kids[0])
    assert own + child_total == trace[0][spans.END] - trace[0][spans.START]
    assert spans.self_time_ns(trace, 1, kids) == 12


def test_tracer_wraps_where_callers_look_names_up_and_restores():
    original = migration.sim_freq
    tracer = spans.Tracer()
    tracer.wrap_everywhere(migration, "sim_freq", "migration.sim_freq")
    tracer.wrap_everywhere(fusion, "decide", "fusion.decide")
    tracer.wrap_everywhere(migration, "no_such_function", "migration.gone")
    try:
        assert fusion.sim_freq is not original
        frame = np.random.default_rng(0).random((32, 32))
        fusion.decide(frame, np.roll(frame, 1, axis=0), fusion.CacheConfig(patch_size=8))
    finally:
        tracer.restore()
    assert fusion.sim_freq is original and migration.sim_freq is original
    assert tracer.missing == ["migration.gone"]
    names = [s[spans.NAME] for s in tracer.spans]
    assert names == ["fusion.decide", "migration.sim_freq"]
    assert tracer.spans[1][spans.PARENT] == 0
