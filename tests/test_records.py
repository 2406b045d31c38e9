import json
import re

import pytest

from freqcache import CacheConfig, decide
from freqcache.records import (
    RECORD_KEYS,
    decision_record,
    read_decisions_jsonl,
    write_decisions_jsonl,
)
from freqcache.scenes import SceneSpec, generate_scene


def _decision():
    frames = generate_scene(
        SceneSpec(kind="translate", height=32, width=32, length=2, seed=0)
    ).frames
    return decide(frames[0], frames[1], CacheConfig(patch_size=8), step=1)


def test_record_keys_are_the_keys_decision_record_writes():
    d = _decision()
    assert list(decision_record(d)) == list(RECORD_KEYS)
    assert set(decision_record(d, include_timings=True)) == \
        set(RECORD_KEYS) | {"timings_us"}


def _decisions_file(tmp_path, bad_line):
    """A good record, a blank line, then ``bad_line`` as line 3."""
    path = tmp_path / "decisions.jsonl"
    write_decisions_jsonl(path, [_decision()])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(f"\n{bad_line}\n")
    return path


@pytest.mark.parametrize("line,message", [
    ("garbage", "not JSON: Expecting value at column 1"),
    ("[1, 2]", "expected a JSON object, got list"),
])
def test_line_that_is_not_a_json_object_names_file_and_line(tmp_path, line,
                                                             message):
    path = _decisions_file(tmp_path, line)
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: {message}")):
        read_decisions_jsonl(path)


def test_record_missing_a_key_names_file_and_line(tmp_path):
    path = _decisions_file(tmp_path, '{"step": 1}')
    with pytest.raises(ValueError,
                       match=re.escape(f"{path}:3: decision record lacks "
                                       "flushed, sim_freq, displacement")):
        read_decisions_jsonl(path)


@pytest.mark.parametrize("key,value,message", [
    ("reuse_set", [999], "reuse_set holds 999, not a patch index in "
     "[0, 16) of the 4x4 grid"),
    ("refresh_set", [-1], "refresh_set holds -1, not a patch index in "
     "[0, 16) of the 4x4 grid"),
    ("reuse_set", [1.5], "reuse_set holds 1.5, not a patch index"),
    ("reuse_set", 3, "reuse_set must be a list, got 3"),
    ("grid", {"rows": 0, "cols": 4}, "grid must hold positive integer "
     'rows and cols, got {"rows": 0, "cols": 4}'),
    ("grid", {"rows": 4}, "grid must hold positive integer rows and cols"),
    ("step", "1", 'step must be a non-negative integer, got "1"'),
    ("step", True, "step must be a non-negative integer, got true"),
    ("flushed", "false", 'flushed must be true or false, got "false"'),
    ("flushed", 0, "flushed must be true or false, got 0"),
    ("flushed", None, "flushed must be true or false, got null"),
], ids=["reuse-999", "refresh-negative", "float-index", "not-a-list",
        "zero-rows", "no-cols", "string-step", "bool-step", "string-flushed",
        "int-flushed", "null-flushed"])
def test_index_outside_the_grid_names_file_and_line(tmp_path, key, value,
                                                    message):
    rec = decision_record(_decision())
    rec[key] = value
    path = _decisions_file(tmp_path, json.dumps(rec))
    with pytest.raises(ValueError, match=re.escape(f"{path}:3: {message}")):
        read_decisions_jsonl(path)
