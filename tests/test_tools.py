"""The revision-comparing tools refuse bad revisions with one line.

Every run here names at least one revision that is not a commit, so
neither tool gets as far as exporting a tree or starting perfbench. The
last tests hand ``ab_bench`` result lines directly.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BAD = "no-such-revision"
PR = "999999"


def run_tool(tool, cwd, *args):
    # Keep git from finding a repository above ``cwd`` or through the
    # environment.
    env = {k: v for k, v in os.environ.items() if not k.startswith("GIT_")}
    env["GIT_CEILING_DIRECTORIES"] = str(Path(cwd).parent)
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / f"{tool}.py"), *args],
        cwd=cwd, env=env, stdin=subprocess.DEVNULL, capture_output=True,
        text=True, timeout=60)


def tool_args(tool, work):
    args = ["--parent", "HEAD", "--change", BAD]
    if tool == "ab_bench":
        args += ["--pr", PR, "--work", str(work)]
    return args


def assert_one_line(proc, tool, message):
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [f"{tool}: {message}"]


def in_checkout():
    return subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=ROOT,
                          capture_output=True).returncode == 0


@pytest.mark.parametrize("tool", ["ab_bench", "same_outputs"])
def test_bad_revision_in_the_checkout(tmp_path, tool):
    top_before = sorted(p.name for p in ROOT.iterdir())
    proc = run_tool(tool, ROOT, *tool_args(tool, tmp_path / "work"))
    message = (f"{BAD} is not a commit of this repository" if in_checkout()
               else "not inside a git repository")
    assert_one_line(proc, tool, message)
    assert sorted(p.name for p in ROOT.iterdir()) == top_before
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("tool", ["ab_bench", "same_outputs"])
def test_outside_any_repository(tmp_path, tool):
    cwd = tmp_path / "outside"
    cwd.mkdir()
    proc = run_tool(tool, cwd, *tool_args(tool, cwd / "work"))
    assert_one_line(proc, tool, "not inside a git repository")
    assert list(cwd.iterdir()) == []


def test_ab_bench_work_directory_that_exists(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    proc = run_tool("ab_bench", ROOT, *tool_args("ab_bench", work))
    assert_one_line(proc, "ab_bench", f"--work {work} already exists")
    assert list(work.iterdir()) == []


def test_export_from_a_subdirectory_holds_the_whole_tree(
        monkeypatch, tmp_path):
    if not (ROOT / ".git").exists():
        pytest.skip("needs the git checkout of this tree")
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    monkeypatch.chdir(ROOT / "tools")
    import revisions

    top, (head,) = revisions.resolve("test", ["HEAD"])
    revisions.export(top, head, tmp_path / "tree")
    assert (tmp_path / "tree" / "src" / "freqcache" / "__init__.py").is_file()


def result_line(**values):
    metrics = {key: {"value": value, "unit": "MB"} for key, value in values.items()}
    return json.dumps({"correct": 1, "failed": 0, "metrics": metrics})


@pytest.fixture
def ab_bench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import ab_bench

    return ab_bench


@pytest.mark.parametrize("line,message", [
    (result_line(**{"shots-224-p16/peak_rss_mb": None}),
     "shots-224-p16 peak_rss_mb is null, not a finite number"),
    (result_line(**{"shots-224-p16/peak_rss_mb": 86.9,
                    "translate-448-p16/frameio.bytes_read": float("nan")}),
     "translate-448-p16 frameio.bytes_read is NaN, not a finite number"),
    (result_line(**{"shots-224-p16/setup_s": float("-inf")}),
     "shots-224-p16 setup_s is -Infinity, not a finite number"),
    (result_line(**{"shots-224-p16/setup_s": True}),
     "shots-224-p16 setup_s is true, not a finite number"),
    ('{"metrics": {}, "note": NaN}',
     "the result line holds NaN, which is not strict JSON"),
    ("shutting down", "the last stdout line is not a result: 'shutting down'"),
])
def test_ab_bench_refuses_a_bad_result_line(ab_bench, capsys, line, message):
    with pytest.raises(SystemExit) as exit_info:
        ab_bench.checked_result(line, "perfbench in T seed 1 trace 1")
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == (
        f"ab_bench: perfbench in T seed 1 trace 1: {message}\n")


def test_ab_bench_takes_a_good_result_line(ab_bench):
    line = result_line(**{"shots-224-p16/peak_rss_mb": 86.9,
                          "shots-224-p16/fusion.step.tokens_reused": 88})
    assert ab_bench.checked_result(line, "here") == json.loads(line)


@pytest.mark.parametrize("stdout,message", [
    ("perfbench translate-448-p16 seed=1 seconds=25 trace=1\n",
     "the last stdout line is not a result: "
     "'perfbench translate-448-p16 seed=1 seconds=25 trace=1'"),
    (result_line(**{"fft.ms_per_frame": None}) + "\n",
     "fft.ms_per_frame is null, not a finite number"),
])
def test_ab_bench_refuses_a_solo_run_that_exits_0_without_a_result(
        ab_bench, monkeypatch, capsys, stdout, message):
    def finished(argv, **kwargs):
        assert argv[1:] == ["perfbench/run.py", "--workload",
                            "translate-448-p16", "--seed", "1", "--trace", "1"]
        return subprocess.CompletedProcess(argv, 0, stdout, "")

    monkeypatch.setattr(ab_bench.subprocess, "run", finished)
    with pytest.raises(SystemExit) as exit_info:
        ab_bench.run_perfbench(Path("T"), "translate-448-p16", 1, 1)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err == (
        f"ab_bench: perfbench translate-448-p16 in T seed 1 trace 1: {message}\n")


def test_near_constant_scene_holds_what_it_names(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import numpy as np
    import same_outputs
    from freqcache import fusion
    from freqcache.frameio import load_frames

    same_outputs.write_near_constant(tmp_path / "scene.fqc")
    frames = load_frames(tmp_path / "scene.fqc")
    for t in (0, 3, 6):
        flat, nudged = frames[t], frames[t + 1]
        assert np.ptp(flat) == 0.0
        moved = np.flatnonzero(nudged != flat)
        assert moved.size == 1
        level = np.float32(flat.flat[0])
        assert np.float32(nudged.flat[moved[0]]) == np.nextafter(
            level, np.float32(np.inf))
    deep = frames[9]
    assert 0.0 < np.ptp(deep) <= 3 * np.spacing(np.float32(4096.0))
    # every frame's constant flag, read from its min and max, is the exact one
    for t in range(len(frames)):
        constant = np.ptp(frames[t]) == 0.0
        assert fusion._analyse(frames[t]).constant == constant


def test_same_outputs_rejected_runs_print_one_line(monkeypatch, tmp_path,
                                                   capsys):
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    import same_outputs
    from freqcache.cli import main

    monkeypatch.chdir(tmp_path)
    scene, patch_size = same_outputs.SCENES[same_outputs.CRITERION_7]
    main(dict(same_outputs.commands(scene, patch_size))["synth"])
    for name, (config, _) in same_outputs.REJECTED.items():
        Path(f"{name}.cfg").write_text(config)
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(same_outputs.rejected_argv(name))
        assert exit_info.value.code == 2, name
        err = capsys.readouterr().err
        assert err.startswith("freqcache: error: "), name
        assert len(err.splitlines()) == 1, name
        assert not Path(name).exists(), name


def synthetic_runs(metric, parent, change):
    """An ``ab_bench`` runs dict of one workload ``w`` whose ``metric``
    reads ``parent[i]`` and ``change[i]`` on pair i."""
    def side(values):
        return [{"result": {"failed": 0,
                            "metrics": {f"w/{metric}": {"value": v}}},
                 "sha256": {"w": "same"}} for v in values]

    return {"parent": side(parent), "change": side(change)}


PARENT_FPS = [600.0 + 3.0 * k for k in range(10)]  # quartiles 605.25, 621.75


@pytest.mark.parametrize("metric,better,bound,change,gain,within", [
    # ten wins by more than the parent's IQR of 16.5
    ("analyze_fps", "higher", 0.25, [v + 20.0 for v in PARENT_FPS],
     True, True),
    # nine wins and one loss still meet the rule
    ("analyze_fps", "higher", 0.25,
     [v + 20.0 for v in PARENT_FPS[:9]] + [PARENT_FPS[9] - 1.0], True, True),
    # eight wins and two ties do not
    ("analyze_fps", "higher", 0.25,
     [v + 20.0 for v in PARENT_FPS[:8]] + PARENT_FPS[8:], False, True),
    # ten wins by less than the IQR
    ("analyze_fps", "higher", 0.25, [v + 5.0 for v in PARENT_FPS],
     False, True),
    # 20% fewer frames per second is inside a 0.25 bound
    ("analyze_fps", "higher", 0.25, [v * 0.8 for v in PARENT_FPS],
     False, True),
    # and 30% fewer is not
    ("analyze_fps", "higher", 0.25, [v * 0.7 for v in PARENT_FPS],
     False, False),
    # a time 10% higher is inside a 0.15 bound, 20% higher is not
    ("decide_ms_p50", "lower", 0.15, [v * 1.1 for v in PARENT_FPS],
     False, True),
    ("decide_ms_p50", "lower", 0.15, [v * 1.2 for v in PARENT_FPS],
     False, False),
    # a lower time wins
    ("decide_ms_p50", "lower", 0.15, [v - 20.0 for v in PARENT_FPS],
     True, True),
])
def test_ab_bench_states_the_verdicts(ab_bench, metric, better, bound,
                                      change, gain, within):
    runs = synthetic_runs(metric, PARENT_FPS, change)
    summary = ab_bench.summarise(
        runs, [{"name": metric, "better": better, "bound": bound}])
    stats = summary["w"][metric]
    assert stats["parent_iqr"] == 16.5
    assert stats["pairs"] == 10
    assert stats["gain_rule_met"] is gain
    assert stats["within_bound"] is within


def test_ab_bench_interleaves_the_traced_pairs(ab_bench, monkeypatch):
    order = []

    def solo(tree, workload, seed, trace):
        order.append((str(tree), workload, seed, trace))
        return {"solo": workload}

    def paired(tree, seed, trace=0):
        order.append((str(tree), seed, trace))
        return {"seed": seed}, {"w": f"{tree}{seed}"}, {}

    monkeypatch.setattr(ab_bench, "run_perfbench", solo)
    monkeypatch.setattr(ab_bench, "perfbench", paired)
    trees = {"parent": "P", "change": "C"}
    solo_lines, runs, traced, held = ab_bench.measure(
        trees, [{"name": "w1"}, {"name": "w2"}])

    def pair(seed, parent_first, trace=0):
        sides = ("P", "C") if parent_first else ("C", "P")
        return [(side, seed, trace) for side in sides]

    assert order == [
        ("P", "w1", 1, 1), ("P", "w2", 1, 1),
        ("C", "w1", 1, 1), ("C", "w2", 1, 1),
        *pair(1, True), *pair(2, False), *pair(3, True), *pair(1, True, 1),
        *pair(4, False), *pair(5, True), *pair(6, False), *pair(2, False, 1),
        *pair(7, True), *pair(8, False), *pair(9, True), *pair(3, True, 1),
        *pair(10, False), *pair(1000, True)]
    assert solo_lines == {side: {"w1": {"solo": "w1"}, "w2": {"solo": "w2"}}
                          for side in ("parent", "change")}
    for side, tree in trees.items():
        assert [r["seed"] for r in runs[side]] == list(range(1, 11))
        assert [r["result"]["seed"] for r in traced[side]] == [1, 2, 3]
        assert traced[side][0]["sha256"] == {"w": f"{tree}1"}
        assert held[side]["seed"] == 1000
