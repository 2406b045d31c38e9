"""Benchmark of freqcache on seeded frame-sequence workloads.

Started through run.py from the root of a source checkout; freqcache is
imported from its ``src`` directory and driven only through its public
calls::

    python3 perfbench/run.py --workload translate-448-p16 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

With ``--trace 0`` the run measures the end-to-end metrics untraced: the
set-up time, a closed-loop, single-client streaming loop (the next frame
goes in only after the previous ``step`` returned) and repeated in-process
``analyze`` jobs. With ``--trace 1`` it measures the streaming loop
untraced and then traced, and reports the per-layer metrics from the spans.
Every decision and cache step is checked; a failed check counts toward
``error_rate`` and never aborts the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Results with the
machine facts, and the spans of traced runs, are also written under
``.perfbench_out/`` in the checkout.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import spans as spanlib
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Streaming frames per run: p90 then has at least ten samples beyond it.
MIN_STREAM_FRAMES = 100
MIN_ANALYZE_JOBS = 3
# Streamed frames before and after each analyze job that give its scale.
ANALYZE_SCALE_FRAMES = 10
SETUP_REPEATS = 7
WARMUP_FRAMES = 3
# Shares of --seconds given to each measured phase.
UNTRACED_SHARES = {"stream": 0.55, "analyze": 0.45}
TRACED_SHARES = {"baseline": 0.3, "stream": 0.45, "analyze": 0.25}

END_TO_END_UNITS = {
    "decide_ms_p50": "ms", "decide_ms_p90": "ms",
    "frame_ms_p50": "ms", "frame_ms_p90": "ms",
    "analyze_fps": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
    "reuse_ratio": "ratio", "reuse_precision": "ratio",
    "false_reuse_ratio": "ratio", "error_rate": "ratio",
}

# Public functions traced per layer, each wrapped wherever it is bound.
LAYER_FUNCTIONS = {
    "fusion": ("decide", "step", "populate_cache", "topk_ascending"),
    "migration": ("sim_freq", "phase_correlation_spectra", "alignment_mask"),
    "edge_refresh": ("patch_energy", "refresh_mask"),
    "budget": ("spectral_entropy", "reuse_budget"),
    "frame": ("validate_frame",),
    "frameio": ("load_frames",),
    "records": ("write_decisions_jsonl", "write_metrics_csv"),
}
FFT_FUNCTIONS = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn", "rfft",
                 "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "dct", "idct",
                 "dctn", "idctn")

PER_LAYER_UNITS = {
    "fft.calls_per_frame": "count", "fft.ms_per_frame": "ms",
    "fft.bytes_per_frame": "B",
    "migration.sim_freq.ms": "ms", "migration.phase_correlation_spectra.ms": "ms",
    "migration.alignment_mask.ms": "ms", "edge_refresh.patch_energy.ms": "ms",
    "edge_refresh.refresh_mask.ms": "ms", "budget.spectral_entropy.ms": "ms",
    "budget.reuse_budget.ms": "ms",
    "fusion.decide.ms": "ms", "fusion.decide.self_ms": "ms",
    "fusion.topk_ascending.ms": "ms", "fusion.step.ms": "ms",
    "fusion.step.tokens_recomputed": "count", "fusion.step.tokens_reused": "count",
    "fusion.populate_cache.ms": "ms",
    "frame.validate_frame.calls_per_frame": "count",
    "frame.validate_frame.ms_per_frame": "ms",
    "migration.flush_ratio": "ratio", "migration.displacement_exact_ratio": "ratio",
    "edge_refresh.refresh_patches": "count", "budget.alpha_mean": "ratio",
    "frameio.load_frames.ms": "ms", "frameio.bytes_read": "B",
    "records.write_decisions_jsonl.ms": "ms", "records.write_metrics_csv.ms": "ms",
    "records.bytes_written": "B", "cli.analyze.ms": "ms",
    "trace.overhead_ratio": "ratio",
}


def import_freqcache():
    """Import freqcache from the checkout's own source tree."""
    if not (SRC / "freqcache" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no freqcache sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import freqcache
    import freqcache.cli
    import freqcache.records

    if Path(freqcache.__file__).resolve().parent != SRC / "freqcache":
        raise SystemExit(f"perfbench: imported freqcache from {freqcache.__file__}, "
                         f"not from {SRC}")
    return freqcache


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts():
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "commit": git_commit()}


def write_rawf32(path, frames):
    """The rawf32 container: magic, u32 height, width, count, float32 data."""
    h, w = frames[0].shape
    with open(path, "wb") as fh:
        fh.write(b"FQC1" + np.array([h, w, len(frames)], dtype="<u4").tobytes())
        for f in frames:
            fh.write(np.asarray(f, dtype="<f4").tobytes())


def fresh_processes(raw, patch_size, work):
    """Set-up seconds of SETUP_REPEATS fresh processes, each scaled by an
    import probe run right after it, and the peak memory in MB of the last
    one, which also streams one pass and runs one ``analyze`` job."""
    def child(*args):
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                              cwd=ROOT, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"child process failed: {proc.stderr.strip()}")
        return [float(x) for x in proc.stdout.split()]

    setup, setup_raw, rss = [], [], None
    for r in range(SETUP_REPEATS):
        argv = ["setup", str(SRC), str(raw), str(patch_size)]
        if r == SETUP_REPEATS - 1:
            argv.append(str(work / "child-analyze"))
        out = child(*argv)
        setup_raw.append(out[0])
        setup.append(out[0] * speed.factor("import", child("reference")))
        if len(out) > 1:
            rss = out[1]
    return setup, setup_raw, rss


def decision_line(fq, d):
    return json.dumps(fq.records.decision_record(d))


class Stream:
    """Closed-loop, single-client streaming loop over one workload.

    The workload is replayed in passes, each from a cold cache built by
    ``populate_cache`` on its first frame; the cold start is not a timed
    frame. The first pass's decisions are the reference that later passes
    and the ``analyze`` records must equal.
    """

    def __init__(self, fq, wl, tally, probes):
        self.fq, self.wl, self.tally, self.probes = fq, wl, tally, probes
        self.cfg = fq.fusion.CacheConfig(patch_size=wl.patch_size)
        steps = len(wl.frames) - 1
        self.reference = [None] * steps   # first decision line of each step
        self.first_pass = [None] * steps  # first decision of each step

    def run(self, budget_s, min_frames, tracer=None):
        """Time frames until ``budget_s`` has passed and at least
        ``min_frames`` were attempted.

        Returns the raw ``decide`` and ``step`` seconds of each timed frame,
        the probe times taken right after it, and the step it was.
        """
        fusion, wl, probes = self.fq.fusion, self.wl, self.probes
        frames = wl.frames
        out = {"decide": [], "step": [], "t": []}
        start = {kind: len(v) for kind, v in probes.samples.items()}
        attempted = 0
        deadline = time.perf_counter() + budget_s
        while True:
            cache = fusion.populate_cache(frames[0], wl.patch_size,
                                          fusion.default_token_fn)
            for t in range(1, len(frames)):
                if attempted >= min_frames and time.perf_counter() >= deadline:
                    for kind, v in probes.samples.items():
                        out[kind] = v[start[kind]:]
                    return out
                attempted += 1
                prev_cache = cache
                if tracer is not None:
                    tracer.frame = len(out["t"])
                try:
                    t0 = time.perf_counter()
                    d = fusion.decide(frames[t - 1], frames[t], self.cfg, step=t)
                    t1 = time.perf_counter()
                    cache, report = fusion.step(cache, d, frames[t],
                                                fusion.default_token_fn)
                    t2 = time.perf_counter()
                except Exception as exc:  # counted as a failed frame
                    if tracer is not None:
                        tracer.frame = -1
                    self.tally.add(f"stream step {t}", [f"raised {exc!r}"])
                    cache = None
                    continue
                if tracer is not None:
                    tracer.frame = -1
                out["decide"].append(t1 - t0)
                out["step"].append(t2 - t1)
                out["t"].append(t)
                self.tally.add(f"stream step {t}", self._check(t, d, prev_cache,
                                                              cache, report))
                probes.sample()

    def _check(self, t, d, prev_cache, cache, report):
        wl = self.wl
        problems = checks.check_decision(d, wl.n_patches, wl.truth[t],
                                         wl.check_shift)
        problems += checks.check_step(prev_cache, cache, report, d, wl.n_patches)
        line = decision_line(self.fq, d)
        if self.reference[t - 1] is None:
            self.reference[t - 1] = line
            self.first_pass[t - 1] = d
        elif line != self.reference[t - 1]:
            problems.append("decision differs from the first pass")
        return problems

    def digest(self):
        """SHA-256 of the first pass's decisions in decisions.jsonl form."""
        text = "".join(f"{line}\n" for line in self.reference)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()

    def quality(self):
        """Reuse and ground-truth counts over the first pass."""
        wl = self.wl
        ds = [d for d in self.first_pass if d is not None]
        reused = sum(len(d.reuse_set) for d in ds)
        false = sum(checks.false_reuse(d, wl.truth[d.step]) for d in ds)
        known = [d for d in ds if wl.truth[d.step].shift is not None]
        exact = sum((d.displacement.di, d.displacement.dj) == wl.truth[d.step].shift
                    for d in known)
        return {
            "steps": len(ds), "patch_decisions": len(ds) * wl.n_patches,
            "reused": reused, "false_reused": false,
            "flushed": sum(d.flushed for d in ds),
            "shift_known": len(known), "shift_exact": exact,
            "refresh_patches": sum(len(d.refresh_set) for d in ds),
            "alpha_sum": sum(d.alpha_t for d in ds),
        }


def scaled_ms(frames):
    """Per-frame ``decide`` and whole-frame times in ms, each part scaled by
    its probe (see speed.py)."""
    spectral = speed.windowed_factors("spectral", frames["spectral"])
    token = speed.windowed_factors("token", frames["token"])
    decide = [d * f * 1e3 for d, f in zip(frames["decide"], spectral)]
    frame = [dm + s * f * 1e3 for dm, s, f in zip(decide, frames["step"], token)]
    return decide, frame


def stream_scale(stream):
    """Scaled over raw time of ANALYZE_SCALE_FRAMES streamed frames: the
    factor that scales an ``analyze`` job run next to them."""
    frames = stream.run(0.0, ANALYZE_SCALE_FRAMES)
    raw_ms = sum(frames["decide"]) * 1e3 + sum(frames["step"]) * 1e3
    return _ratio(sum(scaled_ms(frames)[1]), raw_ms)


def run_analyze(fq, stream, raw, work, budget_s, min_jobs, tracer=None):
    """Repeat an in-process ``analyze`` job until ``budget_s`` has passed and
    ``min_jobs`` ran.

    Returns the decision steps per second of each job, raw and scaled. An
    ``analyze`` job runs the same decide and step calls as the stream, so
    it is scaled like the streamed frames just before and after it.
    """
    wl, tally = stream.wl, stream.tally
    out = work / "analyze"
    argv = ["analyze", "--input", str(raw), "--format", "rawf32",
            "--out-dir", str(out), "--patch-size", str(wl.patch_size)]
    steps = len(wl.frames) - 1
    fps, fps_raw = [], []
    jobs = 0
    deadline = time.perf_counter() + budget_s
    while jobs < min_jobs or time.perf_counter() < deadline:
        jobs += 1
        before = stream_scale(stream)
        try:
            t0 = time.perf_counter_ns()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = fq.cli.main(argv)
            t1 = time.perf_counter_ns()
            lines = (out / "decisions.jsonl").read_text(encoding="utf-8").splitlines()
        except Exception as exc:  # every step of the job counts as failed
            for t in range(1, steps + 1):
                tally.add(f"analyze job {jobs} step {t}", [f"raised {exc!r}"])
            continue
        if tracer is not None:
            tracer.record("cli.analyze", t0, t1)
        after = stream_scale(stream)
        fps_raw.append(steps / ((t1 - t0) / 1e9))
        if before and after:
            fps.append(fps_raw[-1] * 2.0 / (before + after))
        for t in range(1, steps + 1):
            problems = [] if rc == 0 else [f"analyze exited with {rc}"]
            if t > len(lines) or lines[t - 1] != stream.reference[t - 1]:
                problems.append("analyze record differs from the streaming decision")
            tally.add(f"analyze job {jobs} step {t}", problems)
    return fps, fps_raw


def _array_bytes(args, kwargs, result):
    first = args[0] if args else kwargs.get("x")
    return {"bytes": int(np.asarray(first).nbytes) + int(np.asarray(result).nbytes)}


def _step_counts(args, kwargs, result):
    return {"reused": result[1].n_reused, "recomputed": result[1].n_recomputed}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def install_tracer(fq, tracer):
    """Wrap scipy.fft's transforms and each layer's public functions."""
    import scipy.fft

    for name in FFT_FUNCTIONS:
        tracer.wrap_everywhere(scipy.fft, name, f"fft.{name}", _array_bytes)
    attrs = {"step": _step_counts, "load_frames": _file_bytes,
             "write_decisions_jsonl": _file_bytes, "write_metrics_csv": _file_bytes}
    for layer, names in LAYER_FUNCTIONS.items():
        module = getattr(fq, layer, None)
        for name in names:
            if module is None:
                tracer.missing.append(f"{layer}.{name}")
            else:
                tracer.wrap_everywhere(module, name, f"{layer}.{name}",
                                       attrs.get(name))


def _median_or_none(values):
    return statistics.median(values) if values else None


def layer_metrics(tracer, frame_steps, quality, overhead):
    """Per-layer metrics from the spans of a traced run.

    ``frame_steps[k]`` is the workload step that timed frame ``k`` was.
    Times are medians over all timed frames or calls; counts and bytes are
    means over one pass, the first timed frame of every step, so that they
    repeat exactly from run to run.
    """
    S = spanlib
    spans = tracer.spans
    kids = spanlib.children(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[S.NAME], []).append(i)
    first = {}
    for k, t in enumerate(frame_steps):
        first.setdefault(t, k)
    one_pass = sorted(first.values())

    def ms(i):
        return (spans[i][S.END] - spans[i][S.START]) / 1e6

    def per_call_ms(name, framed=True):
        return _median_or_none([ms(i) for i in by_name.get(name, ())
                                if not framed or spans[i][S.FRAME] >= 0])

    def per_frame(indices, value):
        totals = [0.0] * len(frame_steps)
        for i in indices:
            if spans[i][S.FRAME] >= 0:
                totals[spans[i][S.FRAME]] += value(i)
        return totals

    def has(indices, key):
        return bool(indices) and all(key in (spans[i][S.ATTRS] or {}) for i in indices)

    def pass_mean(indices, key=None):
        if not one_pass or not indices or (key and not has(indices, key)):
            return None
        totals = per_frame(indices, lambda i: spans[i][S.ATTRS][key] if key else 1)
        return statistics.mean(totals[k] for k in one_pass)

    def per_job(indices):
        jobs = len(by_name.get("cli.analyze", ()))
        if not jobs or not has(indices, "bytes"):
            return None
        return sum(spans[i][S.ATTRS]["bytes"] for i in indices) / jobs

    fft = [i for name, idx in by_name.items() if name.startswith("fft.")
           for i in idx
           if spans[i][S.PARENT] < 0
           or not spans[spans[i][S.PARENT]][S.NAME].startswith("fft.")]
    validate = by_name.get("frame.validate_frame", [])
    steps = by_name.get("fusion.step", [])
    decides = [i for i in by_name.get("fusion.decide", ()) if spans[i][S.FRAME] >= 0]
    q = quality
    m = {
        "fft.calls_per_frame": pass_mean(fft),
        "fft.ms_per_frame": _median_or_none(per_frame(fft, ms)) if fft else None,
        "fft.bytes_per_frame": pass_mean(fft, "bytes"),
        "fusion.decide.self_ms": _median_or_none(
            [spanlib.self_time_ns(spans, i, kids) / 1e6 for i in decides]),
        "fusion.step.tokens_recomputed": pass_mean(steps, "recomputed"),
        "fusion.step.tokens_reused": pass_mean(steps, "reused"),
        "fusion.populate_cache.ms": per_call_ms("fusion.populate_cache", False),
        "frame.validate_frame.calls_per_frame": pass_mean(validate),
        "frame.validate_frame.ms_per_frame": (
            _median_or_none(per_frame(validate, ms)) if validate else None),
        "migration.flush_ratio": _ratio(q["flushed"], q["steps"]),
        "migration.displacement_exact_ratio": _ratio(q["shift_exact"], q["shift_known"]),
        "edge_refresh.refresh_patches": _ratio(q["refresh_patches"], q["steps"]),
        "budget.alpha_mean": _ratio(q["alpha_sum"], q["steps"]),
        "frameio.bytes_read": per_job(by_name.get("frameio.load_frames", [])),
        "records.bytes_written": per_job(
            by_name.get("records.write_decisions_jsonl", [])
            + by_name.get("records.write_metrics_csv", [])),
        "trace.overhead_ratio": overhead,
    }
    for name in ("migration.sim_freq", "migration.phase_correlation_spectra",
                 "migration.alignment_mask", "edge_refresh.patch_energy",
                 "edge_refresh.refresh_mask", "budget.spectral_entropy",
                 "budget.reuse_budget", "fusion.decide", "fusion.topk_ascending",
                 "fusion.step"):
        m[f"{name}.ms"] = per_call_ms(name)
    for name in ("frameio.load_frames", "records.write_decisions_jsonl",
                 "records.write_metrics_csv", "cli.analyze"):
        m[f"{name}.ms"] = per_call_ms(name, framed=False)
    return {k: m[k] for k in PER_LAYER_UNITS}


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q)) if values else None


def _ratio(num, den):
    return num / den if den else None


def measure(name, seed, seconds, trace):
    fq = import_freqcache()
    wl = workloads.build(name, seed)
    tally = checks.Tally()
    stream = Stream(fq, wl, tally, speed.Probes())
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        raw = work / "frames.rawf32"
        write_rawf32(raw, wl.frames)
        if trace:
            result = measure_traced(fq, stream, raw, work, seconds)
        else:
            result = measure_untraced(fq, stream, raw, work, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["samples"]["frames_attempted"] = tally.attempted
    result.update(
        info={"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "frames": len(wl.frames), "height": wl.shape[0],
              "width": wl.shape[1], "patch_size": wl.patch_size,
              "patches": wl.n_patches},
        digest=stream.digest(), quality=stream.quality(), tally=tally)
    return result


def measure_untraced(fq, stream, raw, work, seconds):
    setup, setup_raw, rss = fresh_processes(raw, stream.wl.patch_size, work)
    stream.run(0.0, WARMUP_FRAMES)
    frames = stream.run(seconds * UNTRACED_SHARES["stream"], MIN_STREAM_FRAMES)
    decide_ms, frame_ms = scaled_ms(frames)
    fps, fps_raw = run_analyze(fq, stream, raw, work,
                               seconds * UNTRACED_SHARES["analyze"],
                               MIN_ANALYZE_JOBS)
    q = stream.quality()
    metrics = {
        "decide_ms_p50": percentile(decide_ms, 50),
        "decide_ms_p90": percentile(decide_ms, 90),
        "frame_ms_p50": percentile(frame_ms, 50),
        "frame_ms_p90": percentile(frame_ms, 90),
        "analyze_fps": _median_or_none(fps),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        "reuse_ratio": _ratio(q["reused"], q["patch_decisions"]),
        "reuse_precision": 1.0 - q["false_reused"] / q["reused"] if q["reused"] else 1.0,
        "false_reuse_ratio": _ratio(q["false_reused"], q["reused"]) or 0.0,
        "error_rate": stream.tally.error_rate,
    }
    raw_frame_ms = [(d + s) * 1e3 for d, s in zip(frames["decide"], frames["step"])]
    unscaled = {
        "decide_ms_p50": percentile([d * 1e3 for d in frames["decide"]], 50),
        "frame_ms_p50": percentile(raw_frame_ms, 50),
        "analyze_fps": _median_or_none(fps_raw),
        "setup_s": statistics.median(setup_raw),
        "spectral_probe_ms": percentile([p * 1e3 for p in frames["spectral"]], 50),
        "token_probe_ms": percentile([p * 1e3 for p in frames["token"]], 50),
    }
    samples = {"stream_frames": len(frame_ms), "analyze_jobs": len(fps),
               "setup_processes": len(setup)}
    return {"metrics": metrics, "unscaled": unscaled, "samples": samples,
            "missing": []}


def measure_traced(fq, stream, raw, work, seconds):
    stream.run(0.0, WARMUP_FRAMES)
    one_pass = len(stream.wl.frames) - 1
    _, untraced = scaled_ms(stream.run(seconds * TRACED_SHARES["baseline"], one_pass))
    tracer = spanlib.Tracer()
    install_tracer(fq, tracer)
    try:
        frames = stream.run(seconds * TRACED_SHARES["stream"], one_pass, tracer)
        fps, _ = run_analyze(fq, stream, raw, work, seconds * TRACED_SHARES["analyze"],
                             1, tracer)
    finally:
        tracer.restore()
    _, traced = scaled_ms(frames)
    (OUT / "spans").mkdir(exist_ok=True)
    wl = stream.wl
    tracer.write(OUT / "spans" / f"{wl.name}-seed{wl.seed}.jsonl")
    overhead = _ratio(_median_or_none(traced), _median_or_none(untraced))
    metrics = layer_metrics(tracer, frames["t"], stream.quality(), overhead)
    samples = {"untraced_frames": len(untraced), "traced_frames": len(traced),
               "analyze_jobs": len(fps), "spans": len(tracer.spans)}
    return {"metrics": metrics, "unscaled": {}, "samples": samples,
            "missing": sorted(set(tracer.missing))}


def _shown(value):
    return "MISSING" if value is None else f"{value:.6g}"


def report(result, units, machine):
    info, m, q, tally = (result["info"], result["metrics"], result["quality"],
                         result["tally"])
    print(f"perfbench {info['workload']} seed={info['seed']} "
          f"seconds={info['seconds']} trace={info['trace']}")
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(f"workload: {info['frames']} frames of {info['height']}x{info['width']}, "
          f"P={info['patch_size']}, {info['patches']} patches per frame")
    print("samples: " + " ".join(f"{k}={v}" for k, v in result["samples"].items()))
    print(f"decisions sha256 (first pass, decisions.jsonl form): {result['digest']}")
    for name, value in m.items():
        print(f"  {name:40s} {_shown(value):>14s} {units[name]}")
    if result["unscaled"]:
        print("unscaled wall-clock figures (the times and analyze_fps above "
              "are scaled by the speed probes): "
              + " ".join(f"{k}={_shown(v)}" for k, v in result["unscaled"].items()))
    else:
        print("span times are unscaled wall-clock; fft bytes are computed from "
              "array sizes (input plus output nbytes)")
        print("missing spans: " + (", ".join(result["missing"]) or "none"))
    print(f"reuse: {q['reused']} of {q['patch_decisions']} patch decisions reused, "
          f"{q['false_reused']} of them false by ground truth; "
          f"{q['flushed']} of {q['steps']} steps flushed")
    print(f"checks: {tally.failed} of {tally.attempted} frames failed")
    for problem in tally.problems:
        print(f"  {problem}")


def run_one(args):
    result = measure(args.workload, args.seed, args.seconds, args.trace)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    machine = machine_facts()
    report(result, units, machine)
    tally = result["tally"]
    metrics = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    (OUT / "results").mkdir(exist_ok=True)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}.json"
    saved = json.loads(path.read_text()) if path.is_file() else {}
    saved.update({"machine": machine, "workload": result["info"],
                  "decisions_sha256": result["digest"]})
    saved["per_layer" if args.trace else "end_to_end"] = {
        "metrics": metrics, "unscaled": result["unscaled"],
        "samples": result["samples"],
        "missing_spans": result["missing"], "quality": result["quality"],
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems}
    path.write_text(json.dumps(saved, indent=2) + "\n")
    # A missing span leaves a per-layer metric empty; that is not an error.
    correct = tally.failed == 0 and bool(
        args.trace or all(v is not None for v in result["metrics"].values()))
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args):
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True,
            timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench: workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(workloads.WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)

