"""Serialization of decisions and sequence metrics.

Decisions go to JSON Lines (one object per step); aggregate metrics go to a
CSV stream with a fixed header. Stage timings are measured wall-clock and
therefore vary run to run, so they are only written when explicitly
requested; everything else is deterministic for identical inputs.
"""

import csv
import json

from .fusion import modeled_latency_ms

METRICS_HEADER = ["step", "reuse_ratio", "sim_freq", "entropy", "alpha",
                  "latency_model_ms"]
# The keys of every decision record; ``timings_us`` is written on request.
RECORD_KEYS = ("step", "flushed", "sim_freq", "displacement", "entropy",
               "alpha", "k_reuse", "k_candidate", "k_final", "reuse_set",
               "grid", "refresh_set", "diagnostic")


def decision_record(decision, include_timings=False):
    """Plain-dict form of a decision, matching the JSONL schema."""
    rec = {
        "step": decision.step,
        "flushed": decision.flushed,
        "sim_freq": decision.sim_freq,
        "displacement": {
            "di": decision.displacement.di,
            "dj": decision.displacement.dj,
            "di_p": decision.displacement.di_patches,
            "dj_p": decision.displacement.dj_patches,
        },
        "entropy": {
            "raw": decision.entropy.raw,
            "normalized": decision.entropy.normalized,
        },
        "alpha": decision.alpha_t,
        "k_reuse": decision.k_reuse,
        "k_candidate": decision.k_candidate,
        "k_final": decision.k_final,
        "reuse_set": list(decision.reuse_set),
        "grid": {"rows": decision.rows, "cols": decision.cols},
        "refresh_set": list(decision.refresh_set),
        "diagnostic": decision.diagnostic,
    }
    if include_timings:
        rec["timings_us"] = {k: int(v) for k, v in decision.timings_us.items()}
    return rec


def write_decisions_jsonl(path, decisions, include_timings=False):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for d in decisions:
            fh.write(json.dumps(decision_record(d, include_timings)))
            fh.write("\n")


def read_decisions_jsonl(path):
    """The records of a decisions JSONL file, skipping blank lines.

    A line that is not a JSON object holding every key in
    :data:`RECORD_KEYS`, whose ``step`` is not a non-negative integer unique
    in the file, whose ``flushed`` is not a JSON boolean, whose ``grid`` is
    not positive integer ``rows`` and ``cols``, or whose ``reuse_set`` or
    ``refresh_set`` holds anything but patch indices of that grid, raises
    ValueError starting with ``path:line:``.
    """
    records = []
    step_lines = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: not JSON: {exc.msg} at "
                                 f"column {exc.colno}") from None
            if not isinstance(rec, dict):
                raise ValueError(f"{path}:{lineno}: expected a JSON object, "
                                 f"got {type(rec).__name__}")
            missing = [key for key in RECORD_KEYS if key not in rec]
            if missing:
                raise ValueError(f"{path}:{lineno}: decision record lacks "
                                 f"{', '.join(missing)}")
            step = rec["step"]
            if not (type(step) is int and step >= 0):
                raise ValueError(f"{path}:{lineno}: step must be a "
                                 f"non-negative integer, got {json.dumps(step)}")
            if type(rec["flushed"]) is not bool:
                raise ValueError(f"{path}:{lineno}: flushed must be true or "
                                 f"false, got {json.dumps(rec['flushed'])}")
            _check_indices(rec, f"{path}:{lineno}")
            if step in step_lines:
                raise ValueError(f"{path}:{lineno}: step {step} repeats line "
                                 f"{step_lines[step]}")
            step_lines[step] = lineno
            records.append(rec)
    return records


def _check_indices(rec, where):
    """Raise ValueError at ``where`` unless ``rec``'s grid is positive integer
    rows and cols and its reuse and refresh sets list indices of it."""
    grid = rec["grid"]
    rows, cols = ((grid.get("rows"), grid.get("cols"))
                  if isinstance(grid, dict) else (None, None))
    if not all(type(v) is int and v > 0 for v in (rows, cols)):
        raise ValueError(f"{where}: grid must hold positive integer rows and "
                         f"cols, got {json.dumps(grid)}")
    n = rows * cols
    for key in ("reuse_set", "refresh_set"):
        indices = rec[key]
        if not isinstance(indices, list):
            raise ValueError(f"{where}: {key} must be a list, got "
                             f"{json.dumps(indices)}")
        bad = [i for i in indices if not (type(i) is int and 0 <= i < n)]
        if bad:
            raise ValueError(f"{where}: {key} holds {json.dumps(bad[0])}, not "
                             f"a patch index in [0, {n}) of the "
                             f"{rows}x{cols} grid")


def metrics_rows(report):
    """CSV rows (one per decision step) for a sequence report."""
    return [[d.step, d.k_final / report.n_tokens, d.sim_freq,
             d.entropy.normalized, d.alpha_t,
             modeled_latency_ms(report.n_tokens - d.k_final)]
            for d in report.decisions]


def write_metrics_csv(path, report):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(METRICS_HEADER)
        writer.writerows(metrics_rows(report))
