"""Output checks on decisions and cache steps, and the error tally.

A failed check marks its frame as failed; it never aborts the run. Each
check returns a list of short problem descriptions, empty when the output
is correct.
"""

import numpy as np


def check_decision(d, n_patches, truth, check_shift):
    """Problems with one ``CacheDecision`` against the invariants and the
    workload's ground truth for its step."""
    problems = []
    reuse = list(d.reuse_set)
    recompute = list(d.recompute_set)
    if sorted(reuse + recompute) != list(range(n_patches)):
        problems.append("reuse and recompute sets do not partition the patches")
    if not d.k_final == len(reuse) == min(d.k_reuse, d.k_candidate):
        problems.append("k_final != min(k_reuse, k_candidate)")
    refresh = set(d.refresh_set)
    dip, djp = d.displacement.di_patches, d.displacement.dj_patches
    for p in reuse:
        i, j = divmod(p, d.cols)
        if not (0 <= i - dip < d.rows and 0 <= j - djp < d.cols):
            problems.append(f"reused patch {p} has no aligned source")
        if p in refresh:
            problems.append(f"reused patch {p} is in the refresh set")
    if d.flushed and reuse:
        problems.append("flushed step reuses patches")
    if (check_shift and truth.shift is not None
            and (d.displacement.di, d.displacement.dj) != truth.shift):
        problems.append(f"displacement {(d.displacement.di, d.displacement.dj)} "
                        f"!= ground truth {truth.shift}")
    if truth.black and not d.flushed:
        problems.append("black-frame step was not flushed")
    return problems


def check_step(prev_cache, cache, report, d, n_patches):
    """Problems with the cache that ``step`` built from ``prev_cache``."""
    problems = []
    reused = () if prev_cache is None or d.flushed else d.reuse_set
    if (report.n_reused != len(reused)
            or report.n_reused + report.n_recomputed != n_patches):
        problems.append("step report counts disagree with the decision")
    ages = np.zeros(n_patches, dtype=np.int64)
    dip, djp = d.displacement.di_patches, d.displacement.dj_patches
    for p in reused:
        i, j = divmod(p, d.cols)
        si, sj = i - dip, j - djp
        if not (0 <= si < d.rows and 0 <= sj < d.cols):
            problems.append(f"reused slot {p} has no source slot")
            continue
        ages[p] = prev_cache.ages[si, sj] + 1
        if not np.array_equal(cache.tokens[i, j], prev_cache.tokens[si, sj]):
            problems.append(f"reused slot {p} differs from its source token")
    if not np.array_equal(cache.ages.ravel(), ages):
        problems.append("cache ages do not follow the decision")
    if not np.all(np.isfinite(cache.tokens)):
        problems.append("cache holds non-finite tokens")
    return problems


def false_reuse(d, truth):
    """Reused patches that ground truth says must be recomputed."""
    reuse = set(d.reuse_set)
    return len(reuse) if truth.cut else len(reuse & truth.edges)


class Tally:
    """Frames attempted and failed, with the first ten problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, where, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{where}: {'; '.join(problems)}")

    @property
    def error_rate(self):
        return self.failed / self.attempted if self.attempted else 0.0
