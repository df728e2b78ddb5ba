"""Bench the incremental lint cache against a cold full run.

The claim under test (ISSUE 10, satellite 1): with the content-hash
cache (:mod:`repro.lint.cache`) a warm ``repro lint`` over an unchanged
tree - which hashes every source file, hits the run-layer entry, and
re-applies only the baseline - beats the cold run (parse every module,
then run all six rules) by >= 3x, with a byte-identical finding set.

Both sides run in-process over the shipped tree with the same config
the real gate uses (``load_config``: defaults + ``[tool.repro.lint]``).
The cold side is timed once (it is the multi-second, stable side); the
warm side takes the min over rounds, ``timeit``-style.  Numbers land in
``BENCH_lint.json`` via ``extra_info``:

* ``cold_s`` / ``warm_s`` - wall-clock of each side.
* ``speedup`` - cold/warm; the >= 3x acceptance floor applies here
  (observed ~100-300x: the warm run is pure hashing + one JSON read).
* ``files`` - modules covered, so regressions in coverage are visible
  next to the timing they would fake-improve.
"""

import time

from repro.lint import LintCache, load_config, run_lint
from repro.lint.cli import default_root

WARM_ROUNDS = 3
MIN_SPEEDUP = 3.0


def test_bench_lint_incremental(benchmark, tmp_path):
    root = default_root()
    config = load_config(root)
    cache = LintCache(tmp_path / "lint-cache")

    t0 = time.perf_counter()
    cold_report = run_lint(root, config, cache=cache)
    cold_s = time.perf_counter() - t0
    assert cache.stats.run_misses == 1 and cache.stats.run_hits == 0

    warm_s = float("inf")
    warm_report = None
    for _ in range(WARM_ROUNDS - 1):
        t0 = time.perf_counter()
        warm_report = run_lint(root, config, cache=cache)
        warm_s = min(warm_s, time.perf_counter() - t0)

    def warm_once():
        t0 = time.perf_counter()
        report = run_lint(root, config, cache=cache)
        return time.perf_counter() - t0, report

    timed, warm_report = benchmark.pedantic(
        warm_once, rounds=1, iterations=1
    )
    warm_s = min(warm_s, timed)

    # Same verdict, same findings, same coverage - warm is a cache hit,
    # not a shortcut.
    assert cache.stats.run_hits >= WARM_ROUNDS
    assert warm_report.ok == cold_report.ok
    assert warm_report.files_checked == cold_report.files_checked
    assert [f.fingerprint for f in warm_report.findings] == [
        f.fingerprint for f in cold_report.findings
    ]

    speedup = cold_s / warm_s
    assert speedup >= MIN_SPEEDUP, (
        f"warm lint only {speedup:.1f}x faster than cold "
        f"({warm_s:.3f}s vs {cold_s:.3f}s); cache floor is "
        f"{MIN_SPEEDUP}x"
    )
    benchmark.extra_info.update(
        {
            "cold_s": round(cold_s, 4),
            "warm_s": round(warm_s, 4),
            "speedup": round(speedup, 1),
            "files": cold_report.files_checked,
            "findings": len(cold_report.findings),
            "cache_stats": cache.stats.as_dict(),
        }
    )
