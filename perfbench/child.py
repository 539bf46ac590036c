"""Child processes of the benchmark; run.py starts them, one per job.

    child.py setup ROOT CONFIG
        Time a fresh interpreter's ``import poisson_bm``, ``load_config``
        and ``validate_hypothesis_h``; print them as one JSON line.

    child.py workload ROOT CONFIG SECONDS TRACE RESULT SPANS
        Repeat load_config's run (``run_experiment`` then
        ``RunReport.write``) while the next repetition still fits in
        SECONDS, at least once. With TRACE 1, repetitions alternate
        between tracing off and on, starting off, for
        ``trace.overhead_s``. Writes per-repetition records to RESULT and,
        when traced, all spans to SPANS.

The workload process runs nothing but its workload, so its peak RSS
and that of its pool workers belong to the workload alone.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

OUTPUT_FILES = ("report.json", "assertions.csv")


def use_checkout(root: Path) -> None:
    """Import poisson_bm from the checkout's src/ and nowhere else."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import poisson_bm

    if Path(poisson_bm.__file__).resolve().parent != src / "poisson_bm":
        raise SystemExit(f"poisson_bm imported from {poisson_bm.__file__}, not from {src}")


def setup(root: Path, config_path: Path) -> None:
    t0 = time.perf_counter()
    use_checkout(root)
    import poisson_bm

    t1 = time.perf_counter()
    config = poisson_bm.load_config(config_path)
    t2 = time.perf_counter()
    poisson_bm.validate_hypothesis_h(config.theta)
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "validate_s": t3 - t2}))


def output_digests(out_dir: Path) -> dict[str, str]:
    import hashlib

    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
        for name in OUTPUT_FILES
    }


def _cpu_s() -> float:
    """User+sys CPU seconds of this process and its waited-for children.

    Pool workers are joined when their pool closes, so a run's workers
    are counted by the time the run returns.
    """
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _repetition(config, traced: bool) -> dict:
    """One user-path run, timed from run_experiment to the written report."""
    import shutil

    from poisson_bm import run_experiment

    shutil.rmtree(config.output_dir, ignore_errors=True)
    c0 = _cpu_s()
    t0 = time.perf_counter()
    error = all_pass = None
    try:
        report = run_experiment(config)
        report.write(config.output_dir)
        all_pass = report.all_pass
    except Exception as exc:  # a raising run is a failed operation, not a crash
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    c1 = _cpu_s()
    record = {
        "traced": traced,
        "wall_s": t1 - t0,
        "cpu_s": c1 - c0,
        "error": error,
        # False is exit 1 on the command line: a statistical outcome, not a failure
        "all_pass": all_pass,
    }
    if error is None:
        record["digests"] = output_digests(config.output_dir)
        record["json_bytes"] = (config.output_dir / "report.json").stat().st_size
    return record


def workload(root: Path, config_path: Path, seconds: float, trace: bool,
             result_path: Path, spans_path: Path) -> None:
    import resource

    use_checkout(root)
    from poisson_bm import load_config

    import tracing

    config = load_config(config_path)
    block_floats = config.replications_M * config.theta.dimension * (config.grid_points + 1)
    reps = []
    start = time.perf_counter()

    def another():
        """Whether one more repetition, as long as the last, ends in time."""
        return time.perf_counter() - start + reps[-1]["wall_s"] <= seconds

    if not trace:
        while not reps or another():
            reps.append(_repetition(config, traced=False))
    else:
        # untraced and traced repetitions alternate, so that both medians
        # for trace.overhead_s come from the same stretch of the run
        reps.append(_repetition(config, traced=False))
        ship_dir = result_path.parent / "ship"
        ship_dir.mkdir(exist_ok=True)
        tracer = tracing.Tracer(ship_dir)
        traced_spans = []
        while len(reps) < 2 or another():
            if len(reps) % 2 == 0:
                reps.append(_repetition(config, traced=False))
                continue
            with tracing.instrumented(tracer):
                rec = _repetition(config, traced=True)
            spans, counts = tracer.take()
            if rec["error"] is None:
                rec["layers"] = tracing.layer_metrics(
                    spans, counts, workers=config.workers, block_floats=block_floats)
                rec["layers"]["report.json_bytes"] = rec["json_bytes"]
            reps.append(rec)
            traced_spans.append({
                "repetition": len(reps) - 1,
                "self_s": tracing.self_times(spans),
                "counts": counts,
                "fields": ["id", "parent", "name", "start_ns", "end_ns",
                           "eps_index", "rep", "payload"],
                "spans": spans,
            })
        spans_path.write_text(json.dumps(traced_spans))

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result_path.write_text(json.dumps({
        "repetitions": reps,
        "replications_per_run": config.replications_M * len(config.epsilons),
        "workers": config.workers,
        "peak_rss_mb": max(self_kb, children_kb) * 1024 / 1e6,
    }))


def main(argv: list[str]) -> None:
    mode, root, config_path = argv[0], Path(argv[1]), Path(argv[2])
    if mode == "setup":
        setup(root, config_path)
    elif mode == "workload":
        workload(root, config_path, float(argv[3]), argv[4] == "1",
                 Path(argv[5]), Path(argv[6]))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
