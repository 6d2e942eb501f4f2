"""End-to-end benchmark: access log on disk -> sessions file, six paths.

Usage::

    python benchmarks/e2e/run.py [--workload NAME|all] [--seed N]
        [--reps N | --seconds S] [--trace [0|1]] [--quick]
        [--repeat-check] [--write-results]

For each workload the seed generates a topology JSON and an access log
(``workloads.py``); the measured program receives only those two files.
Each (path, round) then runs in its own child process, one at a time,
forked from this process after the library is imported — so every rep
starts from the same import-only interpreter state and imports are not
timed.  A closed loop: the path reads the file as fast as it consumes it.
Path order rotates every round and every metric is a median over rounds
of times calibrated to a nominal host speed (``calibration.py``).

The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics, or with ``--trace 1`` the per-layer metrics
of one traced rep per path (``tracing.py``).  Any failed run — an
exception, a kill, a timeout, or a failed correctness gate — makes the
exit status non-zero.  See README.md for the metric catalog.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
import traceback

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(HERE, "results")

#: address-space cap of every child, so a memory blow-up fails one run
#: instead of the host.
MEMORY_LIMIT = 3 << 30

#: wall-clock cap of one child, seconds.
CHILD_TIMEOUT = 150.0

#: rounds a ``--seconds`` run always completes (median plus quartiles).
MIN_ROUNDS = 3


def e2e_catalog(paths) -> list[tuple[str, str, str]]:
    """End-to-end metrics as ``(name, unit, better)``."""
    catalog = [(f"{path}.krec_s", "krec/s", "higher") for path in paths]
    catalog.append(("setup_s", "s", "lower"))
    catalog.append(("peak_rss_mb", "MB", "lower"))
    return catalog


# ---------------------------------------------------------------------------
# child processes


def _reap_group(pgid: int) -> None:
    """Wait until no process of the group is left (SIGKILL after 5 s)."""
    for attempt in range(600):
        try:
            os.killpg(pgid, signal.SIGKILL if attempt == 500 else 0)
        except ProcessLookupError:
            return
        except PermissionError:
            return
        time.sleep(0.01)


def run_child(function, *args, timeout: float = CHILD_TIMEOUT) -> dict:
    """Run ``function(*args)`` in a forked child; returns its outcome.

    The outcome is ``{"ok": True, "value": ...}`` or ``{"ok": False,
    "error": ...}``.  The child leads its own process group (its shard
    workers join it), runs under ``MEMORY_LIMIT`` and is killed with its
    group after ``timeout`` seconds.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    # the collector must not walk the inherited import-time objects: each
    # walk writes their headers, and the copy-on-write page faults it
    # triggers would be timed (they cost a fresh child ~70 ms, noisily).
    gc.freeze()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            os.setpgid(0, 0)
            resource.setrlimit(resource.RLIMIT_AS,
                               (MEMORY_LIMIT, MEMORY_LIMIT))
            try:
                payload = {"ok": True, "value": function(*args)}
                code = 0
            except Exception:  # noqa: BLE001 - reported to the parent
                payload = {"ok": False, "error": traceback.format_exc()}
            view = memoryview(json.dumps(payload).encode("utf-8"))
            while view:
                view = view[os.write(write_fd, view):]
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        os.setpgid(pid, pid)
    except OSError:
        pass            # the child got there first
    chunks = []
    timed_out = False
    deadline = time.monotonic() + timeout
    try:
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                timed_out = True
                break
            ready, _, _ = select.select([read_fd], [], [], remaining)
            if ready:
                chunk = os.read(read_fd, 1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
    finally:
        os.close(read_fd)
        if timed_out or sys.exc_info()[0] is not None:
            try:
                os.killpg(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        _, status, _ = os.wait4(pid, 0)
        _reap_group(pid)
    if timed_out:
        return {"ok": False, "error": f"timed out after {timeout:.0f}s"}
    if os.WIFSIGNALED(status):
        return {"ok": False,
                "error": f"killed by signal {os.WTERMSIG(status)}"}
    try:
        return json.loads(b"".join(chunks))
    except ValueError:
        return {"ok": False, "error": f"no result (exit status {status})"}


# ---------------------------------------------------------------------------
# statistics


def summarize(values: list[float]) -> dict | None:
    """Median and quartiles (``statistics.quantiles``, n=4)."""
    if not values:
        return None
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def e2e_samples(runs: list[dict], paths, lines: int,
                calibrated: bool = True) -> dict[str, list]:
    """Per-round samples of every end-to-end metric.

    ``<path>.krec_s`` is log lines / wall seconds of each passing run;
    ``setup_s`` sums the paths' set-up times of a round and
    ``peak_rss_mb`` takes its largest path.  ``calibrated`` rescales each
    run's times by its own reference pass (``calibration.py``).
    """
    def seconds(run: dict, key: str) -> float:
        if calibrated:
            return calibration.calibrate(run[key], run["reference_s"])
        return run[key]

    samples: dict[str, list] = {f"{path}.krec_s": [] for path in paths}
    by_round: dict[int, list[dict]] = {}
    for run in runs:
        if run["ok"]:
            samples[f"{run['path']}.krec_s"].append(
                lines / seconds(run, "wall_s") / 1000.0)
            by_round.setdefault(run["round"], []).append(run)
    complete = [group for group in by_round.values()
                if len(group) == len(paths)]
    samples["setup_s"] = [sum(seconds(run, "setup_s") for run in group)
                          for group in complete]
    samples["peak_rss_mb"] = [max(run["rss_mb"] for run in group)
                              for group in complete]
    return samples


# ---------------------------------------------------------------------------
# one workload


def _prepare(workload_name: str, seed: int, quick: bool) -> str:
    import workloads
    return workloads.generate_cached(workloads.WORKLOADS[workload_name],
                                     seed, quick)


def _outcome_to_run(outcome: dict, round_index: int, path: str) -> dict:
    run = {"round": round_index, "path": path, "ok": False,
           "problems": []}
    if not outcome["ok"]:
        run["problems"] = [outcome["error"].strip().splitlines()[-1]]
        run["error"] = outcome["error"]
        return run
    value = outcome["value"]
    run.update({key: value[key] for key in
                ("wall_s", "setup_s", "rss_mb", "reference_s", "sha256",
                 "digest", "sessions", "problems")})
    run["ok"] = not value["problems"]
    return run


def measure_workload(name: str, args) -> dict:
    """Generate, time every path round by round, optionally trace."""
    import paths as e2e_paths
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    prepared = run_child(_prepare, name, args.seed, args.quick)
    if not prepared["ok"]:
        raise RuntimeError(f"generating {name} failed:\n"
                           f"{prepared['error']}")
    directory = prepared["value"]
    oracle = workloads.load_cached(directory)
    topology_path = os.path.join(directory, "topology.json")
    log_path = os.path.join(directory, "access.log")
    scratch = tempfile.mkdtemp(prefix="run-", dir=workloads.CACHE_DIR)
    out_path = os.path.join(scratch, "sessions.json")
    all_paths = e2e_paths.PATHS
    runs: list[dict] = []
    # path -> gate result of a passing run; later runs whose output file
    # has the same bytes pass without re-parsing it.
    verified: dict[str, dict] = {}

    def record(outcome: dict, round_index: int, path: str) -> None:
        run = _outcome_to_run(outcome, round_index, path)
        runs.append(run)
        if run["ok"] and path not in verified:
            verified[path] = {key: run[key]
                              for key in ("sha256", "digest", "sessions")}

    try:
        reps = args.reps or (1 if args.quick else 5)
        minimum = 1 if args.quick else MIN_ROUNDS
        started = time.monotonic()
        round_index = 0
        while True:
            elapsed = time.monotonic() - started
            if args.seconds:
                if (round_index >= minimum and elapsed
                        + elapsed / round_index > args.seconds):
                    break
            elif round_index >= reps:
                break
            shift = round_index % len(all_paths)
            for path in all_paths[shift:] + all_paths[:shift]:
                outcome = run_child(e2e_paths.measure, path, workload,
                                    oracle, topology_path, log_path,
                                    out_path, None, verified.get(path))
                record(outcome, round_index, path)
            round_index += 1
        measured_s = time.monotonic() - started
        traced: dict[str, dict] = {}
        if args.trace:
            for path in all_paths:
                outcome = run_child(tracing.traced_measure, path, workload,
                                    oracle, topology_path, log_path,
                                    out_path, None, verified.get(path))
                traced[path] = outcome
                record({"ok": outcome["ok"],
                        "error": outcome.get("error", ""),
                        "value": outcome.get("value", {}).get("result")},
                       -1, path)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {"workload": name, "oracle": oracle, "rounds": round_index,
            "measured_s": measured_s, "runs": runs, "traced": traced}


def e2e_metrics(measured: dict) -> dict[str, dict]:
    """Median-of-rounds end-to-end metrics, calibrated to nominal host
    speed, with quartiles and samples, calibrated and raw."""
    import paths as e2e_paths
    lines = measured["oracle"]["lines"]
    untraced = [run for run in measured["runs"]
                if run["round"] >= 0 and run["ok"]]
    samples = e2e_samples(untraced, e2e_paths.PATHS, lines)
    raw_samples = e2e_samples(untraced, e2e_paths.PATHS, lines,
                              calibrated=False)
    metrics = {}
    for name, unit, better in e2e_catalog(e2e_paths.PATHS):
        summary = summarize(samples[name])
        metrics[name] = {"value": summary["median"] if summary else None,
                         "unit": unit, "better": better,
                         "summary": summary, "samples": samples[name],
                         "raw_summary": summarize(raw_samples[name]),
                         "raw_samples": raw_samples[name]}
    return metrics


def speed_factor(measured: dict) -> float | None:
    """Median reference time of the passing runs over the nominal one:
    how much slower than nominal the host ran."""
    references = [run["reference_s"] for run in measured["runs"]
                  if run["round"] >= 0 and run["ok"]]
    if not references:
        return None
    return statistics.median(references) / calibration.NOMINAL_S


def per_layer_metrics(measured: dict) -> dict[str, dict]:
    """Per-layer metrics from the traced reps (``None`` where missing)."""
    import tracing
    lines = measured["oracle"]["lines"]
    units = dict(tracing.per_layer_catalog())
    values: dict[str, float | None] = {name: None for name in units}
    for path, outcome in measured["traced"].items():
        if not outcome["ok"]:
            continue
        passing = [run for run in measured["runs"]
                   if run["round"] >= 0 and run["path"] == path
                   and run["ok"]]
        wall = (statistics.median(
            calibration.calibrate(run["wall_s"], run["reference_s"])
            for run in passing) if passing else None)
        rss = (statistics.median(run["rss_mb"] for run in passing)
               if passing else None)
        values.update(tracing.per_layer_values(path, outcome["value"], lines,
                                               wall, rss))
    if set(values) != set(units):
        raise RuntimeError(f"per-layer values outside the catalog: "
                           f"{sorted(set(values) ^ set(units))}")
    return {name: {"value": value, "unit": units[name]}
            for name, value in values.items()}


# ---------------------------------------------------------------------------
# reporting


def _fmt(value, digits: int = 2) -> str:
    return "null" if value is None else f"{value:.{digits}f}"


def report(measured: dict, e2e: dict, layered: dict | None) -> None:
    """Human-readable tables on stdout (before the JSON line)."""
    oracle = measured["oracle"]
    print(f"== {measured['workload']}: seed {oracle['seed']}, "
          f"{oracle['lines']} lines, {oracle['users']} users, "
          f"{measured['rounds']} rounds in {measured['measured_s']:.1f}s, "
          f"speed factor {_fmt(speed_factor(measured), 3)} ==")
    print(f"{'metric':<24}{'median':>10}{'q1':>10}{'q3':>10}{'n':>4}"
          f"{'raw median':>12}  unit")
    for name, metric in e2e.items():
        summary = metric["summary"] or {}
        raw = metric["raw_summary"] or {}
        print(f"{name:<24}{_fmt(summary.get('median'), 4):>10}"
              f"{_fmt(summary.get('q1'), 4):>10}"
              f"{_fmt(summary.get('q3'), 4):>10}"
              f"{summary.get('n', 0):>4}{_fmt(raw.get('median'), 4):>12}"
              f"  {metric['unit']}")
    for run in measured["runs"]:
        if not run["ok"]:
            print(f"FAILED {run['path']} round {run['round']}: "
                  f"{'; '.join(run['problems'])}")
    if layered:
        print(f"{'per-layer metric':<40}{'value':>14}  unit")
        for name, metric in layered.items():
            print(f"{name:<40}{_fmt(metric['value'], 3):>14}  "
                  f"{metric['unit']}")


def _git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` (None outside git)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def write_results(measured: dict, e2e: dict, layered: dict | None,
                  args) -> None:
    """Write ``results/<workload>.json`` (+ trace and folded stacks)."""
    import numpy
    from repro.obs.spans import TraceReport, build_span_forest

    os.makedirs(RESULTS_DIR, exist_ok=True)
    name = measured["workload"]
    document = {
        "workload": name, "seed": args.seed, "quick": args.quick,
        "rounds": measured["rounds"], "measured_s": measured["measured_s"],
        "oracle": measured["oracle"],
        "host": {"nproc": os.cpu_count(),
                 "affinity": len(os.sched_getaffinity(0)),
                 "python": platform.python_version(),
                 "numpy": numpy.__version__,
                 "machine": platform.machine()},
        "commit": _git_commit(),
        "speed_factor": speed_factor(measured),
        "runs": [{key: value for key, value in run.items() if key != "error"}
                 for run in measured["runs"]],
        "end_to_end": e2e,
    }
    if layered is not None:
        document["per_layer"] = layered
        records: list[dict] = []
        for outcome in measured["traced"].values():
            if not outcome["ok"]:
                continue
            offset = len(records)
            for record in outcome["value"]["records"]:
                shifted = dict(record, id=record["id"] + offset)
                if record["parent"] is not None:
                    shifted["parent"] = record["parent"] + offset
                records.append(shifted)
        with open(os.path.join(RESULTS_DIR, f"{name}.trace.jsonl"), "w",
                  encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        if records:
            folded = TraceReport(build_span_forest(records)).folded()
            with open(os.path.join(RESULTS_DIR, f"{name}.folded"), "w",
                      encoding="utf-8") as handle:
                handle.write("\n".join(folded) + "\n")
    with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


def repeat_check(first: dict, second: dict, bounds: dict) -> bool:
    """Print both sets per metric; True when every delta is in bound."""
    agree = True
    print(f"{'metric':<24}{'set 1 median [q1, q3]':>32}"
          f"{'set 2 median [q1, q3]':>32}{'delta':>9}{'bound':>7}")
    for name, metric in first.items():
        a, b = metric["summary"], second[name]["summary"]
        if a is None or b is None or a["median"] == 0:
            delta = None
            ok = False
        else:
            delta = (b["median"] - a["median"]) / a["median"]
            ok = abs(delta) <= bounds[name]
        agree = agree and ok
        cells = [f"{s['median']:.4f} [{s['q1']:.4f}, {s['q3']:.4f}]"
                 if s else "null" for s in (a, b)]
        print(f"{name:<24}{cells[0]:>32}{cells[1]:>32}"
              f"{_fmt(delta, 3):>9}{bounds[name]:>7.2f}"
              f"{'' if ok else '  DISAGREES'}")
    return agree


# ---------------------------------------------------------------------------
# entry point


def _parser(workload_names) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=(*workload_names, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=None,
                        help="rounds to run (default 5, --quick 1); "
                             "ignored when --seconds is given")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="run rounds until this many seconds of "
                             f"measuring have passed (at least "
                             f"{MIN_ROUNDS} rounds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="also trace one rep per path and report the "
                             "per-layer metrics instead")
    parser.add_argument("--quick", action="store_true",
                        help="~20x smaller inputs, 1 round")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run two independent sets and compare them "
                             "against the BENCHMARK.json bounds")
    parser.add_argument("--write-results", action="store_true",
                        help="write results/<workload>.json, the trace "
                             "and folded stacks")
    return parser


def main(argv: list[str] | None = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: library source not found at {SRC}", file=sys.stderr)
        return 2
    # single-threaded native libraries: children are forked from here.
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ.setdefault(variable, "1")
    sys.path.insert(0, SRC)
    import paths  # noqa: F401 - imports the library before any fork
    import tracing  # noqa: F401
    import workloads

    args = _parser(tuple(workloads.WORKLOADS)).parse_args(argv)
    names = (tuple(workloads.WORKLOADS) if args.workload == "all"
             else (args.workload,))
    os.makedirs(workloads.CACHE_DIR, exist_ok=True)
    bounds = None
    if args.repeat_check:
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as handle:
            declared = json.load(handle)
        bounds = {metric["name"]: metric["bound"]
                  for metric in declared["end_to_end"]}
    attempted = failed = 0
    agree = True
    metrics: dict[str, dict] = {}
    for name in names:
        sets = []
        for _ in range(2 if args.repeat_check else 1):
            measured = measure_workload(name, args)
            e2e = e2e_metrics(measured)
            layered = per_layer_metrics(measured) if args.trace else None
            report(measured, e2e, layered)
            if args.write_results:
                write_results(measured, e2e, layered, args)
            attempted += len(measured["runs"])
            failed += sum(1 for run in measured["runs"] if not run["ok"])
            sets.append((e2e, layered))
        if args.repeat_check:
            print(f"== repeat check: {name} ==")
            agree = repeat_check(sets[0][0], sets[1][0], bounds) and agree
        e2e, layered = sets[-1]
        chosen = layered if args.trace else e2e
        prefix = "" if len(names) == 1 else f"{name}/"
        for key, metric in chosen.items():
            metrics[prefix + key] = {"value": metric["value"],
                                     "unit": metric["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 and agree else 1


if __name__ == "__main__":
    sys.exit(main())
