"""Command-line interface: ``python -m repro`` or the ``repro`` script.

Subcommands mirror the paper's pipeline:

* ``topology``   — generate a site graph and save it as JSON;
* ``simulate``   — run the agent simulator over a topology, writing the
  CLF access log and the ground-truth session file;
* ``clean``      — run the cleaning pipeline over a (noisy) CLF log;
* ``reconstruct``— apply one heuristic to a CLF log (alias:
  ``sessionize``);
* ``stream``     — incremental reconstruction (:mod:`repro.streaming`):
  feed the log in arrival order, emit sessions as they close;
  ``--memory-budget``/``--overload-policy`` put the resource governor
  in front so tracked state stays bounded under adversarial traffic;
  ``--shards N`` hash-shards users across crash-safe worker processes
  (:mod:`repro.streaming.sharded`) with ``--on-shard-failure``
  selecting failover / shed-shard / raise degradation;
* ``evaluate``   — score a reconstructed session file against ground truth;
* ``experiment`` — regenerate Figure 8, 9 or 10 and print the table;
* ``sweep``      — sweep one simulation parameter (stp/lpp/nip), scoring
  all heuristics per value; ``--workers N`` runs the points on the
  :mod:`repro.parallel` engine (the library's only parallel path) with
  identical output; ``--checkpoint DIR`` persists every completed point
  and ``--resume`` continues a killed sweep with identical final results;
* ``mine``       — mine frequent navigation patterns from a session file;
* ``stats``      — profile a session file (lengths, durations, top pages);
* ``run-spec``   — execute a declarative JSON experiment specification;
* ``dataset``    — generate a frozen benchmark dataset bundle;
* ``compare``    — McNemar significance test between two reconstructions;
* ``anonymize``  — pseudonymize or truncate host identities in a log;
* ``selftest``   — verify the installation against the paper's worked
  examples and the pinned golden numbers;
* ``leaderboard``— rank every heuristic on one simulated workload;
* ``chaos``      — corrupt a log with seeded fault injection (degraded-
  input testing; composable with ``ingest`` over a pipe), or — with
  ``--exec-selftest`` — inject *execution* faults (crashed / hung / slow
  workers) and verify the supervised engine recovers byte-identically,
  or — with ``--overload-selftest`` — stream an adversarial crawler+NAT
  workload through the governed pipeline under ``mem-pressure``/
  ``burst`` faults and verify memory stays bounded and the stats
  ledger reconciles, or — with ``--shard-selftest`` — kill sharded
  stream workers mid-run and verify failover replay reproduces the
  serial output byte-identically;
* ``ingest``     — parse a (possibly degraded) log under an explicit
  error policy, with full accounting and a quarantine file;
* ``doctor``     — audit a ``--checkpoint`` directory (schema, integrity
  hashes, orphans, what a ``--resume`` would skip or redo) or, given
  overload/sharded flags, audit a streaming governor or sharded-runtime
  configuration for legal-but-degenerate combinations;
* ``diffcheck``  — the differential correctness oracle: run a corpus
  through every Smart-SRA execution path (serial, columnar, streaming,
  governed, sharded, AMP), verify the paper's five output rules, and
  exit non-zero on any divergence;
* ``trace``      — analyze a ``--trace`` JSON-lines file: span tree,
  inclusive/exclusive time, critical-path attribution and folded-stack
  flamegraph output (``repro trace analyze FILE``);
* ``bench-diff`` — compare fresh benchmark metric sidecars against the
  committed ``BENCH_BASELINE.json`` perf baseline, exiting non-zero on
  regression (``--update`` re-records the baseline).

``sweep`` accepts supervision flags (``--max-retries``,
``--chunk-deadline``, ``--on-chunk-failure``) that wrap its parallel
points in the fault-tolerant supervisor; Ctrl-C exits with code 130
after flushing completed checkpoint units, so an interrupted sweep or
simulation is always resumable.

Every command prints a short human-readable summary to stdout; files are
only written where an ``--output``-style flag points.

Every command also accepts ``--metrics FILE`` and ``--trace FILE``: the
former enables the :mod:`repro.obs` registry for the run and exports its
snapshot (JSON by default, Prometheus text for a ``.prom``/``.txt``
path), the latter streams span/event JSON lines as the command executes.
``--metrics -`` reserves stdout for the snapshot — the command's normal
output moves to stderr so the emitted JSON stays machine-parseable.
``repro stats --snapshot FILE`` renders a saved snapshot as a table,
JSON, or Prometheus text.  The metric catalog is documented in
``docs/observability.md``.

The long-running commands (``stream``, ``simulate``, ``sweep``) further
accept ``--serve-metrics PORT``: a loopback HTTP endpoint (stdlib
``http.server``, daemon thread) serving ``/metrics`` (Prometheus),
``/health``, ``/snapshot`` and ``/timeline`` *while the run is going*,
with a :class:`repro.obs.TimelineSampler` recording counter/gauge series
into a bounded ring (``--timeline-interval``/``--timeline-capacity``).
The server and sampler are torn down cleanly on exit and on SIGINT.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import io
import json
import os
import sys
from collections.abc import Sequence

from repro.core.smart_sra import SmartSRA
from repro.evaluation.experiments import fig8_sweep, fig9_sweep, fig10_sweep
from repro.evaluation.metrics import evaluate_reconstruction
from repro.evaluation.report import render_csv, render_sweep_table
from repro.exceptions import ReproError
from repro.logs.cleaning import LogCleaner
from repro.logs.reader import (
    iter_clf_lines,
    iter_requests,
    records_to_requests,
)
from repro.evaluation.statistics import describe, render_statistics
from repro.logs.users import IdentityAddressMap
from repro.logs.writer import (
    requests_to_records,
    write_clf_file,
    write_combined_file,
)
from repro.mining.sequential import frequent_sequences
from repro.obs import (
    Registry,
    Tracer,
    snapshot_to_prometheus,
    snapshot_to_table,
    use_registry,
)
from repro.sessions.base import get_heuristic
from repro.sessions.model import SessionSet
from repro.sessions.navigation_oriented import NavigationHeuristic
from repro.simulator.config import SimulationConfig
from repro.simulator.population import simulate_population
from repro.topology.analysis import summarize
from repro.topology.generators import (
    hierarchical_site,
    power_law_site,
    random_site,
)
from repro.topology.io import load_graph, save_graph

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the full argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reactive web usage data processing (Smart-SRA "
                    "reproduction)")
    subcommands = parser.add_subparsers(dest="command", required=True)

    # observability flags shared by every subcommand (see repro.obs).
    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--metrics", metavar="FILE",
        help="collect pipeline metrics and export the snapshot here "
             "(JSON; '.prom'/'.txt' paths get Prometheus text; '-' "
             "writes JSON to stdout and moves command output to stderr)")
    obs_flags.add_argument(
        "--trace", metavar="FILE",
        help="stream span/event JSON lines here as the command runs "
             "('-' writes to stderr)")

    class _Sub:
        """``add_parser`` shim threading the shared flags through."""

        def add_parser(self, name: str, **kwargs: object):
            return subcommands.add_parser(name, parents=[obs_flags],
                                          **kwargs)

    sub = _Sub()

    def add_serve_flags(command_parser: argparse.ArgumentParser) -> None:
        """Live telemetry knobs (repro.obs.export / repro.obs.timeline);
        the HTTP exporter + timeline sampler start when --serve-metrics
        is given."""
        command_parser.add_argument(
            "--serve-metrics", type=int, default=None, metavar="PORT",
            help="serve /metrics, /health, /snapshot and /timeline on "
                 "this loopback port for the duration of the run "
                 "(0 = any free port, printed to stderr)")
        command_parser.add_argument(
            "--timeline-interval", type=float, default=None,
            metavar="SECONDS",
            help="timeline sampling interval (default 1.0; only "
                 "meaningful with --serve-metrics)")
        command_parser.add_argument(
            "--timeline-capacity", type=int, default=None, metavar="N",
            help="timeline ring capacity in points (default 600; oldest "
                 "points are evicted beyond it)")

    topo = sub.add_parser("topology", help="generate a site topology")
    topo.add_argument("--family", choices=["random", "hierarchical",
                                           "power-law"], default="random")
    topo.add_argument("--pages", type=int, default=300)
    topo.add_argument("--out-degree", type=float, default=15.0,
                      help="average out-degree (random family)")
    topo.add_argument("--seed", type=int, default=0)
    topo.add_argument("--output", required=True, help="JSON output path")

    sim = sub.add_parser("simulate", help="simulate agents over a topology")
    sim.add_argument("--topology", required=True)
    sim.add_argument("--agents", type=int, default=1000)
    sim.add_argument("--stp", type=float, default=0.05)
    sim.add_argument("--lpp", type=float, default=0.30)
    sim.add_argument("--nip", type=float, default=0.30)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--log", required=True, help="CLF output path")
    sim.add_argument("--sessions", required=True,
                     help="ground-truth session JSON output path")
    sim.add_argument("--format", choices=["clf", "combined"],
                     default="clf",
                     help="log format: plain CLF (the paper's reactive "
                          "setting) or Combined (adds Referer/User-Agent)")
    add_serve_flags(sim)
    sim.add_argument("--checkpoint", metavar="DIR",
                     help="persist completed agent blocks here so an "
                          "interrupted simulation can --resume")
    sim.add_argument("--resume", action="store_true",
                     help="continue from --checkpoint, re-simulating "
                          "only the missing agent blocks")

    clean = sub.add_parser("clean", help="filter a CLF log to page views")
    clean.add_argument("--log", required=True,
                      help="input log path ('-' reads stdin)")
    clean.add_argument("--output", required=True)

    def add_amp_flags(command_parser: argparse.ArgumentParser) -> None:
        """Path-explosion guards for the All-Maximal-Paths engine
        (repro.core.amp); only meaningful with heuristic ``amp``."""
        command_parser.add_argument(
            "--path-budget", type=int, default=None, metavar="N",
            help="max maximal paths materialized per candidate session "
                 "by the amp heuristic (the count is computed exactly "
                 "before anything is enumerated; default 4096)")
        command_parser.add_argument(
            "--path-overflow", choices=["block", "truncate", "raise"],
            default=None,
            help="what amp does when a candidate's maximal-path count "
                 "exceeds the budget: truncate to the first N paths in "
                 "deterministic order (default), block (skip the "
                 "candidate, counted), or raise PathBudgetError")

    rec = sub.add_parser("reconstruct", aliases=["sessionize"],
                         help="apply a heuristic to a log")
    rec.add_argument("--log", required=True,
                    help="input log path ('-' reads stdin)")
    rec.add_argument("--heuristic", default="heur4",
                     help="heur1 | heur2 | heur3 | heur4 | amp | phase1 | "
                          "referrer (needs a combined-format log)")
    rec.add_argument("--topology",
                     help="topology JSON (required by heur3/heur4)")
    rec.add_argument("--output", required=True,
                     help="session JSON output path")
    rec.add_argument("--engine", choices=["object", "columnar"],
                     default="object",
                     help="reconstruction data plane: per-user Python "
                          "objects (default) or the vectorized columnar "
                          "plane (same sessions; needs a heuristic with "
                          "columnar support, e.g. heur1/heur2/heur4)")
    add_amp_flags(rec)

    def add_overload_flags(command_parser: argparse.ArgumentParser) -> None:
        """Resource-governor knobs (repro.streaming.governor); the
        governed pipeline activates when any of them is given."""
        command_parser.add_argument(
            "--memory-budget", metavar="SIZE", default=None,
            help="byte budget for tracked streaming state (open "
                 "candidates + quarantine channels); accepts k/m/g "
                 "binary suffixes (e.g. 64k, 8m)")
        command_parser.add_argument(
            "--overload-policy", choices=["block", "evict", "shed",
                                          "raise"], default=None,
            help="degradation above the budget's high watermark: evict "
                 "oldest-idle users (default), block (spill cold buffers "
                 "to --spill-dir), shed new requests, or raise "
                 "OverloadError")
        command_parser.add_argument(
            "--per-user-cap", type=int, default=None, metavar="N",
            help="max requests in one user's open candidate before it "
                 "is force-finished (and the user earns a quarantine "
                 "strike)")
        command_parser.add_argument(
            "--spill-dir", metavar="DIR", default=None,
            help="spill store directory (required by, and only "
                 "meaningful under, --overload-policy block)")
        command_parser.add_argument(
            "--quarantine-after", type=int, default=None, metavar="N",
            help="cap strikes before a pathological user is routed to "
                 "the bounded quarantine side channel")
        command_parser.add_argument(
            "--quarantine-cap", type=int, default=None, metavar="N",
            help="requests held per quarantine channel before it is "
                 "flushed through the finisher")

    def add_sharded_flags(command_parser: argparse.ArgumentParser) -> None:
        """Sharded-runtime knobs (repro.streaming.sharded); the
        crash-safe sharded runtime activates when any of them is
        given."""
        command_parser.add_argument(
            "--shards", type=int, default=None, metavar="N",
            help="hash-shard users across N crash-safe worker "
                 "processes; sealed output is byte-identical to the "
                 "single-process run")
        command_parser.add_argument(
            "--on-shard-failure", choices=["failover", "shed-shard",
                                           "raise"], default=None,
            help="what to do when a shard worker dies or wedges: "
                 "failover (respawn from the last capsule and replay "
                 "the logged tail, default), shed-shard (abandon the "
                 "shard's pending events, counted), or raise")
        command_parser.add_argument(
            "--ack-interval", type=int, default=None, metavar="N",
            help="events between worker progress acks (24 bytes each); "
                 "an ack makes emitted sessions durable and advances "
                 "sealing")
        command_parser.add_argument(
            "--shard-lease", type=float, default=None, metavar="SECONDS",
            help="wall-clock quiet period with work outstanding after "
                 "which a worker is declared wedged and failed over")
        command_parser.add_argument(
            "--replay-capacity", type=int, default=None, metavar="N",
            help="events retained per shard since its last capsule for "
                 "failover replay; a worker cuts a capsule every half "
                 "capacity, and routing backpressures when a shard's "
                 "log is full")

    strm = sub.add_parser("stream",
                          help="incremental (streaming) reconstruction, "
                               "optionally under a memory governor")
    strm.add_argument("--log", required=True,
                      help="CLF log, fed in file order ('-' reads stdin)")
    strm.add_argument("--heuristic",
                      choices=["smart-sra", "phase1", "amp"],
                      default="smart-sra",
                      help="finisher for closed candidates: full "
                           "Smart-SRA Phase 2 (needs --topology), raw "
                           "Phase-1 candidates, or all maximal paths "
                           "(needs --topology; see --path-budget)")
    strm.add_argument("--topology",
                      help="topology JSON (required by smart-sra)")
    strm.add_argument("--output", required=True,
                      help="session JSON output path")
    strm.add_argument("--late-policy", choices=["raise", "drop"],
                      default="raise",
                      help="what to do with a request behind the "
                           "watermark or its user's buffered tail")
    strm.add_argument("--reorder-window", type=float, default=0.0,
                      metavar="SECONDS",
                      help="event-time bound for out-of-order arrival "
                           "tolerance (0 = strict order)")
    strm.add_argument("--dedup", action="store_true",
                      help="drop adjacent duplicates (double logging)")
    strm.add_argument("--flush-every", type=float, default=0.0,
                      metavar="SECONDS",
                      help="emit provably-closed sessions at periodic "
                           "event-time watermarks instead of only at end "
                           "of stream")
    add_overload_flags(strm)
    add_sharded_flags(strm)
    add_serve_flags(strm)
    add_amp_flags(strm)

    ev = sub.add_parser("evaluate", help="score reconstruction vs truth")
    ev.add_argument("--truth", required=True)
    ev.add_argument("--reconstructed", required=True)
    ev.add_argument("--global-match", action="store_true",
                    help="allow capture across user boundaries")

    exp = sub.add_parser("experiment", help="regenerate a paper figure")
    exp.add_argument("figure", choices=["fig8", "fig9", "fig10"])
    exp.add_argument("--agents", type=int, default=2000,
                     help="agents per sweep point (paper: 10000)")
    exp.add_argument("--seed", type=int, default=0)
    exp.add_argument("--csv", help="also write the series as CSV here")

    swp = sub.add_parser("sweep",
                         help="sweep one simulation parameter, scoring "
                              "all heuristics per value")
    swp.add_argument("--topology",
                     help="topology JSON (random Table 5 site when "
                          "omitted)")
    swp.add_argument("--parameter", choices=["stp", "lpp", "nip"],
                     required=True,
                     help="the SimulationConfig field to vary")
    swp.add_argument("--values", required=True,
                     help="comma-separated parameter values, run in order")
    swp.add_argument("--agents", type=int, default=500,
                     help="agents per sweep point")
    swp.add_argument("--seed", type=int, default=0)
    swp.add_argument("--engine", choices=["object", "columnar"],
                     default="object",
                     help="reconstruction data plane for every point; "
                          "heuristics without columnar support keep the "
                          "object path (accuracies are identical)")
    swp.add_argument("--heuristics", default=None,
                     help="comma-separated lineup to score per value "
                          "(spec-runner names, e.g. heur1,heur4,amp); "
                          "the paper's four when omitted")
    swp.add_argument("--csv", help="also write the series as CSV here")
    swp.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="sweep points run in parallel (repro.parallel engine): "
             "1 = serial (default), 0 = all usable CPUs, N = exactly N "
             "processes; output is identical for every value")
    swp.add_argument(
        "--max-retries", type=int, default=None, metavar="N",
        help="retry a crashed or hung sweep point up to N times with "
             "exponential backoff (supervised execution; default 2 once "
             "supervision is active)")
    swp.add_argument(
        "--chunk-deadline", type=float, default=None, metavar="SECONDS",
        help="progress deadline: if no point completes within this "
             "window the worker pool is presumed hung, killed, and the "
             "outstanding points are retried")
    swp.add_argument(
        "--on-chunk-failure", choices=["raise", "serial", "skip"],
        default=None,
        help="what to do with a point that exhausts its retries: re-run "
             "it serially in-process (default), quarantine and skip it, "
             "or abort the run")
    add_serve_flags(swp)
    swp.add_argument("--checkpoint", metavar="DIR",
                     help="persist every completed sweep point here "
                          "(report + metrics snapshot) the moment it "
                          "finishes")
    swp.add_argument("--resume", action="store_true",
                     help="continue from --checkpoint, recomputing only "
                          "the missing points; the final table and "
                          "metrics equal an uninterrupted run's")

    mine = sub.add_parser("mine", help="mine frequent navigation patterns")
    mine.add_argument("--sessions", required=True)
    mine.add_argument("--min-support", type=float, default=0.01)
    mine.add_argument("--max-length", type=int, default=4)
    mine.add_argument("--top", type=int, default=20)

    stats = sub.add_parser("stats",
                           help="profile a session JSON file, or render "
                                "a metrics snapshot")
    stats.add_argument("--sessions", help="session JSON file to profile")
    stats.add_argument("--top", type=int, default=5)
    stats.add_argument("--snapshot", metavar="FILE", action="append",
                       help="metrics snapshot JSON (written by --metrics) "
                            "to render instead ('-' reads stdin); "
                            "repeatable — multiple snapshots (e.g. one "
                            "per worker) are merged before rendering")
    stats.add_argument("--format", dest="render_format",
                       choices=["table", "json", "prom"], default="table",
                       help="snapshot rendering (with --snapshot)")

    spec = sub.add_parser("run-spec",
                          help="execute a JSON experiment specification")
    spec.add_argument("spec", help="path to the spec document")
    spec.add_argument("--csv", help="write sweep series as CSV here")

    dataset = sub.add_parser("dataset",
                             help="generate a frozen benchmark dataset")
    dataset.add_argument("tier", choices=["small", "medium", "large"])
    dataset.add_argument("--output", required=True,
                         help="bundle directory to create")

    cmp = sub.add_parser("compare",
                         help="paired McNemar test between two "
                              "reconstructions of one ground truth")
    cmp.add_argument("--truth", required=True)
    cmp.add_argument("--a", dest="first", required=True,
                     help="first reconstruction (session JSON)")
    cmp.add_argument("--b", dest="second", required=True,
                     help="second reconstruction (session JSON)")
    cmp.add_argument("--name-a", default="A")
    cmp.add_argument("--name-b", default="B")

    anon = sub.add_parser("anonymize",
                          help="anonymize host identities in a log")
    anon.add_argument("--log", required=True,
                     help="input log path ('-' reads stdin)")
    anon.add_argument("--output", required=True)
    group = anon.add_mutually_exclusive_group(required=True)
    group.add_argument("--key", help="keyed pseudonymization secret")
    group.add_argument("--truncate", type=int, metavar="OCTETS",
                       help="keep this many leading IPv4 octets (1-3)")

    sub.add_parser("selftest",
                   help="verify the install against the paper's worked "
                        "examples")

    board = sub.add_parser("leaderboard",
                           help="rank all heuristics on one simulation")
    board.add_argument("--topology", help="topology JSON (random Table 5 "
                                          "site when omitted)")
    board.add_argument("--agents", type=int, default=500)
    board.add_argument("--seed", type=int, default=0)

    chaos = sub.add_parser("chaos",
                           help="corrupt a log with seeded fault "
                                "injection, or selftest execution-fault "
                                "recovery")
    chaos.add_argument("--log",
                       help="input log path ('-' reads stdin); required "
                            "unless --exec-selftest is given")
    chaos.add_argument("--output", default="-",
                       help="corrupted log path ('-' writes stdout)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="base seed; same seed, same corruption, "
                            "byte for byte")
    chaos.add_argument("--fault", action="append", metavar="NAME[:RATE]",
                       help="fault model to apply, repeatable "
                            "(truncate, garble, encoding, duplicate, "
                            "reorder, clock-skew, rotation-split, bot); "
                            "all models at the default rate when omitted")
    chaos.add_argument("--exec-selftest", action="store_true",
                       help="instead of corrupting a log, run the "
                            "execution-fault recovery selftest: inject "
                            "worker crashes/hangs into a supervised "
                            "parallel run and verify the output is "
                            "byte-identical to serial")
    chaos.add_argument("--exec-fault", action="append",
                       metavar="KIND:INDEX[:SECONDS[:ATTEMPTS]]",
                       help="execution fault to arm (with "
                            "--exec-selftest or --shard-selftest), "
                            "repeatable: crash-chunk, hang-chunk, "
                            "slow-chunk, corrupt-checkpoint, "
                            "kill-worker, wedge-worker, drop-pipe; "
                            "default: crash-chunk:1 and hang-chunk:2:30 "
                            "(one kill-worker per shard for "
                            "--shard-selftest)")
    chaos.add_argument("--selftest-items", type=int, default=64,
                       help="work items for --exec-selftest (default 64)")
    chaos.add_argument("--selftest-workers", type=int, default=2,
                       help="pool workers for --exec-selftest (default "
                            "2); the selftest fails when no pool worker "
                            "ran an item")
    chaos.add_argument("--overload-selftest", action="store_true",
                       help="stream an adversarial crawler+NAT workload "
                            "through the governed pipeline under "
                            "mem-pressure/burst faults and verify "
                            "tracked memory stays under budget and the "
                            "stats ledger reconciles")
    chaos.add_argument("--overload-budget", metavar="SIZE", default="48k",
                       help="memory budget for --overload-selftest "
                            "(k/m/g suffixes; default 48k)")
    chaos.add_argument("--overload-policy",
                       choices=["block", "evict", "shed", "raise"],
                       default="evict",
                       help="overload policy for --overload-selftest")
    chaos.add_argument("--overload-spill-dir", metavar="DIR",
                       help="spill directory for --overload-selftest "
                            "with policy block")
    chaos.add_argument("--shard-selftest", action="store_true",
                       help="run the sharded-failover selftest: kill "
                            "stream workers mid-run (--exec-fault "
                            "kill-worker/wedge-worker/drop-pipe specs, "
                            "default one kill per shard) and verify the "
                            "sealed output is byte-identical to the "
                            "serial run and the ledger reconciles")
    chaos.add_argument("--selftest-shards", type=int, default=2,
                       help="worker processes for --shard-selftest "
                            "(default 2)")
    chaos.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the --overload-selftest or "
                            "--shard-selftest verdict as a JSON "
                            "document instead of text")

    ing = sub.add_parser("ingest",
                         help="parse a degraded log under an error policy")
    ing.add_argument("--log", required=True,
                     help="input log path ('-' reads stdin)")
    ing.add_argument("--error-policy", default="strict",
                     choices=["strict", "skip", "quarantine", "repair"])
    ing.add_argument("--quarantine",
                     help="quarantine file for offending lines (default: "
                          "<log>.quarantine, or quarantine.log for stdin)")
    ing.add_argument("--output",
                     help="write the successfully parsed records back out "
                          "as a normalized log")

    doctor = sub.add_parser("doctor",
                            help="audit a checkpoint directory "
                                 "(integrity, schema, what --resume "
                                 "would skip) or an overload "
                                 "configuration")
    doctor.add_argument("checkpoint", metavar="DIR", nargs="?",
                        help="the --checkpoint directory to audit "
                             "(omit when auditing overload flags)")
    doctor.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the audit as a JSON document instead "
                             "of text")
    add_overload_flags(doctor)
    add_sharded_flags(doctor)
    # telemetry flags are auditable too: doctor never starts a server,
    # it vets the configuration (interval, port, ring size vs budget).
    add_serve_flags(doctor)
    # likewise the amp path-budget vs --memory-budget interaction.
    add_amp_flags(doctor)

    diff = sub.add_parser("diffcheck",
                          help="cross-engine differential correctness "
                               "oracle: run a corpus through every "
                               "Smart-SRA execution path and diff the "
                               "canonical outputs")
    diff.add_argument("--corpus",
                      help="directory of corpus case JSON files (e.g. the "
                           "committed tests/data/diffcheck); omitted, a "
                           "fresh adversarial corpus is generated from "
                           "--seed")
    diff.add_argument("--engines", default="all",
                      help="comma-separated engine names, or 'all' "
                           "(default); the serial baseline is always "
                           "included")
    diff.add_argument("--seed", type=int, default=None,
                      help="override the per-case seeds (default: each "
                           "case's own pinned seed)")
    diff.add_argument("--json", action="store_true", dest="as_json",
                      help="emit the full report as a JSON document "
                           "instead of text")
    diff.add_argument("--write-golden", metavar="DIR",
                      help="regenerate the golden corpus into DIR (cases "
                           "pinned against the serial engine) and exit")

    trace = sub.add_parser("trace",
                           help="analyze a --trace JSON-lines file: span "
                                "tree, critical path, folded stacks")
    trace.add_argument("action", choices=["analyze"],
                       help="'analyze' is the only action today")
    trace.add_argument("file", help="trace file written by --trace "
                                    "('-' reads stdin)")
    trace.add_argument("--folded", metavar="OUT",
                       help="also write folded-stack flamegraph lines "
                            "here (flamegraph.pl / speedscope input)")
    trace.add_argument("--top", type=int, default=10,
                       help="rows in the by-name self-time table "
                            "(default 10)")
    trace.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the report as a JSON document instead "
                            "of text")

    bdiff = sub.add_parser("bench-diff",
                           help="compare fresh bench metric sidecars "
                                "against the committed perf baseline; "
                                "non-zero exit on regression")
    bdiff.add_argument("--results", metavar="DIR",
                       default="benchmarks/results",
                       help="directory of *.metrics.json sidecars "
                            "(default benchmarks/results)")
    bdiff.add_argument("--baseline", metavar="FILE",
                       default="BENCH_BASELINE.json",
                       help="baseline document (default "
                            "BENCH_BASELINE.json)")
    bdiff.add_argument("--threshold", type=float, default=None,
                       help="relative regression threshold (default "
                            "0.20 = 20%%)")
    bdiff.add_argument("--quick", action="store_true",
                       help="structural check only (CI on shrunken "
                            "REPRO_BENCH_QUICK workloads): every "
                            "baselined bench and metric must still be "
                            "present; values are not compared")
    bdiff.add_argument("--update", action="store_true",
                       help="re-record the baseline from the current "
                            "sidecars instead of comparing")
    bdiff.add_argument("--verbose", action="store_true",
                       help="also list metrics that are within "
                            "threshold")
    bdiff.add_argument("--json", action="store_true", dest="as_json",
                       help="emit the diff report as a JSON document "
                            "instead of text")

    return parser


def _cmd_topology(args: argparse.Namespace) -> int:
    if args.family == "random":
        graph = random_site(args.pages, args.out_degree, seed=args.seed)
    elif args.family == "hierarchical":
        graph = hierarchical_site(args.pages, seed=args.seed)
    else:
        graph = power_law_site(args.pages, seed=args.seed)
    save_graph(graph, args.output)
    print(f"wrote {args.output}")
    for key, value in summarize(graph).items():
        print(f"  {key}: {value}")
    return 0


def _validated_workers(args: argparse.Namespace) -> int | None:
    """Map the ``--workers`` flag to the library knob.

    Returns ``None`` for serial (the flag's default of 1), the count
    otherwise; a negative count is a usage error reported by the caller
    (sentinel ``-1`` is never returned — callers test with
    :func:`_workers_invalid` first).
    """
    return None if args.workers == 1 else args.workers


def _workers_invalid(args: argparse.Namespace) -> bool:
    """Validate ``--workers``, printing the one-line usage error."""
    if args.workers < 0:
        print("error: --workers must be >= 0 (0 = auto-detect), got "
              f"{args.workers}", file=sys.stderr)
        return True
    return False


def _supervision_from(args: argparse.Namespace):
    """Build a RetryPolicy from the supervision flags (None = inactive).

    Supervision activates when any flag is given; unset companions take
    the policy defaults (2 retries, no deadline, serial degradation).
    """
    if (args.max_retries is None and args.chunk_deadline is None
            and args.on_chunk_failure is None):
        return None
    from repro.parallel.supervisor import RetryPolicy
    return RetryPolicy(
        max_retries=(2 if args.max_retries is None else args.max_retries),
        deadline=args.chunk_deadline,
        on_failure=args.on_chunk_failure or "serial",
        seed=getattr(args, "seed", 0) or 0)


def _resume_invalid(args: argparse.Namespace) -> bool:
    """Validate the --resume/--checkpoint pairing."""
    if args.resume and not args.checkpoint:
        print("error: --resume requires --checkpoint DIR", file=sys.stderr)
        return True
    return False


def _cmd_simulate(args: argparse.Namespace) -> int:
    if _resume_invalid(args):
        return 2
    graph = load_graph(args.topology)
    config = SimulationConfig(stp=args.stp, lpp=args.lpp, nip=args.nip,
                              n_agents=args.agents, seed=args.seed)
    result = simulate_population(graph, config,
                                 checkpoint=args.checkpoint,
                                 resume=args.resume)
    records = requests_to_records(result.log_requests, IdentityAddressMap())
    if args.format == "combined":
        written = write_combined_file(args.log, records)
    else:
        written = write_clf_file(args.log, records)
    result.ground_truth.save(args.sessions)
    print(f"simulated {args.agents} agents: "
          f"{len(result.ground_truth)} real sessions, "
          f"{written} log records "
          f"(cache hit rate {result.cache_hit_rate:.1%})")
    print(f"wrote {args.log} and {args.sessions}")
    return 0


def _note_drops(report) -> None:
    """Say so when a skip-malformed read dropped lines (never silently)."""
    if report.dropped:
        faults = ", ".join(f"{name}={count}" for name, count
                           in sorted(report.fault_counts.items()))
        print(f"note: skipped {report.dropped} malformed lines "
              f"({faults}) — use 'repro ingest' to quarantine or "
              f"repair them", file=sys.stderr)


@contextlib.contextmanager
def _open_log(path: str):
    """The log at ``path`` opened for reading, or stdin for ``-`` (left
    open on exit).

    A byte that is not UTF-8 decodes to U+FFFD instead of aborting the
    read, so its line parses, or is dropped as malformed, like any other.
    """
    if path == "-":
        handle = io.TextIOWrapper(sys.stdin.buffer, encoding="utf-8",
                                  errors="replace")
        try:
            yield handle
        finally:
            handle.detach()
    else:
        with open(path, encoding="utf-8", errors="replace") as handle:
            yield handle


def _read_log_surfacing_drops(path: str) -> list:
    """Read a log skipping malformed lines, but say so when any dropped."""
    from repro.logs.ingest import IngestReport
    report = IngestReport()
    with _open_log(path) as handle:
        records = list(iter_clf_lines(handle, skip_malformed=True,
                                      report=report))
    _note_drops(report)
    return records


def _cmd_clean(args: argparse.Namespace) -> int:
    records = _read_log_surfacing_drops(args.log)
    kept, stats = LogCleaner().clean(records)
    # preserve the input's richness: combined stays combined.
    has_headers = any(record.referrer is not None
                      or record.user_agent is not None for record in kept)
    if has_headers:
        write_combined_file(args.output, kept)
    else:
        write_clf_file(args.output, kept)
    print(f"kept {stats.kept} of {len(records)} records "
          f"(dropped: {stats.dropped_resources} resources, "
          f"{stats.dropped_errors} errors, {stats.dropped_methods} non-GET, "
          f"{stats.dropped_robots} robot)")
    print(f"wrote {args.output}")
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    records = _read_log_surfacing_drops(args.log)
    requests = records_to_requests(records)
    if args.heuristic == "referrer":
        from repro.sessions.referrer import ReferrerHeuristic
        heuristic = ReferrerHeuristic()
    elif args.heuristic in ("heur3", "navigation", "heur4", "smart-sra",
                            "amp", "maximal-paths"):
        if not args.topology:
            print(f"error: {args.heuristic} requires --topology",
                  file=sys.stderr)
            return 2
        graph = load_graph(args.topology)
        if args.heuristic in ("heur3", "navigation"):
            heuristic = NavigationHeuristic(graph)
        elif args.heuristic in ("amp", "maximal-paths"):
            from repro.sessions.maximal_paths import AllMaximalPaths
            heuristic = AllMaximalPaths(graph, amp=_amp_from(args))
        else:
            heuristic = SmartSRA(graph)
    else:
        heuristic = get_heuristic(args.heuristic)
    if args.engine == "columnar" and not heuristic.supports_columnar:
        print(f"error: {args.heuristic} has no columnar data plane; "
              "drop --engine columnar", file=sys.stderr)
        return 2
    sessions = heuristic.reconstruct(requests, engine=args.engine)
    sessions.save(args.output)
    print(f"{heuristic.label}: {len(sessions)} sessions from "
          f"{len(requests)} requests "
          f"(mean length {sessions.mean_length():.2f})")
    print(f"wrote {args.output}")
    return 0


_OVERLOAD_FLAGS = ("memory_budget", "overload_policy", "per_user_cap",
                   "spill_dir", "quarantine_after", "quarantine_cap")

_AMP_FLAGS = ("path_budget", "path_overflow")


def _amp_from(args: argparse.Namespace):
    """Build an AMPConfig from the path-explosion flags (None = defaults)."""
    if all(getattr(args, flag, None) is None for flag in _AMP_FLAGS):
        return None
    from repro.core.amp import AMPConfig
    overrides = {}
    if getattr(args, "path_budget", None) is not None:
        overrides["path_budget"] = args.path_budget
    if getattr(args, "path_overflow", None) is not None:
        overrides["overflow"] = args.path_overflow
    return AMPConfig(**overrides)


def _governor_from(args: argparse.Namespace):
    """Build a GovernorConfig from the overload flags (None = ungoverned).

    The governed pipeline activates when any flag is given; unset
    companions take the :class:`GovernorConfig` defaults.
    """
    if all(getattr(args, flag, None) is None for flag in _OVERLOAD_FLAGS):
        return None
    from repro.streaming.governor import GovernorConfig, parse_memory_budget
    overrides = {flag: getattr(args, flag) for flag in _OVERLOAD_FLAGS
                 if getattr(args, flag) is not None}
    if "memory_budget" in overrides:
        overrides["memory_budget"] = parse_memory_budget(
            overrides["memory_budget"])
    return GovernorConfig(**overrides)


#: CLI flag dest -> ShardedConfig field, for _sharded_from.
_SHARDED_FLAGS = {"shards": "shards",
                  "on_shard_failure": "on_shard_failure",
                  "ack_interval": "ack_interval",
                  "shard_lease": "lease",
                  "replay_capacity": "replay_capacity"}


def _sharded_from(args: argparse.Namespace):
    """Build a ShardedConfig from the sharded flags (None = in-process).

    The crash-safe sharded runtime activates when any flag is given;
    unset companions take the :class:`ShardedConfig` defaults.
    """
    if all(getattr(args, flag, None) is None for flag in _SHARDED_FLAGS):
        return None
    from repro.streaming.sharded import ShardedConfig
    overrides = {field: getattr(args, flag)
                 for flag, field in _SHARDED_FLAGS.items()
                 if getattr(args, flag, None) is not None}
    return ShardedConfig(**overrides)


def _stream_sharded(args: argparse.Namespace, sharded, governor) -> int:
    """The ``repro stream --shards N`` leg: run the crash-safe sharded
    runtime over the log and report the failover/replay ledger."""
    from repro.streaming.sharded import ShardedStreamingRuntime
    topology = None
    if args.heuristic != "phase1":
        if not args.topology:
            print("error: smart-sra requires --topology", file=sys.stderr)
            return 2
        topology = load_graph(args.topology)
    runtime = ShardedStreamingRuntime(
        topology, sharded=sharded, governor=governor,
        heuristic=args.heuristic, late_policy=args.late_policy,
        reorder_window=args.reorder_window, dedup=args.dedup)
    from repro.logs.ingest import IngestReport
    report = IngestReport()
    with _open_log(args.log) as handle:
        result = runtime.run(
            iter_requests(iter_clf_lines(handle, skip_malformed=True,
                                         report=report)),
            flush_interval=args.flush_every or None)
    _note_drops(report)
    result.sessions.save(args.output)
    stats = result.stats
    print(f"streamed {stats.fed} requests -> {stats.sealed_sessions} "
          f"sessions ({args.heuristic}, {stats.shards} shards, "
          f"on-failure {sharded.on_shard_failure})")
    print(f"  ledger: routed {stats.routed}, replayed {stats.replayed}, "
          f"shed {stats.shed} "
          f"({'reconciles' if stats.reconciles() else 'DOES NOT RECONCILE'})")
    if (stats.failovers or stats.wedged or stats.worker_deaths
            or stats.shed_shards):
        recovery = ", ".join(f"{seconds * 1000.0:.0f}ms"
                             for seconds in result.recovery_seconds)
        print(f"  failovers {stats.failovers} (respawns {stats.respawns}, "
              f"wedged {stats.wedged}, deaths {stats.worker_deaths}, "
              f"shards shed {stats.shed_shards})"
              + (f"; recovery {recovery}" if recovery else ""))
    print(f"wrote {args.output}")
    if not stats.reconciles():
        print("error: sharded accounting does not reconcile",
              file=sys.stderr)
        return 1
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from repro.streaming import (
        streaming_amp,
        streaming_phase1,
        streaming_smart_sra,
    )
    if args.flush_every < 0:
        print(f"error: --flush-every must be >= 0, got {args.flush_every}",
              file=sys.stderr)
        return 2
    governor = _governor_from(args)
    sharded = _sharded_from(args)
    if sharded is not None:
        if args.heuristic == "amp":
            print("error: --shards supports smart-sra and phase1 only; "
                  "run amp without sharding flags", file=sys.stderr)
            return 2
        return _stream_sharded(args, sharded, governor)
    options = dict(late_policy=args.late_policy,
                   reorder_window=args.reorder_window, dedup=args.dedup)
    if args.heuristic == "phase1":
        pipeline = streaming_phase1(governor=governor, **options)
    elif args.heuristic == "amp":
        if not args.topology:
            print("error: amp requires --topology", file=sys.stderr)
            return 2
        pipeline = streaming_amp(load_graph(args.topology),
                                 amp=_amp_from(args), governor=governor,
                                 **options)
    else:
        if not args.topology:
            print("error: smart-sra requires --topology", file=sys.stderr)
            return 2
        pipeline = streaming_smart_sra(load_graph(args.topology),
                                       governor=governor, **options)
    # feed lazily — one parsed line in, zero or more sessions out — so a
    # live source (a pipe, a FIFO, a slowly growing file) is processed
    # as it arrives; --serve-metrics watches exactly this loop.
    from repro.logs.ingest import IngestReport
    report = IngestReport()
    sessions = []
    next_watermark = None
    with _open_log(args.log) as handle:
        for request in iter_requests(
                iter_clf_lines(handle, skip_malformed=True,
                               report=report)):
            if next_watermark is None and args.flush_every > 0:
                next_watermark = request.timestamp + args.flush_every
            while (next_watermark is not None
                   and request.timestamp >= next_watermark):
                sessions.extend(pipeline.flush(next_watermark))
                next_watermark += args.flush_every
            sessions.extend(pipeline.feed(request))
    sessions.extend(pipeline.flush())
    _note_drops(report)
    SessionSet(sessions).save(args.output)
    stats = pipeline.stats()
    governed = pipeline.governor is not None
    mode = "governed" if governed else "ungoverned"
    print(f"streamed {stats.fed_requests} requests -> "
          f"{stats.emitted_sessions} sessions ({args.heuristic}, {mode})")
    if stats.late_dropped or stats.duplicates_dropped:
        print(f"  dropped: {stats.late_dropped} late, "
              f"{stats.duplicates_dropped} duplicates")
    if governed:
        print(f"  budget {stats.memory_budget}B, peak tracked "
              f"{stats.peak_tracked_bytes}B "
              f"({'bounded' if stats.peak_tracked_bytes <= stats.memory_budget else 'EXCEEDED'})")
        print(f"  degradation: {stats.evictions} evictions "
              f"({stats.evicted_requests} requests), "
              f"{stats.shed_requests} shed, "
              f"{stats.spill_writes} spills "
              f"({stats.spill_restores} restored, "
              f"{stats.spill_lost} lost), "
              f"{stats.quarantined_users} quarantined users "
              f"({stats.quarantine_flushes} channel flushes, "
              f"{stats.cap_strikes} cap strikes)")
    print(f"wrote {args.output}")
    if not stats.reconciles():
        print("error: streaming accounting does not reconcile",
              file=sys.stderr)
        return 1
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    truth = SessionSet.load(args.truth)
    reconstructed = SessionSet.load(args.reconstructed)
    report = evaluate_reconstruction(
        "cli", truth, reconstructed,
        match_within_user=not args.global_match)
    print(f"real sessions:        {report.total_real}")
    print(f"captured (⊏):         {report.captured}")
    print(f"real accuracy:        {report.accuracy:.1%}")
    print(f"exact reconstructions:{report.exact}")
    print(f"reconstructed total:  {report.reconstructed_count}")
    print(f"precision:            {report.precision:.1%}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    sweeps = {"fig8": fig8_sweep, "fig9": fig9_sweep, "fig10": fig10_sweep}
    result = sweeps[args.figure](n_agents=args.agents, seed=args.seed)
    titles = {
        "fig8": "Figure 8 — real accuracy (%) vs STP",
        "fig9": "Figure 9 — real accuracy (%) vs LPP",
        "fig10": "Figure 10 — real accuracy (%) vs NIP",
    }
    print(render_sweep_table(result, titles[args.figure]))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(render_csv(result))
        print(f"wrote {args.csv}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if _workers_invalid(args) or _resume_invalid(args):
        return 2
    try:
        values = [float(token) for token in args.values.split(",") if token]
    except ValueError:
        print(f"error: --values must be comma-separated numbers, got "
              f"{args.values!r}", file=sys.stderr)
        return 2
    if not values:
        print("error: --values needs at least one value", file=sys.stderr)
        return 2
    from repro.evaluation.harness import sweep as run_sweep
    if args.topology:
        graph = load_graph(args.topology)
    else:
        graph = random_site(300, 15.0, seed=args.seed)
    heuristic_factory = None
    if getattr(args, "heuristics", None):
        from repro.evaluation.spec import build_heuristics
        names = [token.strip() for token in args.heuristics.split(",")
                 if token.strip()]
        build_heuristics(names, graph)  # fail on unknown names up front
        # a partial pickles, so --workers runs the points on processes
        heuristic_factory = functools.partial(build_heuristics, names, graph)
    base = SimulationConfig(n_agents=args.agents, seed=args.seed)
    result = run_sweep(graph, base, args.parameter, values,
                       heuristic_factory=heuristic_factory,
                       workers=_validated_workers(args),
                       engine=args.engine,
                       supervision=_supervision_from(args),
                       checkpoint=args.checkpoint, resume=args.resume)
    for failure in result.failures:
        print(f"warning: {failure.reason} at chunk {failure.chunk_index} "
              f"resolved by {failure.resolution}", file=sys.stderr)
    print(render_sweep_table(
        result, f"sweep: real accuracy (%) vs {args.parameter.upper()} "
                f"({args.agents} agents)"))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as handle:
            handle.write(render_csv(result))
        print(f"wrote {args.csv}")
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    sessions = SessionSet.load(args.sessions)
    patterns = frequent_sequences(sessions, min_support=args.min_support,
                                  max_length=args.max_length)
    multi = [pattern for pattern in patterns if len(pattern.pages) >= 2]
    multi.sort(key=lambda pattern: -pattern.support)
    print(f"{len(patterns)} frequent patterns "
          f"({len(multi)} of length >= 2); top {args.top}:")
    for pattern in multi[:args.top]:
        path = " -> ".join(pattern.pages)
        print(f"  {pattern.support:6.2%}  {path}")
    return 0


def _load_snapshot(path: str) -> dict:
    """Read and structurally validate a ``--metrics`` snapshot document."""
    from repro.exceptions import ConfigurationError
    if path == "-":
        document = json.load(sys.stdin)
    else:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    if (not isinstance(document, dict)
            or not any(key in document
                       for key in ("counters", "gauges", "histograms"))):
        raise ConfigurationError(
            f"{path!r} is not a metrics snapshot (expected the JSON "
            f"document written by --metrics)")
    return document


def _cmd_stats(args: argparse.Namespace) -> int:
    if (args.sessions is None) == (args.snapshot is None):
        print("error: stats needs exactly one of --sessions or --snapshot",
              file=sys.stderr)
        return 2
    if args.snapshot is not None:
        snapshots = [_load_snapshot(path) for path in args.snapshot]
        if len(snapshots) == 1:
            snapshot = snapshots[0]
        else:
            from repro.obs import merge_snapshots
            snapshot = merge_snapshots(*snapshots)
        if args.render_format == "json":
            print(json.dumps(snapshot, indent=1, sort_keys=True))
        elif args.render_format == "prom":
            print(snapshot_to_prometheus(snapshot), end="")
        else:
            print(snapshot_to_table(snapshot), end="")
        return 0
    sessions = SessionSet.load(args.sessions)
    print(render_statistics(describe(sessions, top=args.top)), end="")
    return 0


def _cmd_run_spec(args: argparse.Namespace) -> int:
    from repro.evaluation.harness import SweepResult
    from repro.evaluation.spec import load_spec, run_spec
    result = run_spec(load_spec(args.spec))
    if isinstance(result, SweepResult):
        print(render_sweep_table(result, f"spec sweep: {args.spec}"))
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as handle:
                handle.write(render_csv(result))
            print(f"wrote {args.csv}")
    else:
        print(f"spec trial: {args.spec}")
        for name, report in result.reports.items():
            print(f"  {name}: matched {report.matched_accuracy:.1%}  "
                  f"captured {report.accuracy:.1%}  "
                  f"sessions {report.reconstructed_count}")
    return 0


def _cmd_leaderboard(args: argparse.Namespace) -> int:
    from repro.evaluation.leaderboard import leaderboard, render_leaderboard
    if args.topology:
        graph = load_graph(args.topology)
    else:
        graph = random_site(300, 15.0, seed=args.seed)
    config = SimulationConfig(n_agents=args.agents, seed=args.seed)
    rows = leaderboard(graph, config)
    print(f"leaderboard over {args.agents} simulated agents "
          f"(matched accuracy, bootstrap 95% CI):")
    print(render_leaderboard(rows), end="")
    print("note: 'referrer' consumes the combined log (with Referer "
          "headers) — the others see plain CLF.")
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    """Re-derive the paper's worked examples and check them exactly."""
    from repro.core.smart_sra import SmartSRA
    from repro.evaluation.experiments import (
        paper_example_topology,
        paper_table1_stream,
        paper_table3_stream,
    )
    from repro.sessions.time_oriented import (
        DurationHeuristic,
        PageStayHeuristic,
    )

    topology = paper_example_topology()
    checks: list[tuple[str, bool]] = []

    heur1 = [s.pages for s in
             DurationHeuristic().reconstruct_user(paper_table1_stream())]
    checks.append(("Table 1 / heur1",
                   heur1 == [("P1", "P20", "P13", "P49"), ("P34", "P23")]))

    heur2 = [s.pages for s in
             PageStayHeuristic().reconstruct_user(paper_table1_stream())]
    checks.append(("Table 1 / heur2",
                   heur2 == [("P1", "P20", "P13"), ("P49", "P34"),
                             ("P23",)]))

    heur3 = NavigationHeuristic(topology).reconstruct_user(
        paper_table1_stream())
    checks.append(("Table 2 / heur3",
                   [s.pages for s in heur3]
                   == [("P1", "P20", "P1", "P13", "P49", "P13", "P34",
                        "P23")]))

    heur4 = SmartSRA(topology).reconstruct_user(paper_table3_stream())
    checks.append(("Table 4 / Smart-SRA",
                   {s.pages for s in heur4}
                   == {("P1", "P13", "P34", "P23"),
                       ("P1", "P13", "P49", "P23"),
                       ("P1", "P20", "P23")}))

    failed = 0
    for label, passed in checks:
        status = "ok" if passed else "FAILED"
        print(f"  {label}: {status}")
        failed += 0 if passed else 1
    if failed:
        print(f"selftest FAILED ({failed} of {len(checks)} checks)")
        return 1
    print(f"selftest passed ({len(checks)} checks — the paper's worked "
          f"examples reproduce exactly)")
    return 0


def _cmd_anonymize(args: argparse.Namespace) -> int:
    from repro.logs.anonymize import pseudonymize_hosts, truncate_ipv4_hosts
    records = _read_log_surfacing_drops(args.log)
    if args.key is not None:
        anonymous = pseudonymize_hosts(records, key=args.key)
        scheme = "keyed pseudonyms"
    else:
        anonymous = truncate_ipv4_hosts(records, keep_octets=args.truncate)
        scheme = f"IPv4 /{args.truncate * 8} truncation"
    has_headers = any(record.referrer is not None
                      or record.user_agent is not None
                      for record in anonymous)
    if has_headers:
        write_combined_file(args.output, anonymous)
    else:
        write_clf_file(args.output, anonymous)
    hosts_before = len({record.host for record in records})
    hosts_after = len({record.host for record in anonymous})
    print(f"anonymized {len(records)} records ({scheme}): "
          f"{hosts_before} hosts -> {hosts_after}")
    print(f"wrote {args.output}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.evaluation.comparison import compare_heuristics
    truth = SessionSet.load(args.truth)
    result = compare_heuristics(
        truth, SessionSet.load(args.first), SessionSet.load(args.second),
        name_a=args.name_a, name_b=args.name_b)
    print(result)
    print(f"  both captured: {result.both}   neither: {result.neither}")
    print(f"  significant at 5%: {'yes' if result.significant() else 'no'}")
    return 0


def _cmd_dataset(args: argparse.Namespace) -> int:
    from repro.datasets import write_dataset
    manifest = write_dataset(args.tier, args.output)
    statistics = manifest["statistics"]
    print(f"wrote dataset '{args.tier}' to {args.output}")
    for key, value in statistics.items():  # type: ignore[union-attr]
        print(f"  {key}: {value}")
    return 0


def _chaos_exec_selftest(args: argparse.Namespace) -> int:
    """Run the execution-fault self-test (``chaos --exec-selftest``)."""
    from repro.faults import run_exec_selftest
    specs = args.exec_fault or ["crash-chunk:1", "hang-chunk:2:30"]
    result = run_exec_selftest(specs, items=args.selftest_items,
                               workers=args.selftest_workers,
                               seed=args.seed)
    stats = result["stats"]
    print(f"exec selftest: {result['items']} items over "
          f"{result['chunks']} chunks with faults "
          f"{'; '.join(specs)}", file=sys.stderr)
    print(f"  retries {stats['retries']}, respawns {stats['respawns']}, "
          f"deadline hits {stats['deadline_hits']}, "
          f"crashes {stats['crashes']}, "
          f"degraded serial {stats['degraded_serial']}, "
          f"skipped {stats['skipped']}", file=sys.stderr)
    for failure in result["failures"]:
        print(f"  chunk {failure['chunk_index']} exhausted retries "
              f"({failure['reason']}) -> {failure['resolution']}",
              file=sys.stderr)
    verdict = "identical to serial" if result["identical"] else "DIVERGED"
    print(f"  recovered output: {verdict}", file=sys.stderr)
    print(f"  items run on pool workers: {result['pooled_items']} of "
          f"{result['items']}", file=sys.stderr)
    return 0 if result["identical"] and result["pooled_items"] else 1


def _chaos_overload_selftest(args: argparse.Namespace) -> int:
    """Run the overload-degradation self-test (``chaos
    --overload-selftest``)."""
    from repro.faults import run_overload_selftest
    from repro.streaming.governor import parse_memory_budget
    specs = args.exec_fault or ["mem-pressure:500:0.5", "burst:800:96"]
    result = run_overload_selftest(
        specs, budget=parse_memory_budget(args.overload_budget),
        policy=args.overload_policy, seed=args.seed,
        spill_dir=args.overload_spill_dir)
    ok = (result["bounded"] and result["reconciled"]
          and result["invariant_clean"])
    if args.as_json:
        print(json.dumps({**result, "ok": ok}, indent=1, sort_keys=True))
        return 0 if ok else 1
    stats = result["stats"]
    print(f"overload selftest: {result['requests']} requests under "
          f"policy={result['policy']} budget={result['budget']}B with "
          f"faults {'; '.join(specs)}", file=sys.stderr)
    print(f"  peak tracked {stats['peak_tracked_bytes']}B "
          f"({'bounded' if result['bounded'] else 'EXCEEDED BUDGET'}), "
          f"{result['sessions']} sessions", file=sys.stderr)
    print(f"  evictions {stats['evictions']} "
          f"({stats['evicted_requests']} requests), "
          f"shed {stats['shed_requests']}, "
          f"spills {stats['spill_writes']} "
          f"(restored {stats['spill_restores']}), "
          f"quarantine flushes {stats['quarantine_flushes']}",
          file=sys.stderr)
    print(f"  ledger: "
          f"{'reconciles' if result['reconciled'] else 'DOES NOT RECONCILE'}"
          f"; output rules: "
          f"{'clean' if result['invariant_clean'] else 'VIOLATED'}",
          file=sys.stderr)
    for violation in result["violations"]:
        print(f"    ! {violation}", file=sys.stderr)
    return 0 if ok else 1


def _chaos_shard_selftest(args: argparse.Namespace) -> int:
    """Run the sharded-failover self-test (``chaos --shard-selftest``)."""
    from repro.faults import run_shard_selftest
    result = run_shard_selftest(args.exec_fault, shards=args.selftest_shards,
                                seed=args.seed)
    ok = (result["identical"] and result["reconciled"]
          and result["recovered"])
    if args.as_json:
        print(json.dumps({**result, "ok": ok}, indent=1, sort_keys=True))
        return 0 if ok else 1
    print(f"shard selftest: {result['requests']} requests over "
          f"{result['shards']} shards with faults "
          f"{'; '.join(result['specs'])}", file=sys.stderr)
    for run in result["runs"]:
        stats = run["stats"]
        print(f"  replay capacity {run['replay_capacity']} (a capsule every "
              f"{run['checkpoint_interval']} events):", file=sys.stderr)
        print(f"    ledger: routed {stats['routed']}, "
              f"replayed {stats['replayed']}, shed {stats['shed']} "
              f"({'reconciles' if run['reconciled'] else 'DOES NOT RECONCILE'})",
              file=sys.stderr)
        print(f"    failovers {stats['failovers']} "
              f"(respawns {stats['respawns']}, wedged {stats['wedged']}, "
              f"deaths {stats['worker_deaths']}, "
              f"shards shed {stats['shed_shards']}) -> "
              f"{'recovered' if run['recovered'] else 'NO FAILOVER FIRED'}",
              file=sys.stderr)
        verdict = ("identical to serial" if run["identical"]
                   else "DIVERGED from serial")
        print(f"    sealed output ({run['sessions']} sessions): {verdict}",
              file=sys.stderr)
    return 0 if ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    selftests = [flag for flag in ("exec_selftest", "overload_selftest",
                                   "shard_selftest")
                 if getattr(args, flag)]
    if len(selftests) > 1:
        print("error: --exec-selftest, --overload-selftest and "
              "--shard-selftest are mutually exclusive", file=sys.stderr)
        return 2
    if args.exec_selftest:
        return _chaos_exec_selftest(args)
    if args.overload_selftest:
        return _chaos_overload_selftest(args)
    if args.shard_selftest:
        return _chaos_shard_selftest(args)
    if args.log is None:
        print("error: --log is required (unless --exec-selftest, "
              "--overload-selftest or --shard-selftest)", file=sys.stderr)
        return 2
    from repro.faults import chaos_stream, parse_fault_spec
    specs = None
    if args.fault:
        specs = [parse_fault_spec(spec) for spec in args.fault]
    with _open_log(args.log) as handle:
        lines = [line.rstrip("\n") for line in handle]
    corrupted = list(chaos_stream(lines, specs, seed=args.seed))
    payload = "".join(line + "\n" for line in corrupted)
    if args.output == "-":
        sys.stdout.write(payload)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(payload)
    applied = (", ".join(f"{name}:{rate:g}" for name, rate in specs)
               if specs is not None else "all models (default mix)")
    # the summary goes to stderr so stdout stays a clean log pipe.
    print(f"chaos: {len(lines)} lines in, {len(corrupted)} out "
          f"(seed {args.seed}; {applied})", file=sys.stderr)
    if args.output != "-":
        print(f"wrote {args.output}", file=sys.stderr)
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.logs.ingest import IngestReport, ingest_lines
    quarantine_path = args.quarantine
    if quarantine_path is None and args.error_policy in ("quarantine",
                                                         "repair"):
        quarantine_path = ("quarantine.log" if args.log == "-"
                          else f"{args.log}.quarantine")
    report = IngestReport()
    # the quarantine file is created even when nothing lands in it.
    with _open_log(args.log) as handle, \
            (contextlib.nullcontext() if quarantine_path is None
             else open(quarantine_path, "w", encoding="utf-8")) as sink:
        records = list(ingest_lines(handle, policy=args.error_policy,
                                    report=report, quarantine=sink))
    print(report.summary())
    if not report.reconciles():  # pragma: no cover - invariant guard
        print("error: ingest accounting does not reconcile",
              file=sys.stderr)
        return 1
    if args.output:
        has_headers = any(record.referrer is not None
                          or record.user_agent is not None
                          for record in records)
        if has_headers:
            write_combined_file(args.output, records)
        else:
            write_clf_file(args.output, records)
        print(f"wrote {args.output} ({len(records)} records)")
    if quarantine_path is not None:
        print(f"quarantine: {quarantine_path} "
              f"({report.quarantined} lines)")
    return 0


_TELEMETRY_FLAGS = ("serve_metrics", "timeline_interval",
                    "timeline_capacity")


def _cmd_doctor(args: argparse.Namespace) -> int:
    from repro.parallel.checkpoint import CheckpointStore
    governor = _governor_from(args)
    sharded = _sharded_from(args)
    amp = _amp_from(args)
    telemetry = any(getattr(args, flag, None) is not None
                    for flag in _TELEMETRY_FLAGS)
    if governor is not None or sharded is not None or telemetry \
            or amp is not None:
        if args.checkpoint is not None:
            print("error: audit either a checkpoint DIR or a "
                  "configuration (overload/sharded/telemetry/amp flags), "
                  "not both", file=sys.stderr)
            return 2
        audits = []
        if governor is not None:
            from repro.streaming.governor import audit_overload_config
            audits.append(audit_overload_config(governor))
        if sharded is not None:
            from repro.streaming.sharded import audit_sharded_config
            audits.append(audit_sharded_config(sharded, governor))
        if amp is not None:
            from repro.core.amp import audit_amp_config
            audits.append(audit_amp_config(
                amp, memory_budget=(governor.memory_budget
                                    if governor is not None else None)))
        if telemetry:
            from repro.obs import audit_telemetry_config
            audits.append(audit_telemetry_config(
                interval=args.timeline_interval,
                capacity=args.timeline_capacity,
                port=args.serve_metrics,
                memory_budget=(governor.memory_budget
                               if governor is not None else None)))
        ok = all(audit.ok for audit in audits)
        if args.as_json:
            if len(audits) == 1:
                # the single-audit document keeps its historical shape
                # (governor-only doctor runs predate the telemetry audit).
                document = audits[0].to_dict()
            else:
                document = {"ok": ok,
                            "audits": [audit.to_dict()
                                       for audit in audits]}
            print(json.dumps(document, indent=1, sort_keys=True))
        else:
            print("\n".join(audit.render() for audit in audits))
        return 0 if ok else 1
    if args.checkpoint is None:
        print("error: doctor needs a checkpoint DIR to audit, or "
              "overload/sharded/telemetry/amp flags (e.g. "
              "--memory-budget, --shards, --serve-metrics, "
              "--path-budget) for a configuration audit",
              file=sys.stderr)
        return 2
    if not os.path.isdir(args.checkpoint):
        print(f"error: {args.checkpoint} is not a directory",
              file=sys.stderr)
        return 2
    report = CheckpointStore(args.checkpoint).validate()
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_diffcheck(args: argparse.Namespace) -> int:
    from repro.diffcheck import (
        EngineContext,
        generate_corpus,
        load_corpus,
        run_diffcheck,
        run_engine,
        save_corpus,
    )
    if args.write_golden is not None:
        seed = args.seed if args.seed is not None else 0
        pinned = []
        for case in generate_corpus(seed=seed):
            ctx = EngineContext(case.requests, case.topology, case.config,
                                case.seed)
            reference = run_engine("serial", ctx)
            amp_reference = run_engine("amp-reference", ctx)
            pinned.append(case.with_expected(reference, amp_reference))
        paths = save_corpus(pinned, args.write_golden)
        print(f"wrote {len(paths)} golden case(s) to {args.write_golden}")
        return 0
    if args.corpus is not None:
        cases = load_corpus(args.corpus)
    else:
        cases = generate_corpus(
            seed=args.seed if args.seed is not None else 0)
    report = run_diffcheck(cases, engines=args.engines, seed=args.seed)
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import analyze_trace
    report = analyze_trace(sys.stdin if args.file == "-" else args.file)
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        print(report.render(top=args.top))
    if args.folded:
        folded = report.folded()
        with open(args.folded, "w", encoding="utf-8") as handle:
            handle.write("".join(line + "\n" for line in folded))
        print(f"wrote {args.folded} ({len(folded)} stacks)",
              file=sys.stderr)
    return 0


def _cmd_bench_diff(args: argparse.Namespace) -> int:
    from repro.obs import (
        build_baseline,
        compare_to_baseline,
        load_sidecars,
    )
    from repro.obs.baseline import DEFAULT_THRESHOLD
    sidecars = load_sidecars(args.results)
    if args.update:
        if args.quick:
            print("error: --update and --quick are mutually exclusive "
                  "(never record a baseline from shrunken quick-mode "
                  "runs)", file=sys.stderr)
            return 2
        document = build_baseline(sidecars)
        with open(args.baseline, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        benches = ", ".join(sorted(document["benches"]))
        print(f"recorded baseline for {len(document['benches'])} "
              f"bench(es) ({benches}) into {args.baseline}")
        return 0
    with open(args.baseline, encoding="utf-8") as handle:
        baseline = json.load(handle)
    report = compare_to_baseline(
        sidecars, baseline,
        threshold=(DEFAULT_THRESHOLD if args.threshold is None
                   else args.threshold),
        quick=args.quick)
    if args.as_json:
        print(json.dumps(report.to_dict(), indent=1, sort_keys=True))
    else:
        print(report.render(verbose=args.verbose))
    return 0 if report.ok else 1


_COMMANDS = {
    "topology": _cmd_topology,
    "simulate": _cmd_simulate,
    "clean": _cmd_clean,
    "reconstruct": _cmd_reconstruct,
    "sessionize": _cmd_reconstruct,
    "stream": _cmd_stream,
    "evaluate": _cmd_evaluate,
    "experiment": _cmd_experiment,
    "sweep": _cmd_sweep,
    "mine": _cmd_mine,
    "stats": _cmd_stats,
    "run-spec": _cmd_run_spec,
    "dataset": _cmd_dataset,
    "compare": _cmd_compare,
    "anonymize": _cmd_anonymize,
    "selftest": _cmd_selftest,
    "leaderboard": _cmd_leaderboard,
    "chaos": _cmd_chaos,
    "ingest": _cmd_ingest,
    "doctor": _cmd_doctor,
    "diffcheck": _cmd_diffcheck,
    "trace": _cmd_trace,
    "bench-diff": _cmd_bench_diff,
}

#: subcommands where --serve-metrics starts the live exporter (doctor
#: shares the flag names but only audits them).
_SERVING_COMMANDS = frozenset({"stream", "simulate", "sweep"})


def _export_metrics(registry: Registry, path: str) -> None:
    """Write the registry snapshot where ``--metrics`` pointed."""
    if path.endswith((".prom", ".txt")):
        payload = registry.render_prometheus()
    else:
        payload = json.dumps(registry.snapshot(), indent=1,
                             sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"wrote {path}", file=sys.stderr)


def _run_command(args: argparse.Namespace) -> int:
    """Execute one subcommand under its requested observability setup."""
    command = _COMMANDS[args.command]
    metrics_path = getattr(args, "metrics", None)
    trace_path = getattr(args, "trace", None)
    serve_port = (getattr(args, "serve_metrics", None)
                  if args.command in _SERVING_COMMANDS else None)
    if metrics_path is None and trace_path is None and serve_port is None:
        return command(args)

    trace_handle = None
    tracer = None
    if trace_path is not None:
        trace_handle = (sys.stderr if trace_path == "-"
                        else open(trace_path, "w", encoding="utf-8"))
        tracer = Tracer(trace_handle)
    registry = Registry(tracer=tracer)
    sampler = None
    server = None
    try:
        if serve_port is not None:
            from repro.obs import MetricsServer, TimelineSampler
            interval = getattr(args, "timeline_interval", None)
            capacity = getattr(args, "timeline_capacity", None)
            sampler = TimelineSampler(
                registry,
                interval=1.0 if interval is None else interval,
                capacity=600 if capacity is None else capacity)
            server = MetricsServer(registry, serve_port, sampler=sampler)
            server.start()
            sampler.start()
            print(f"serving metrics on {server.url} "
                  f"(/metrics /health /snapshot /timeline)",
                  file=sys.stderr)
        with use_registry(registry), registry.span(f"cli.{args.command}"):
            if metrics_path == "-":
                # stdout is reserved for the snapshot: the command's
                # human-readable output moves to stderr.
                with contextlib.redirect_stdout(sys.stderr):
                    code = command(args)
            else:
                code = command(args)
    finally:
        # teardown runs on every exit path, SIGINT included: the
        # sampler thread stops, the port is released, the trace closes.
        if sampler is not None:
            sampler.stop()
        if server is not None:
            server.close()
        if trace_handle is not None and trace_handle is not sys.stderr:
            trace_handle.close()
    if metrics_path is not None:
        _export_metrics(registry, metrics_path)
    return code


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Every failure mode a subcommand can hit on bad input — a missing or
    unreadable file (``OSError``), malformed JSON (``ValueError``), a
    structurally wrong document (``KeyError``) or any library-raised
    :class:`ReproError` — exits non-zero with a clean one-line
    ``error:`` message instead of a traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    # What is alive now is import-time state (numpy, the parser) that
    # lives as long as the process; frozen, it stays out of every full
    # collection the command triggers.  Once per process: a host that
    # calls main() repeatedly must not freeze its own garbage.
    if gc.get_freeze_count() == 0:
        gc.freeze()
    try:
        return _run_command(args)
    except BrokenPipeError:
        # the downstream consumer (`head`, a closed pager) went away:
        # exit quietly like any unix filter, keeping the interpreter's
        # shutdown flush from raising a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0
    except KeyboardInterrupt:
        # checkpointed commands flush every completed unit as it finishes,
        # so the run can be continued with --resume after a Ctrl-C.
        print("error: interrupted; completed checkpoint units were kept "
              "(rerun with --resume to continue)", file=sys.stderr)
        return 130
    except (ReproError, OSError, ValueError, KeyError) as error:
        text = str(error).strip()
        message = (text.splitlines()[0] if text
                   else type(error).__name__)
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
