"""Extensions A16 + A18 — fault tolerance: dirty logs and dying workers.

Two questions the resilient ingestion layer must answer with numbers:

1. **Accuracy vs fault rate** — corrupt a simulated log with each fault
   model of :mod:`repro.faults` at increasing rates, ingest under the
   ``quarantine`` policy, reconstruct with Smart-SRA and score against the
   simulator's ground truth.  Faults that destroy lines (truncate, garble,
   rotation-split) cost sessions roughly in proportion to the lines lost;
   faults that keep lines parsable (clock-skew, duplicate, bot) degrade
   more subtly or not at all.
2. **Throughput overhead per error policy** — the price of accounting:
   line throughput of ``skip`` / ``quarantine`` / ``repair`` over a 5 %
   all-models chaos stream, against ``strict`` over the clean stream.

And one for the fault-tolerant *execution* layer (A18):

3. **Crash-recovery equivalence** — with an injected worker crash, the
   supervised run must still produce byte-identical output, paying only
   the retry it actually needed.
"""

from __future__ import annotations

import platform
import time

import pytest

from _bench_utils import BENCH_QUICK, BENCH_SEED, emit
from repro.core.smart_sra import SmartSRA
from repro.evaluation.experiments import PAPER_DEFAULTS, paper_topology
from repro.evaluation.metrics import real_accuracy
from repro.faults import FAULT_MODELS, chaos_stream
from repro.logs.clf import format_clf_line
from repro.logs.ingest import IngestReport, ingest_lines
from repro.logs.reader import records_to_requests
from repro.logs.users import IdentityAddressMap
from repro.logs.writer import requests_to_records
from repro.parallel import available_cpus
from repro.simulator.population import simulate_population

_AGENTS = 300
_RATES = (0.02, 0.05, 0.10)


@pytest.fixture(scope="module")
def workload():
    topology = paper_topology(seed=BENCH_SEED)
    config = PAPER_DEFAULTS.simulation_config(n_agents=_AGENTS,
                                              seed=BENCH_SEED)
    simulation = simulate_population(topology, config)
    records = requests_to_records(simulation.log_requests,
                                  IdentityAddressMap())
    lines = [format_clf_line(record) for record in records]
    return topology, simulation.ground_truth, lines


def _score(topology, ground_truth, lines):
    """Quarantine-ingest ``lines``, reconstruct, score — never raises."""
    report = IngestReport()
    records = list(ingest_lines(lines, policy="quarantine",
                                report=report, quarantine=[]))
    assert report.reconciles()
    requests = sorted(records_to_requests(records))
    sessions = SmartSRA(topology).reconstruct(requests)
    return real_accuracy(ground_truth, sessions), report


def test_accuracy_vs_fault_rate(workload, results_dir):
    topology, ground_truth, lines = workload
    baseline, _ = _score(topology, ground_truth, lines)
    assert baseline > 0.5

    rows = [f"  {'model':<15}" + "".join(f"{r:>9.0%}" for r in _RATES)]
    for name in sorted(FAULT_MODELS):
        cells = []
        for rate in _RATES:
            dirty = list(FAULT_MODELS[name](rate, seed=BENCH_SEED)
                         .apply(lines))
            accuracy, report = _score(topology, ground_truth, dirty)
            assert accuracy <= baseline + 0.02, (name, rate)
            cells.append(f"{accuracy:>9.3f}")
        rows.append(f"  {name:<15}" + "".join(cells))

    emit(results_dir, "fault_tolerance_accuracy",
         f"Extension A16 — Smart-SRA accuracy vs fault rate "
         f"[{_AGENTS} agents, quarantine policy]\n"
         f"  clean-log baseline: {baseline:.3f}\n"
         + "\n".join(rows) + "\n")


def test_policy_throughput_overhead(workload, results_dir):
    _, _, lines = workload
    specs = [(name, 0.05) for name in sorted(FAULT_MODELS)]
    dirty = list(chaos_stream(lines, specs=specs, seed=BENCH_SEED))

    def best_of(stream, policy, repeats=9):
        elapsed = []
        for _ in range(repeats):
            start = time.perf_counter()
            report = IngestReport()
            for _record in ingest_lines(stream, policy=policy,
                                        report=report, quarantine=[]):
                pass
            elapsed.append(time.perf_counter() - start)
            assert report.reconciles()
        return len(stream) / min(elapsed)

    strict_clean = best_of(lines, "strict")
    rows = [f"  {'policy':<12}{'lines/s':>12}{'vs strict':>12}",
            f"  {'strict*':<12}{strict_clean:>12,.0f}{'1.00x':>12}"]
    for policy in ("skip", "quarantine", "repair"):
        throughput = best_of(dirty, policy)
        rows.append(f"  {policy:<12}{throughput:>12,.0f}"
                    f"{throughput / strict_clean:>11.2f}x")

    emit(results_dir, "fault_tolerance_throughput",
         f"Extension A16 — ingestion throughput per error policy "
         f"[{len(dirty)} dirty lines, 5% all-models chaos]\n"
         f"  host: {available_cpus()} CPU(s) visible, Python "
         f"{platform.python_version()}; best of 9 passes per policy\n"
         "  (*strict measured on the clean stream — it raises on dirty)\n"
         + "\n".join(rows) + "\n")


# -- A18: the fault-tolerant execution layer ------------------------------

#: per-item spin count — enough CPU per chunk that dispatch overhead is
#: amortized; quick mode shrinks the workload to a correctness smoke.
_SPIN = 300 if BENCH_QUICK else 20_000


def _spin(x):
    """Deterministic CPU-bound work item (module-level: pickles)."""
    value = x & 0xFFFFFFFF
    for _ in range(_SPIN):
        value = (value * 2654435761 + 12345) & 0xFFFFFFFF
    return value


def test_crash_recovery_equivalence(results_dir):
    from repro.faults import use_execution_faults
    from repro.parallel import RetryPolicy, supervised_map

    items = list(range(64))
    expected = [_spin(x) for x in items]
    policy = RetryPolicy(max_retries=2, deadline=60.0, backoff_base=0.01)
    with use_execution_faults("crash-chunk:1"):
        start = time.perf_counter()
        outcome = supervised_map(_spin, items, workers=2, chunk_size=8, policy=policy)
        elapsed = time.perf_counter() - start

    assert outcome.results == expected
    assert outcome.stats.crashes >= 1
    assert outcome.stats.respawns >= 1
    assert not outcome.failures

    stats = outcome.stats
    emit(results_dir, "fault_tolerance_crash_recovery",
         f"Extension A18 — crash recovery [64 items, transient "
         f"crash-chunk:1, 2 workers]\n"
         f"  output identical to serial: True\n"
         f"  crashes {stats.crashes}, respawns {stats.respawns}, "
         f"retries {stats.retries}, degraded serial "
         f"{stats.degraded_serial}\n"
         f"  recovered in {elapsed * 1e3:.0f} ms\n")
