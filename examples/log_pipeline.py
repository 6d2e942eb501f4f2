"""The full reactive data-processing pipeline on real files.

This is the scenario the paper's title describes: a web server leaves a
noisy Common Log Format file behind, and an analyst has to filter it,
partition it into users, and reconstruct sessions — after the fact
(reactively), with no cookies or client instrumentation.

The script builds the whole loop in a temporary directory, removed when
it ends:

  simulate -> write CLF -> inject noise -> clean -> partition -> Smart-SRA
  -> evaluate against the simulator's ground truth.

Run:  python examples/log_pipeline.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import SimulationConfig, SmartSRA, evaluate_reconstruction, random_site, simulate_population
from repro.logs.cleaning import LogCleaner, NoiseInjector
from repro.logs.reader import read_clf_file, records_to_requests
from repro.logs.users import IdentityAddressMap
from repro.logs.writer import requests_to_records, write_clf_file


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="repro_log_pipeline_") as name:
        run(Path(name))


def run(workdir: Path) -> None:
    """The pipeline, with its files under ``workdir``."""
    print(f"working in {workdir}")

    site = random_site(n_pages=150, avg_out_degree=10, seed=3)
    simulation = simulate_population(
        site, SimulationConfig(n_agents=300, seed=9))

    # --- the web server writes its access log (with realistic noise) -----
    clean_records = requests_to_records(simulation.log_requests,
                                        IdentityAddressMap())
    noisy_records = NoiseInjector(resources_per_page=3, error_rate=0.05,
                                  post_rate=0.03, robot_requests=200,
                                  seed=1).inject(clean_records)
    log_path = workdir / "access.log"
    write_clf_file(str(log_path), noisy_records)
    print(f"wrote {len(noisy_records)} CLF lines "
          f"({len(clean_records)} genuine page views) to {log_path}")

    # --- the analyst's reactive pipeline ---------------------------------
    records = read_clf_file(str(log_path), skip_malformed=True)
    kept, stats = LogCleaner().clean(records)
    print(f"cleaning: kept {stats.kept}, dropped "
          f"{stats.dropped_resources} resources / {stats.dropped_errors} "
          f"errors / {stats.dropped_methods} non-GET / "
          f"{stats.dropped_robots} robot records")

    requests = records_to_requests(kept)
    sessions = SmartSRA(site).reconstruct(requests)
    print(f"Smart-SRA reconstructed {len(sessions)} sessions "
          f"(mean length {sessions.mean_length():.2f})")

    report = evaluate_reconstruction("smart-sra",
                                     simulation.ground_truth, sessions)
    print(f"\nagainst ground truth: matched accuracy "
          f"{report.matched_accuracy:.1%}, any-capture {report.accuracy:.1%}"
          f" ({report.matched}/{report.total_real} sessions)")


if __name__ == "__main__":
    main()
