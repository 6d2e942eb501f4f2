"""Smart-SRA — the paper's primary contribution (§3).

Smart-SRA (Smart Session Reconstruction Algorithm) reconstructs user
sessions from a server log in two phases:

* **Phase 1** (:mod:`repro.core.phase1`) splits each user's request stream
  into *candidate sessions* using both classic time rules — total duration
  ≤ δ (30 min) and page-stay gap ≤ ρ (10 min).
* **Phase 2** (:mod:`repro.core.phase2`) re-partitions every candidate into
  **maximal** page sequences satisfying the timestamp-ordering rule and the
  topology rule (every consecutive pair hyperlinked, within ρ), without
  inserting the artificial backward movements the navigation-oriented
  heuristic needs.

Use :class:`~repro.core.smart_sra.SmartSRA` as a drop-in
:class:`~repro.sessions.base.SessionReconstructor`:

    >>> from repro.core import SmartSRA
    >>> from repro.topology import random_site
    >>> topology = random_site(50, 5, seed=7)
    >>> reconstructor = SmartSRA(topology)

"""

# columnar first: it pulls in the repro.sessions package, whose
# maximal_paths module imports repro.core.amp — importing amp before the
# sessions package finishes initializing would close an import cycle.
from repro.core.columnar import ColumnarPlane, SymbolTable
from repro.core.amp import (
    AMPConfig,
    amp_sessions_optimized,
    amp_sessions_reference,
    audit_amp_config,
    count_maximal_paths,
)
from repro.core.config import SmartSRAConfig
from repro.core.phase1 import split_candidates
from repro.core.phase2 import maximal_sessions, maximal_sessions_fast
from repro.core.smart_sra import Phase1Only, SmartSRA

__all__ = [
    "SmartSRA",
    "Phase1Only",
    "SmartSRAConfig",
    "AMPConfig",
    "split_candidates",
    "maximal_sessions",
    "maximal_sessions_fast",
    "amp_sessions_reference",
    "amp_sessions_optimized",
    "count_maximal_paths",
    "audit_amp_config",
    "ColumnarPlane",
    "SymbolTable",
]
