"""Reconstructor interface and the heuristic registry.

Every session reconstruction heuristic in the library — the paper's three
baselines and Smart-SRA — implements :class:`SessionReconstructor`.  A
heuristic's unit of work is *one user's* chronological request stream (the
``UserRequestSequence`` of the paper); :meth:`SessionReconstructor.reconstruct`
handles a whole multi-user stream by partitioning on ``user_id`` first.

Heuristics register themselves under the short names used throughout the
paper's evaluation (``heur1`` … ``heur4``) plus a descriptive alias, so the
CLI and the experiment harness can be driven by name.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Iterable, Sequence

from repro.exceptions import ConfigurationError, ReconstructionError
from repro.obs import SIZE_BUCKETS, get_registry
from repro.sessions.model import Request, Session, SessionSet

__all__ = [
    "SessionReconstructor",
    "HEURISTIC_REGISTRY",
    "register_heuristic",
    "get_heuristic",
    "available_heuristics",
]


class SessionReconstructor(ABC):
    """Base class for reactive session reconstruction heuristics.

    Subclasses implement :meth:`reconstruct_user`, which receives one user's
    requests already validated and sorted, and return the sessions they
    carve out of it.
    """

    #: short identifier (e.g. ``"heur4"``); set by subclasses.
    name: str = "base"
    #: human-readable label used in reports and plots.
    label: str = "abstract reconstructor"
    #: whether :meth:`reconstruct` accepts ``engine="columnar"`` — set by
    #: subclasses that implement :meth:`_columnar_plane`.
    supports_columnar: bool = False

    def _columnar_plane(self):
        """The heuristic's :class:`~repro.core.columnar.ColumnarPlane`.

        Only called when :attr:`supports_columnar` is true; subclasses
        that set the flag must override this (and should cache the plane,
        so the symbol table is interned once per heuristic instance).
        """
        raise NotImplementedError(
            f"{type(self).__name__} declares no columnar plane")

    @abstractmethod
    def reconstruct_user(self, requests: Sequence[Request]) -> list[Session]:
        """Split one user's chronological request stream into sessions.

        Args:
            requests: the user's requests in non-decreasing timestamp order,
                all sharing one ``user_id``.  Never empty.

        Returns:
            The reconstructed sessions, in discovery order.
        """

    def reconstruct(self, requests: Iterable[Request], *,
                    engine: str = "object") -> SessionSet:
        """Reconstruct sessions for a whole (possibly multi-user) stream.

        The stream is partitioned by ``user_id``; each user's sub-stream is
        sorted by timestamp and handed to :meth:`reconstruct_user`.  Users
        are processed in order of their first appearance so output is
        deterministic.

        Args:
            requests: the request stream, in any order.
            engine: ``"object"`` (default) runs :meth:`reconstruct_user`
                per user; ``"columnar"`` runs the heuristic's vectorized
                data plane (:mod:`repro.core.columnar`) over interned
                int columns — same session *set*, deterministic but
                possibly different construction order.  Only heuristics
                with :attr:`supports_columnar` accept it.

        Raises:
            ReconstructionError: if any request has a negative timestamp.
            ConfigurationError: for an unknown ``engine``, or
                ``engine="columnar"`` on a heuristic without a columnar
                plane.
        """
        from repro.parallel import paused_gc

        if engine not in ("object", "columnar"):
            raise ConfigurationError(
                f"unknown engine {engine!r}; use 'object' or 'columnar'")
        if engine == "columnar" and not self.supports_columnar:
            raise ConfigurationError(
                f"heuristic {self.name!r} has no columnar data plane; "
                "use engine='object'")
        registry = get_registry()
        # The whole batch — partitioning, sorting, reconstruction and the
        # result set — only allocates objects that stay live until it
        # returns, so generational GC passes mid-batch scan an
        # ever-growing heap for nothing; pausing them keeps per-record
        # cost flat as the log grows (see docs/performance.md).
        with paused_gc():
            per_user: dict[str, list[Request]] = {}
            n_requests = 0
            for request in requests:
                if request.timestamp < 0:
                    raise ReconstructionError(
                        f"negative timestamp {request.timestamp} for user "
                        f"{request.user_id!r}"
                    )
                per_user.setdefault(request.user_id, []).append(request)
                n_requests += 1

            sessions: list[Session] = []
            with registry.span("sessions.reconstruct",
                               heuristic=self.name, users=len(per_user)), \
                    registry.timer("sessions.reconstruct.seconds",
                                   heuristic=self.name):
                for user_requests in per_user.values():
                    user_requests.sort(key=lambda r: r.timestamp)
                if engine == "columnar":
                    from repro.core import columnar
                    plane = self._columnar_plane()
                    with registry.span("sessions.columnar",
                                       heuristic=self.name), \
                            registry.timer("sessions.columnar.seconds",
                                           heuristic=self.name):
                        sessions.extend(columnar.reconstruct_serial(
                            plane, per_user))
                else:
                    for user_requests in per_user.values():
                        sessions.extend(
                            self.reconstruct_user(user_requests))
            if registry.enabled:
                registry.counter("sessions.requests",
                                 heuristic=self.name).inc(n_requests)
                registry.counter("sessions.reconstructed",
                                 heuristic=self.name).inc(len(sessions))
                lengths = registry.histogram("sessions.length",
                                             SIZE_BUCKETS,
                                             heuristic=self.name)
                for session in sessions:
                    lengths.observe(len(session))
            return SessionSet(sessions)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


#: Maps registry names to zero-argument factories producing a default-
#: configured instance of the heuristic.  Factories (rather than instances)
#: keep registered heuristics stateless across experiments.
HEURISTIC_REGISTRY: dict[str, Callable[[], SessionReconstructor]] = {}


def register_heuristic(*names: str) -> Callable[
        [Callable[[], SessionReconstructor]],
        Callable[[], SessionReconstructor]]:
    """Class/factory decorator adding an entry to :data:`HEURISTIC_REGISTRY`.

    Args:
        names: one or more registry keys (e.g. ``"heur1"``, ``"duration"``).

    Raises:
        ReconstructionError: if a name is already taken by a different
            factory (idempotent re-registration of the same factory is
            allowed so modules may be re-imported freely).
    """
    def decorator(factory: Callable[[], SessionReconstructor]
                  ) -> Callable[[], SessionReconstructor]:
        for name in names:
            existing = HEURISTIC_REGISTRY.get(name)
            if existing is not None and existing is not factory:
                raise ReconstructionError(
                    f"heuristic name {name!r} is already registered")
            HEURISTIC_REGISTRY[name] = factory
        return factory
    return decorator


def get_heuristic(name: str) -> SessionReconstructor:
    """Instantiate a registered heuristic by name.

    Raises:
        ReconstructionError: for an unknown name; the message lists the
            available names.
    """
    try:
        factory = HEURISTIC_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(HEURISTIC_REGISTRY))
        raise ReconstructionError(
            f"unknown heuristic {name!r}; available: {known}") from None
    return factory()


def available_heuristics() -> tuple[str, ...]:
    """All registered heuristic names, sorted."""
    return tuple(sorted(HEURISTIC_REGISTRY))
