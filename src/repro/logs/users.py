"""User identity handling for access logs.

Reactive strategies identify a "user" by the client IP (plus user agent
when logged — plain CLF has no user-agent field, so IP is all we have, and
the paper discusses exactly this weakness: all users behind one proxy share
an IP).

:class:`UserAddressMap` assigns deterministic synthetic IPs to simulated
agent identities.  By default the assignment is one-to-one; a
``proxy_group_size`` greater than one deliberately funnels several agents
through one IP, reproducing the proxy problem for stress experiments.

:func:`partition_by_user` groups cleaned log records into per-user
chronological request streams — the heuristics' unit of work.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.exceptions import LogFormatError
from repro.logs.clf import CLFRecord
from repro.logs.reader import iter_requests
from repro.sessions.model import Request

__all__ = ["UserAddressMap", "IdentityAddressMap", "partition_by_user"]


class UserAddressMap:
    """Deterministic agent-identity → synthetic-IP assignment.

    IPs are allocated in the ``10.0.0.0/8`` private block in order of first
    appearance: agent 0 gets ``10.0.0.1``, agent 1 gets ``10.0.0.2``, …
    (the host byte skips ``.0``).  With ``proxy_group_size=k``, agents are
    assigned in groups of ``k`` to one shared IP, modeling a caching proxy
    in front of ``k`` users.

    Args:
        proxy_group_size: number of distinct agents per IP (default 1).

    Raises:
        LogFormatError: for a non-positive group size, or when the address
            block is exhausted (more than ~16.6M distinct IPs requested).
    """

    def __init__(self, proxy_group_size: int = 1) -> None:
        if proxy_group_size <= 0:
            raise LogFormatError(
                f"proxy_group_size must be positive, got {proxy_group_size}")
        self.proxy_group_size = proxy_group_size
        self._ip_by_user: dict[str, str] = {}
        self._users_by_ip: dict[str, list[str]] = {}
        self._next_index = 0

    def ip_for(self, user_id: str) -> str:
        """The IP assigned to ``user_id`` (allocating on first sight)."""
        ip = self._ip_by_user.get(user_id)
        if ip is None:
            ip = self._index_to_ip(self._next_index // self.proxy_group_size)
            self._next_index += 1
            self._ip_by_user[user_id] = ip
            self._users_by_ip.setdefault(ip, []).append(user_id)
        return ip

    def users_for(self, ip: str) -> tuple[str, ...]:
        """All agent identities sharing ``ip`` (empty tuple if unknown)."""
        return tuple(self._users_by_ip.get(ip, ()))

    def __len__(self) -> int:
        return len(self._ip_by_user)

    @staticmethod
    def _index_to_ip(index: int) -> str:
        # Skip host byte 0 within each /24 for cosmetic realism.
        host = index % 254 + 1
        block = index // 254
        low = block % 256
        high = block // 256
        if high > 255:
            raise LogFormatError("synthetic IP block 10.0.0.0/8 exhausted")
        return f"10.{high}.{low}.{host}"


class IdentityAddressMap:
    """Address map that writes the agent identity as the CLF host field.

    CLF's first field may be a hostname rather than an IP, so using the
    simulated agent id directly is format-legal and makes the log round
    trip identity-preserving — ground-truth sessions and reconstructed
    sessions then share user ids without a translation table.  The CLI's
    ``simulate`` command uses this map by default.
    """

    proxy_group_size = 1

    def ip_for(self, user_id: str) -> str:
        """Return ``user_id`` unchanged."""
        return user_id

    def users_for(self, ip: str) -> tuple[str, ...]:
        """Trivially, the host *is* the user."""
        return (ip,)


def partition_by_user(records: Iterable[CLFRecord],
                      page_views_only: bool = True
                      ) -> dict[str, list[Request]]:
    """Group log records into per-user chronological request streams.

    Args:
        records: parsed log records, in any order.
        page_views_only: keep only records passing the classic page-view
            filter (successful GETs); set ``False`` when the caller has
            already cleaned the log.

    Returns:
        ``{ip: [Request, …]}`` with each list sorted by timestamp.  Each
        request is the record's projection by
        :func:`~repro.logs.reader.iter_requests`: ``user_id`` is the host
        IP, ``page`` the URL mapped through
        :func:`~repro.logs.clf.url_to_page`, and a Combined referrer
        survives as the ``referrer`` page.
    """
    streams: dict[str, list[Request]] = {}
    for request in iter_requests(records, page_views_only):
        streams.setdefault(request.user_id, []).append(request)
    for stream in streams.values():
        stream.sort(key=lambda request: request.timestamp)
    return streams


def flatten_streams(streams: dict[str, Sequence[Request]]) -> list[Request]:
    """Merge per-user streams back into one time-sorted request list."""
    merged = [request for stream in streams.values() for request in stream]
    merged.sort(key=lambda request: (request.timestamp, request.user_id))
    return merged
