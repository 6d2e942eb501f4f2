"""The :class:`WebGraph` value type.

A :class:`WebGraph` is a directed graph over page identifiers with a
designated non-empty set of *start pages*.  It is deliberately a thin,
immutable structure optimized for the two queries the heuristics hammer:

* ``has_link(src, dst)`` — the paper's ``Link[src, dst] = 1`` adjacency test;
* ``successors(page)`` / ``predecessors(page)`` — used by the simulator's
  navigation behaviors and by Smart-SRA's referrer scan.

Page identifiers are strings.  The conventional naming used by the
generators is ``"P0" … "Pn-1"``, matching the paper's examples, but any
string works.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from repro.exceptions import TopologyError

__all__ = ["WebGraph", "AdjacencyIndex"]


class AdjacencyIndex:
    """Interned integer view of a :class:`WebGraph`'s adjacency.

    Pages are assigned dense integer ids by sorted page name, and the
    predecessor relation is precomputed both as frozensets of ids (O(1)
    membership, cheap int hashing) and as numerically sorted id tuples
    (deterministic iteration — numeric id order *is* lexicographic page
    order, because ids are sorted-name ranks).  Smart-SRA Phase 2's inner
    loop runs entirely on this view; see
    :meth:`WebGraph.adjacency_index`.

    Attributes:
        pages: page names, indexed by id (sorted).
        page_id: name → id mapping.
        pred_id_sets: per page id, the frozenset of predecessor ids.
        pred_sorted_ids: per page id, predecessor ids as a sorted tuple.
    """

    __slots__ = ("pages", "page_id", "pred_id_sets", "pred_sorted_ids")

    def __init__(self, pred: Mapping[str, frozenset[str]]) -> None:
        self.pages: tuple[str, ...] = tuple(sorted(pred))
        self.page_id: dict[str, int] = {
            page: index for index, page in enumerate(self.pages)}
        self.pred_id_sets: tuple[frozenset[int], ...] = tuple(
            frozenset(self.page_id[source] for source in pred[page])
            for page in self.pages)
        self.pred_sorted_ids: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(id_set)) for id_set in self.pred_id_sets)


class WebGraph:
    """Immutable directed web-site graph with start pages.

    Args:
        edges: iterable of ``(source, target)`` hyperlink pairs.  Self-loops
            are rejected (a page linking to itself never creates a new
            server request) and duplicates are collapsed.
        pages: optional explicit node set.  Nodes mentioned by ``edges`` are
            always included; pass ``pages`` to add isolated pages.
        start_pages: the session entry pages.  Must be a non-empty subset of
            the node set.

    Raises:
        TopologyError: for an edge touching a page outside ``pages`` (when
            ``pages`` is given), a self-loop, an empty or invalid start-page
            set, or an empty graph.
    """

    __slots__ = ("_succ", "_pred", "_start_pages", "_edge_count", "_index")

    def __init__(self, edges: Iterable[tuple[str, str]],
                 pages: Iterable[str] | None = None,
                 start_pages: Iterable[str] = ()) -> None:
        succ: dict[str, set[str]] = {}
        explicit = set(pages) if pages is not None else None
        if explicit is not None:
            for page in explicit:
                succ[page] = set()

        edge_count = 0
        for src, dst in edges:
            if src == dst:
                raise TopologyError(f"self-loop on page {src!r} is not allowed")
            if explicit is not None and (src not in explicit
                                         or dst not in explicit):
                raise TopologyError(
                    f"edge ({src!r}, {dst!r}) mentions a page outside the "
                    "explicit page set")
            targets = succ.setdefault(src, set())
            succ.setdefault(dst, set())
            if dst not in targets:
                targets.add(dst)
                edge_count += 1

        if not succ:
            raise TopologyError("a web graph must contain at least one page")

        pred: dict[str, set[str]] = {page: set() for page in succ}
        for src, targets in succ.items():
            for dst in targets:
                pred[dst].add(src)

        starts = frozenset(start_pages)
        if not starts:
            raise TopologyError("a web graph needs at least one start page")
        unknown = starts - succ.keys()
        if unknown:
            raise TopologyError(
                f"start pages not present in the graph: {sorted(unknown)}")

        # Freeze adjacency as sorted tuples for deterministic iteration and
        # keep the sets for O(1) membership.
        self._succ: dict[str, frozenset[str]] = {
            page: frozenset(targets) for page, targets in succ.items()}
        self._pred: dict[str, frozenset[str]] = {
            page: frozenset(sources) for page, sources in pred.items()}
        self._start_pages: frozenset[str] = starts
        self._edge_count = edge_count
        self._index: AdjacencyIndex | None = None

    # -- basic queries ------------------------------------------------------

    @property
    def pages(self) -> frozenset[str]:
        """All page identifiers."""
        return frozenset(self._succ)

    @property
    def start_pages(self) -> frozenset[str]:
        """Pages at which a session may begin."""
        return self._start_pages

    @property
    def page_count(self) -> int:
        """Number of pages."""
        return len(self._succ)

    @property
    def edge_count(self) -> int:
        """Number of distinct hyperlinks."""
        return self._edge_count

    def __contains__(self, page: str) -> bool:
        return page in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._succ))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WebGraph):
            return NotImplemented
        return (self._succ == other._succ
                and self._start_pages == other._start_pages)

    def __repr__(self) -> str:
        return (f"WebGraph({self.page_count} pages, {self.edge_count} links, "
                f"{len(self._start_pages)} start pages)")

    def has_link(self, src: str, dst: str) -> bool:
        """The paper's adjacency test ``Link[src, dst] = 1``.

        Unknown pages simply have no links; no exception is raised, because
        real logs routinely mention pages absent from the crawled topology.
        """
        targets = self._succ.get(src)
        return targets is not None and dst in targets

    def successors(self, page: str) -> frozenset[str]:
        """Pages directly reachable from ``page`` (empty for unknown pages)."""
        return self._succ.get(page, frozenset())

    def predecessors(self, page: str) -> frozenset[str]:
        """Pages with a hyperlink *to* ``page`` (empty for unknown pages)."""
        return self._pred.get(page, frozenset())

    def adjacency_index(self) -> AdjacencyIndex:
        """The interned integer adjacency view (built once, then cached).

        The cache never crosses a pickle boundary — parallel workers
        rebuild it locally in O(pages + links), keeping worker payloads
        slim — and the graph's immutability makes sharing it safe.
        """
        index = self._index
        if index is None:
            index = self._index = AdjacencyIndex(self._pred)
        return index

    def __getstate__(self) -> dict[str, object]:
        return {"_succ": self._succ, "_pred": self._pred,
                "_start_pages": self._start_pages,
                "_edge_count": self._edge_count}

    def __setstate__(self, state: dict[str, object]) -> None:
        for slot, value in state.items():
            object.__setattr__(self, slot, value)
        object.__setattr__(self, "_index", None)

    def out_degree(self, page: str) -> int:
        """Number of out-links of ``page`` (0 for unknown pages)."""
        return len(self._succ.get(page, frozenset()))

    def in_degree(self, page: str) -> int:
        """Number of in-links of ``page`` (0 for unknown pages)."""
        return len(self._pred.get(page, frozenset()))

    def edges(self) -> Iterator[tuple[str, str]]:
        """All hyperlinks as ``(source, target)`` pairs, sorted."""
        for src in sorted(self._succ):
            for dst in sorted(self._succ[src]):
                yield (src, dst)

    # -- derived graphs ------------------------------------------------------

    def restricted_to(self, pages: Iterable[str]) -> "WebGraph":
        """Induced subgraph on ``pages`` ∩ this graph's pages.

        The paper's Phase 2 note — "if the web topology graph contains
        vertices ... that do not appear in the candidate session ... these
        vertices and their incident edges must be removed" — is this
        operation.  Pages in ``pages`` that the graph does not know are
        silently ignored; if no requested start page survives, every
        surviving page is promoted to a start page so the result is still a
        valid :class:`WebGraph`.

        Raises:
            TopologyError: if the intersection is empty.
        """
        keep = set(pages) & self._succ.keys()
        if not keep:
            raise TopologyError(
                "restriction would produce an empty graph")
        edges = [(src, dst) for src in keep
                 for dst in self._succ[src] if dst in keep]
        starts = self._start_pages & keep
        if not starts:
            starts = frozenset(keep)
        return WebGraph(edges, pages=keep, start_pages=starts)

    def fingerprint(self) -> str:
        """Stable content hash of the graph (pages, links, start pages).

        Equal graphs produce equal fingerprints across processes and
        platforms; used to key simulation caches and dataset manifests.
        """
        import hashlib

        digest = hashlib.sha256()
        for page in sorted(self._succ):
            digest.update(page.encode("utf-8"))
            digest.update(b"\x00")
        digest.update(b"\x01")
        for src, dst in self.edges():
            digest.update(f"{src}>{dst}".encode("utf-8"))
            digest.update(b"\x00")
        digest.update(b"\x01")
        for page in sorted(self._start_pages):
            digest.update(page.encode("utf-8"))
            digest.update(b"\x00")
        return digest.hexdigest()[:16]

    # -- construction --------------------------------------------------------

    @classmethod
    def from_adjacency(cls, adjacency: Mapping[str, Iterable[str]],
                       start_pages: Iterable[str]) -> "WebGraph":
        """Build from a ``{page: [linked pages]}`` mapping."""
        edges = [(src, dst) for src, targets in adjacency.items()
                 for dst in targets]
        return cls(edges, pages=adjacency.keys() | {
            dst for targets in adjacency.values() for dst in targets},
            start_pages=start_pages)
