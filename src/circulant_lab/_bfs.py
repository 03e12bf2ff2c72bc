"""The first-in-first-out walks behind every breadth-first search here.

``reach`` and ``components`` are the orbit algorithm: connectivity, the
search's vertex order and group orbits are all one of them.  A graph keeps
its walk from vertex 0 (``Graph.walk_from_0``), and the search's vertex
order walks the other components only on a disconnected graph.
``components`` is the one labelled walk: it gives each point the index of
its class as it reaches it, so group orbits and the orbit map of a
quotient come from one pass over the points.  Callers
that act on each edge (a Schreier tree, a Cayley graph, the girth) or walk
integer-coded nodes in a hot loop (the arc orbit) walk their own list the
same way: it grows while it is walked, so it is the FIFO queue.
"""
from __future__ import annotations

from typing import Callable, Iterable, TypeVar

T = TypeVar("T")


def reach(starts: Iterable[T], step: Callable[[T], Iterable[T]]) -> list[T]:
    """The starts plus every node step() leads to, each once, in FIFO order.

    step(node) lists the node's neighbours; repeats and nodes already
    reached are allowed and skipped.
    """
    return _reach(starts, step, set())


def components(n: int, step: Callable[[int], Iterable[int]]
               ) -> tuple[list[list[int]], list[int]]:
    """The classes of 0..n-1 under step, ordered by smallest member, each
    listed in FIFO order from that member, and the label of each point: the
    index of its class, given as the walk reaches it."""
    label = [-1] * n
    classes: list[list[int]] = []
    for root in range(n):
        if label[root] >= 0:
            continue
        c = len(classes)
        label[root] = c
        order = [root]
        for node in order:  # order grows while it is walked: it is the FIFO queue
            for nxt in step(node):
                if label[nxt] < 0:
                    label[nxt] = c
                    order.append(nxt)
        classes.append(order)
    return classes, label


def _reach(starts: Iterable[T], step: Callable[[T], Iterable[T]], seen: set) -> list[T]:
    order = []
    for node in starts:
        if node not in seen:
            seen.add(node)
            order.append(node)
    for node in order:  # order grows while it is walked: it is the FIFO queue
        for nxt in step(node):
            if nxt not in seen:
                seen.add(nxt)
                order.append(nxt)
    return order
