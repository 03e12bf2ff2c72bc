"""The one first-in-first-out walk behind every breadth-first search here."""
from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Iterator, TypeVar

T = TypeVar("T")


def bfs(starts: Iterable[T], discover: Callable[[T], Iterable[T]]) -> Iterator[T]:
    """Yield the starts, then every node discover() reports, in FIFO order.

    discover(node) runs when node is dequeued and returns the nodes it finds
    for the first time; the caller keeps the visited marks, so it can also
    act on edges to nodes it has already seen.
    """
    queue = deque(starts)
    while queue:
        node = queue.popleft()
        yield node
        queue.extend(discover(node))
