"""Monotone priority queues: a binary-heap baseline and a two-level bucket
queue whose active bucket is split into per-item sub-buckets backed by binary
heaps.

Both queues assume monotone use: once an item has been extracted, no item
with a smaller key is inserted.  Under that contract successive extractions
return non-decreasing keys.  Ties go by whole ``(key, item)`` entries, so
items with equal keys must be mutually orderable, and both queues, like a
``heapq`` list of them, extract one (item, key) sequence from any trace.

Both queues offer the same operations:

* ``insert(item, key)`` adds an item; key must be >= the last extracted key;
* ``min_key()`` returns the smallest key present, or ``math.inf`` when empty;
* ``extract_min()`` removes and returns ``(item, key)``, or ``None`` when
  empty;
* ``len(queue)`` is the number of items, and ``stats`` its
  :class:`QueueStats`.

Keys are non-negative finite floats.  An insert that breaks the contract
raises ``AssertionError``; the check is an explicit ``raise``, so it holds
under ``python -O`` too.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Any, List, Optional, Tuple, Union


@dataclass
class QueueStats:
    """Operation counters; ``late_inserts`` counts items that arrived in a
    top-level bucket after it had already been split."""

    inserts: int = 0
    extracts: int = 0
    max_subbucket_size: int = 0
    splits: int = 0
    heap_comparisons: int = 0
    late_inserts: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class _Heap:
    """Array binary min-heap of (key, item) pairs, ordered as tuples.

    Sift comparisons are tallied into a shared single-element list so that a
    bucket queue can aggregate the work done across all of its sub-heaps.
    """

    __slots__ = ("a", "cmps")

    def __init__(self, cmps: List[int]):
        self.a: List[Tuple[float, Any]] = []
        self.cmps = cmps

    def __len__(self):
        return len(self.a)

    def push(self, key: float, item: Any) -> None:
        a = self.a
        e = (key, item)
        a.append(e)
        i = len(a) - 1
        cm = 0
        while i > 0:
            parent = (i - 1) >> 1
            cm += 1
            if a[parent] <= e:
                break
            a[i] = a[parent]
            i = parent
        a[i] = e
        self.cmps[0] += cm

    def peek_key(self) -> float:
        return self.a[0][0]

    def pop(self) -> Tuple[float, Any]:
        a = self.a
        top = a[0]
        last = a.pop()
        n = len(a)
        if n:
            i = 0
            cm = 0
            while True:
                left = 2 * i + 1
                if left >= n:
                    break
                child = left
                right = left + 1
                if right < n:
                    cm += 1
                    if a[right] < a[left]:
                        child = right
                cm += 1
                if a[child] >= last:
                    break
                a[i] = a[child]
                i = child
            a[i] = last
            self.cmps[0] += cm
        return top


class BinaryHeapQueue:
    """Plain binary-heap monotone queue; also usable as a general heap."""

    __slots__ = ("_cmps", "_heap", "_last", "stats")

    def __init__(self):
        self._cmps = [0]
        self._heap = _Heap(self._cmps)
        self._last = -math.inf
        self.stats = QueueStats()

    def __len__(self):
        return len(self._heap)

    def insert(self, item, key):
        if key < self._last:
            raise AssertionError("monotone-use contract violated")
        self._heap.push(key, item)
        self.stats.inserts += 1
        self.stats.heap_comparisons = self._cmps[0]

    def min_key(self):
        return self._heap.peek_key() if len(self._heap) else math.inf

    def extract_min(self):
        if not len(self._heap):
            return None
        key, item = self._heap.pop()
        self._last = key
        self.stats.extracts += 1
        self.stats.heap_comparisons = self._cmps[0]
        return item, key


class BucketQueue:
    """Two-level bucket monotone priority queue.

    ``nbuckets`` fixed-width buckets of width ``width`` cover keys in
    [0, nbuckets*width); larger keys are clamped into the last bucket.  A
    bucket holds an unsorted list until it is first touched by an extraction;
    at that point, if it holds b items, it is split into b equal sub-ranges,
    each backed by a binary heap (empty sub-ranges share one empty heap
    until an item arrives).  The last bucket is instead dumped into a
    single heap, since its key range is unbounded.  Items inserted into an
    already-split bucket go directly into the proper sub-heap.
    """

    __slots__ = ("B", "W", "_pending", "_minkey", "_a", "_active", "_subs",
                 "_sub_idx", "_nsubs", "_size", "_cmps", "_empty", "_last",
                 "stats")

    def __init__(self, nbuckets: int, width: float):
        if nbuckets < 1:
            raise ValueError("need at least one bucket")
        if not (0 < width < math.inf):
            raise ValueError("bucket width must be finite and positive")
        self.B = int(nbuckets)
        self.W = float(width)
        self._pending: List[Optional[list]] = [None] * self.B
        self._minkey = [math.inf] * self.B
        self._a = 0                  # all buckets below this index are done
        self._active = -1            # index of the split bucket, or -1
        self._subs: List[_Heap] = []
        self._sub_idx = 0
        self._nsubs = 0
        self._size = 0
        self._cmps = [0]
        self._empty = _Heap(self._cmps)  # stands in for every empty sub-heap
        self._last = -math.inf
        self.stats = QueueStats()

    def __len__(self):
        return self._size

    def _bucket_index(self, key: float) -> int:
        i = int(key / self.W)
        return i if i < self.B else self.B - 1

    def _sub_index(self, key: float) -> int:
        # clamp: round-off at the top boundary may push the raw index to b
        j = int((key - self._active * self.W) * self._nsubs / self.W)
        if j < 0:
            return 0
        return j if j < self._nsubs else self._nsubs - 1

    def insert(self, item, key):
        if key < self._last:
            raise AssertionError("monotone-use contract violated")
        self._size += 1
        self.stats.inserts += 1
        i = self._bucket_index(key)
        if i == self._active:
            j = 0 if self._nsubs == 1 else self._sub_index(key)
            heap = self._subs[j]
            if heap is self._empty:
                heap = self._subs[j] = _Heap(self._cmps)
            heap.push(key, item)
            if j < self._sub_idx:
                self._sub_idx = j
            self.stats.late_inserts += 1
            self.stats.heap_comparisons = self._cmps[0]
            if len(heap.a) > self.stats.max_subbucket_size:
                self.stats.max_subbucket_size = len(heap.a)
            return
        if i < self._a and self._active != -1:
            raise AssertionError("insert below the active bucket")
        bucket = self._pending[i]
        if bucket is None:
            bucket = self._pending[i] = []
        bucket.append((key, item))
        if key < self._minkey[i]:
            self._minkey[i] = key
        if i < self._a:
            # min_key may have moved the scan index past empty buckets.  No
            # bucket is split (checked above), so this is legal before or
            # after an extraction: rewind the scan index to the key's bucket
            self._a = i

    def _split(self, i: int) -> None:
        items = self._pending[i]
        self._pending[i] = None
        self._minkey[i] = math.inf
        b = len(items)
        self._active = i
        self._sub_idx = 0
        self.stats.splits += 1
        # the last bucket's key range is unbounded: one heap, no sub-bucketing
        self._nsubs = 1 if i == self.B - 1 else b
        subs = self._subs = [self._empty] * self._nsubs
        used = []
        for key, item in items:
            j = self._sub_index(key)
            heap = subs[j]
            if heap is self._empty:
                heap = subs[j] = _Heap(self._cmps)
                used.append(heap)
            heap.push(key, item)
        for heap in used:
            if len(heap.a) > self.stats.max_subbucket_size:
                self.stats.max_subbucket_size = len(heap.a)

    _EMPTY, _AT_SUBHEAP, _AT_PENDING = 0, 1, 2

    def _locate(self) -> int:
        """Advance the scan position to the first item without splitting.

        Skips exhausted buckets (and drained sub-heaps of the active bucket)
        by moving the active index forward; never splits a pending bucket.
        """
        if not self._size:
            return self._EMPTY
        while True:
            if self._active == self._a:
                while self._sub_idx < self._nsubs:
                    if self._subs[self._sub_idx].a:
                        return self._AT_SUBHEAP
                    self._sub_idx += 1
                self._active = -1
                self._subs = []
                self._a += 1
                continue
            if self._pending[self._a]:
                return self._AT_PENDING
            self._a += 1

    def min_key(self):
        if self._active == self._a:  # fast path: the current sub-heap
            a = self._subs[self._sub_idx].a
            if a:
                return a[0][0]
        where = self._locate()
        if where == self._EMPTY:
            return math.inf
        if where == self._AT_SUBHEAP:
            return self._subs[self._sub_idx].peek_key()
        return self._minkey[self._a]

    def extract_min(self):
        if self._active != self._a or not self._subs[self._sub_idx].a:
            where = self._locate()
            if where == self._EMPTY:
                return None
            if where == self._AT_PENDING:
                self._split(self._a)
                self._locate()
        key, item = self._subs[self._sub_idx].pop()
        self._size -= 1
        self._last = key
        self.stats.extracts += 1
        self.stats.heap_comparisons = self._cmps[0]
        return item, key


def bucket_defaults(n: int) -> Tuple[int, float]:
    """Bucket count and width tuned for n-vertex runs: B = n, W = 1/(n ln n)."""
    n = max(int(n), 1)
    width = 1.0 / (n * math.log(n)) if n > 1 else 1.0
    return n, width


def replay(trace, queue: Union[BinaryHeapQueue, BucketQueue]) -> List[float]:
    """Drive ``queue`` with a recorded trace; return the extraction keys.

    A trace is a sequence of operations: ``("i", key)`` inserts (items are
    synthesized) and ``("x",)`` extracts.
    """
    keys: List[float] = []
    serial = 0
    for op in trace:
        if op[0] == "i":
            queue.insert(serial, op[1])
            serial += 1
        else:
            got = queue.extract_min()
            if got is None:
                raise AssertionError("replay extracted from an empty queue")
            keys.append(got[1])
    return keys
