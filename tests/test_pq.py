import heapq
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsp.graph import EXPONENTIAL, WEIBULL, WeightModel, gen_complete
from fbsp.pq import (BinaryHeapQueue, BucketQueue, QueueStats, _Heap,
                     bucket_defaults, replay)
from fbsp.sssp import replay_trace


def make_bucket(nbuckets=4, width=1.0):
    return BucketQueue(nbuckets, width)


def test_bucket_index_placement():
    q = make_bucket(nbuckets=4, width=1.0)
    assert q._bucket_index(0.0) == 0
    assert q._bucket_index(0.99) == 0
    assert q._bucket_index(1.0) == 1
    assert q._bucket_index(7.5) == 3  # overflow clamps into the last bucket


def test_empty_queue_sentinels():
    for q in (BinaryHeapQueue(), make_bucket()):
        assert q.min_key() == math.inf
        assert q.extract_min() is None
        assert len(q) == 0


def test_min_then_extract_agree():
    for q in (BinaryHeapQueue(), make_bucket()):
        q.insert("a", 2.0)
        q.insert("b", 5.0)
        assert q.min_key() == 2.0
        item, key = q.extract_min()
        assert key == 2.0


def test_first_extraction_is_min():
    for q in (BinaryHeapQueue(), make_bucket()):
        for key in (3.2, 1.1, 1.1):
            q.insert(key, key)
        assert q.extract_min()[1] == 1.1


def test_overflow_keys_are_not_lost():
    q = make_bucket(nbuckets=4, width=1.0)
    keys = [7.5, 12.0, 3.9, 100.0, 3.5]
    for k in keys:
        q.insert(k, k)
    out = [q.extract_min()[1] for _ in range(len(keys))]
    assert out == sorted(keys)
    assert q.extract_min() is None


def _random_monotone_trace(rng, ops, key_scale=1.0, start_batch=8):
    """Interleaved inserts/extracts whose insert keys never drop below the
    last extracted key, mimicking legal monotone use."""
    trace = []
    pending = []
    floor_key = 0.0
    for _ in range(start_batch):
        k = rng.random() * key_scale
        pending.append(k)
        trace.append(("i", k))
    for _ in range(ops):
        if pending and rng.random() < 0.5:
            pending.sort()
            floor_key = pending.pop(0)
            trace.append(("x",))
        else:
            k = floor_key + rng.expovariate(1.0) * key_scale * 0.1
            pending.append(k)
            trace.append(("i", k))
    while pending:
        pending.sort()
        pending.pop(0)
        trace.append(("x",))
    return trace


def test_trace_equivalence_with_binary_heap():
    rng = random.Random(7)
    trace = _random_monotone_trace(rng, 10_000)
    heap_keys = replay(trace, BinaryHeapQueue())
    nb, w = bucket_defaults(1000)
    bucket_keys = replay(trace, BucketQueue(nb, w))
    assert heap_keys == bucket_keys
    assert heap_keys == sorted(heap_keys)


@pytest.mark.parametrize("nbuckets,width", [(1, 0.5), (3, 0.01), (64, 0.125),
                                            (1000, 1e-4)])
def test_trace_equivalence_across_geometries(nbuckets, width):
    rng = random.Random(nbuckets)
    trace = _random_monotone_trace(rng, 600, key_scale=nbuckets * width)
    ref = replay(trace, BinaryHeapQueue())
    got = replay(trace, BucketQueue(nbuckets, width))
    assert got == ref


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=0.0, max_value=50.0,
                          allow_nan=False), min_size=0, max_size=80),
       st.integers(min_value=1, max_value=20),
       st.floats(min_value=0.01, max_value=5.0))
def test_bulk_insert_then_drain_is_sorted(keys, nbuckets, width):
    q = BucketQueue(nbuckets, width)
    for k in keys:
        q.insert(k, k)
    out = []
    while True:
        got = q.extract_min()
        if got is None:
            break
        out.append(got[1])
    assert out == sorted(keys)
    assert q.stats.extracts == q.stats.inserts == len(keys)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_random_trace_property(seed):
    rng = random.Random(seed)
    trace = _random_monotone_trace(rng, 200)
    ref = replay(trace, BinaryHeapQueue())
    got = replay(trace, BucketQueue(7, 0.07))
    assert got == ref
    assert got == sorted(got)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_queue_extracts_the_least_key_then_item(data):
    # ties are heavy: every key is one of 3-5 multiples of a quarter bucket,
    # up to a bucket and a half past the last one, which is clamped
    nb = data.draw(st.integers(1, 6), label="nbuckets")
    width = data.draw(st.sampled_from([0.05, 0.3, 1.0]), label="width")
    steps = data.draw(st.lists(st.integers(0, 4 * nb + 6), min_size=3,
                               max_size=5, unique=True), label="quarters")
    values = sorted(k * width / 4 for k in steps)
    ref: list = []   # heapq list of (key, item)
    queues = (BucketQueue(nb, width), BinaryHeapQueue())
    got = ([], [], [])

    def extract():
        key, item = heapq.heappop(ref)
        got[0].append((item, key))
        for q, out in zip(queues, got[1:]):
            out.append(q.extract_min())
        return key

    last = 0.0
    for _ in range(data.draw(st.integers(0, 80), label="ops")):
        if ref and data.draw(st.booleans(), label="extract"):
            last = extract()
        else:
            key = data.draw(st.sampled_from([k for k in values if k >= last]),
                            label="key")
            item = data.draw(st.integers(0, 9), label="item")
            heapq.heappush(ref, (key, item))
            for q in queues:
                q.insert(item, key)
    while ref:
        extract()
    assert got[1] == got[0]
    assert got[2] == got[0]
    assert all(q.extract_min() is None for q in queues)


def test_late_inserts_into_active_bucket():
    q = make_bucket(nbuckets=2, width=10.0)
    for k in (1.0, 2.0, 3.0):
        q.insert(k, k)
    assert q.extract_min()[1] == 1.0  # splits bucket 0
    q.insert(1.5, 1.5)  # lands in the already-active bucket
    q.insert(2.5, 2.5)
    assert q.stats.late_inserts == 2
    out = [q.extract_min()[1] for _ in range(4)]
    assert out == [1.5, 2.0, 2.5, 3.0]


def test_insert_below_scan_index_rewinds_it():
    # min_key advances the scan index past empty buckets; a later insert of a
    # smaller key is still legal before any extraction has happened
    q = make_bucket(nbuckets=8, width=1.0)
    q.insert("hi", 6.5)
    assert q.min_key() == 6.5
    q.insert("lo", 2.5)
    assert q.min_key() == 2.5
    assert q.extract_min() == ("lo", 2.5)
    assert q.extract_min() == ("hi", 6.5)
    # and after one, once the split bucket has drained
    q = make_bucket(nbuckets=10, width=1.0)
    q.insert("a", 5.2)
    q.insert("c", 7.5)
    assert q.extract_min() == ("a", 5.2)
    assert q.min_key() == 7.5  # the scan index moves to bucket 7
    q.insert("b", 5.5)
    assert q.extract_min() == ("b", 5.5)
    assert q.extract_min() == ("c", 7.5)


def test_monotone_contract_violation_detected():
    q = make_bucket(nbuckets=4, width=1.0)
    q.insert("a", 3.0)
    q.extract_min()
    with pytest.raises(AssertionError):
        q.insert("b", 1.0)


def test_stats_counters():
    q = make_bucket(nbuckets=4, width=1.0)
    for k in (0.1, 0.2, 0.3, 1.2):
        q.insert(k, k)
    assert q.stats.inserts == 4
    q.extract_min()
    assert q.stats.splits == 1
    assert q.stats.max_subbucket_size >= 1
    assert q.stats.extracts <= q.stats.inserts
    d = q.stats.as_dict()
    assert d["inserts"] == 4 and d["splits"] == 1


def test_bad_config_rejected():
    for nb, w in ((0, 1.0), (-2, 1.0), (4, 0.0), (4, -1.0), (4, math.inf),
                  (4, math.nan)):
        with pytest.raises(ValueError):
            BucketQueue(nb, w)


def test_bucket_defaults():
    nb, w = bucket_defaults(1000)
    assert nb == 1000
    assert w == pytest.approx(1.0 / (1000 * math.log(1000)))
    nb, w = bucket_defaults(1)
    assert nb == 1 and w == 1.0


def test_monotone_contract_holds_without_asserts():
    # python -O strips assert statements; the contract checks must survive
    code = ("from fbsp.pq import BinaryHeapQueue\n"
            "q = BinaryHeapQueue()\n"
            "q.insert('a', 5.0)\n"
            "q.extract_min()\n"
            "try:\n"
            "    q.insert('b', 1.0)\n"
            "except AssertionError:\n"
            "    print('refused')\n"
            "from fbsp.pq import replay\n"
            "try:\n"
            "    replay([('i', 1.0), ('x',), ('x',)], BinaryHeapQueue())\n"
            "except AssertionError:\n"
            "    print('empty')\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["refused", "empty"]


class ReferenceBucketQueue:
    """The bucket queue before its split grouped items and shared one empty
    sub-heap, frozen as the definition of what the queue must do: the same
    extractions, keys and counters on every trace."""

    def __init__(self, nbuckets, width):
        self.B = int(nbuckets)
        self.W = float(width)
        self._pending = [None] * self.B
        self._minkey = [math.inf] * self.B
        self._a = 0
        self._active = -1
        self._subs = []
        self._sub_idx = 0
        self._nsubs = 0
        self._size = 0
        self._cmps = [0]
        self._last = -math.inf
        self.stats = QueueStats()

    def __len__(self):
        return self._size

    def _bucket_index(self, key):
        i = int(key / self.W)
        return i if i < self.B else self.B - 1

    def _sub_index(self, key):
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
            heap.push(key, item)
            if j < self._sub_idx:
                self._sub_idx = j
            self.stats.late_inserts += 1
            self.stats.heap_comparisons = self._cmps[0]
            if len(heap) > self.stats.max_subbucket_size:
                self.stats.max_subbucket_size = len(heap)
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
            self._a = i

    def _split(self, i):
        items = self._pending[i]
        self._pending[i] = None
        self._minkey[i] = math.inf
        b = len(items)
        self._active = i
        self._sub_idx = 0
        self.stats.splits += 1
        if i == self.B - 1:
            self._nsubs = 1
            heap = _Heap(self._cmps)
            for key, item in items:
                heap.push(key, item)
            self._subs = [heap]
            if b > self.stats.max_subbucket_size:
                self.stats.max_subbucket_size = b
            return
        self._nsubs = b
        self._subs = [_Heap(self._cmps) for _ in range(b)]
        for key, item in items:
            self._subs[self._sub_index(key)].push(key, item)
        for heap in self._subs:
            if len(heap) > self.stats.max_subbucket_size:
                self.stats.max_subbucket_size = len(heap)

    def _locate(self):
        if not self._size:
            return 0
        while True:
            if self._active == self._a:
                while self._sub_idx < self._nsubs:
                    if len(self._subs[self._sub_idx]):
                        return 1
                    self._sub_idx += 1
                self._active = -1
                self._subs = []
                self._a += 1
                continue
            if self._pending[self._a]:
                return 2
            self._a += 1

    def min_key(self):
        where = self._locate()
        if where == 0:
            return math.inf
        if where == 1:
            return self._subs[self._sub_idx].peek_key()
        return self._minkey[self._a]

    def extract_min(self):
        where = self._locate()
        if where == 0:
            return None
        if where == 2:
            self._split(self._a)
            self._locate()
        key, item = self._subs[self._sub_idx].pop()
        self._size -= 1
        self._last = key
        self.stats.extracts += 1
        self.stats.heap_comparisons = self._cmps[0]
        return item, key


def _drive(trace, queue):
    """Replay ``trace`` probing min_key before every operation, as the
    search's drain loop does; return every probe, extraction and the
    counters."""
    seen = []
    serial = 0
    for op in trace:
        seen.append(queue.min_key())
        if op[0] == "i":
            queue.insert(serial, op[1])
            serial += 1
        else:
            seen.append(queue.extract_min())
    seen.append(queue.min_key())
    return seen, queue.stats.as_dict()


@pytest.mark.parametrize("kind,shape", [(EXPONENTIAL, None), (WEIBULL, 150.0)])
def test_bucket_queue_matches_frozen_reference_on_search_traces(kind, shape):
    for seed in range(3):
        n = 300
        g = gen_complete(n, WeightModel(kind, seed=seed, shape=shape))
        rec = replay_trace(g, seed)
        for trace in (rec.p_trace, rec.q_trace):
            for nb, w in (bucket_defaults(n), (3, 0.002), (n // 4, 4.0 / n)):
                want = _drive(trace, ReferenceBucketQueue(nb, w))
                assert _drive(trace, BucketQueue(nb, w)) == want


def test_bucket_queue_matches_frozen_reference_on_random_traces():
    rng = random.Random(31)
    late = 0
    for trial in range(300):
        nb = rng.randint(1, 6)
        w = rng.choice([0.05, 0.3, 1.0])
        trace = _random_monotone_trace(rng, rng.randint(0, 120),
                                       key_scale=nb * w * rng.choice([0.5, 2.0]),
                                       start_batch=rng.randint(0, 40))
        want = _drive(trace, ReferenceBucketQueue(nb, w))
        assert _drive(trace, BucketQueue(nb, w)) == want
        late += want[1]["late_inserts"]
    assert late > 0


def test_late_insert_into_an_empty_sub_bucket_gets_its_own_heap():
    q = make_bucket(nbuckets=2, width=10.0)
    for k in (0.5, 1.0, 6.0, 7.0):
        q.insert(k, k)
    # the split leaves sub-buckets [2.5, 5) and [7.5, 10) empty
    assert q.extract_min()[1] == 0.5
    q.insert(9.0, 9.0)
    assert [q.extract_min()[1] for _ in range(4)] == [1.0, 6.0, 7.0, 9.0]
    assert q.stats.late_inserts == 1
    assert not q._empty.a


def test_split_places_boundary_keys_where_late_inserts_go():
    # keys on the sub-bucket boundaries, where (key - lo) * b / W and a
    # rearranged (key - lo) * (b / W) can round to different sub-buckets
    rng = random.Random(5)
    for trial in range(400):
        nb = rng.randint(2, 6)
        w = rng.choice([0.1, 0.3, 1 / 7, 1e-3])
        i = rng.randrange(nb - 1)
        b = rng.randint(2, 40)
        keys = sorted(i * w + rng.randint(0, b - 1) * w / b for _ in range(b))
        keys = [k for k in keys if int(k / w) == i][:b]
        q = BucketQueue(nb, w)
        for k in keys:
            q.insert(k, k)
        if not keys:
            continue
        q.extract_min()
        for j, heap in enumerate(q._subs):
            assert all(q._sub_index(k) == j for k, _ in heap.a)


