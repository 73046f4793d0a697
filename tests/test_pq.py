import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbsp.pq import BinaryHeapQueue, BucketQueue, bucket_defaults, replay


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


def test_insert_below_scan_index_before_extraction():
    # min_key advances the scan index past empty buckets; a later insert of a
    # smaller key is still legal before any extraction has happened
    q = make_bucket(nbuckets=8, width=1.0)
    q.insert("hi", 6.5)
    assert q.min_key() == 6.5
    q.insert("lo", 2.5)
    assert q.min_key() == 2.5
    assert q.extract_min() == ("lo", 2.5)
    assert q.extract_min() == ("hi", 6.5)


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
    with pytest.raises(ValueError):
        BucketQueue(0, 1.0)
    with pytest.raises(ValueError):
        BucketQueue(4, 0.0)


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
