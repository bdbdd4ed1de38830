"""A Spark-like resilient-distributed-dataset work-alike.

``SimRDD`` models the subset of the RDD API that SystemDS' distributed
matrix operations need: lazy narrow transformations (map, mapValues,
flatMap, filter, union) composed per partition, and wide transformations
(reduceByKey, join, groupByKey) that shuffle by key hash.  Jobs run on a
shared thread pool; the context records tasks, shuffled records, and
shuffle bytes so benches can observe distribution costs.

This is a faithful *behavioural* model, not a performance model of a
cluster: partitions are Python lists and "shuffles" are in-process
repartitionings — exactly the level at which the compiler's operator
selection and blocking logic can be exercised and tested.
"""

from __future__ import annotations

import concurrent.futures
import threading
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import InjectedFaultError, TaskRetryExhaustedError


def _default_size(item) -> int:
    """Rough byte size of one record (for shuffle accounting)."""
    value = item[1] if isinstance(item, tuple) and len(item) == 2 else item
    if hasattr(value, "memory_size"):
        return int(value.memory_size()) + 32
    return 64


class SimSparkContext:
    """Scheduler and metrics for one simulated cluster.

    With a :class:`repro.resilience.ResilienceManager` attached, every task
    gets bounded retries against transient failures (``rdd.task`` injection
    point) and cached RDDs recompute lost partitions from their lineage
    (``rdd.cache_loss``); without one, scheduling is a plain direct call.
    """

    def __init__(self, parallelism: int = 4, resilience=None, transport=None):
        self.parallelism = max(1, parallelism)
        self.resilience = resilience
        #: Optional :class:`repro.net.Transport`; None (or the in-proc
        #: transport) keeps task execution a direct call on the pool thread,
        #: a proc transport round-trips each task to an executor process.
        self.transport = transport
        self._pool: Optional[concurrent.futures.ThreadPoolExecutor] = None
        self._lock = threading.RLock()
        self.metrics = {
            "jobs": 0,
            "tasks": 0,
            "shuffles": 0,
            "records_shuffled": 0,
            "bytes_shuffled": 0,
            "task_retries": 0,
            "recomputed_partitions": 0,
        }

    def parallelize(self, items: Iterable, num_partitions: int = 0) -> "SimRDD":
        items = list(items)
        parts = num_partitions or self.parallelism
        parts = max(1, min(parts, max(len(items), 1)))
        partitions = [items[i::parts] for i in range(parts)]
        return SimRDD(self, lambda: partitions, parts)

    def _executor(self) -> concurrent.futures.ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = concurrent.futures.ThreadPoolExecutor(
                    max_workers=self.parallelism, thread_name_prefix="simrdd"
                )
            return self._pool

    def run_tasks(self, tasks: List[Callable[[], List]]) -> List[List]:
        """Execute per-partition tasks, one thread-pool slot each."""
        with self._lock:
            self.metrics["jobs"] += 1
            self.metrics["tasks"] += len(tasks)
        run = self._run_resilient if self.resilience is not None else self._invoke
        if len(tasks) == 1:
            return [run(tasks[0])]
        executor = self._executor()
        return list(executor.map(run, tasks))

    def _invoke(self, task: Callable[[], List]) -> List:
        """Execute one task — directly, or via the bound transport."""
        if self.transport is None:
            return task()
        return self.transport.run_task(task)

    def _run_resilient(self, task: Callable[[], List]) -> List:
        """One task with bounded retry (Spark's task-attempt model)."""
        resilience = self.resilience
        policy = resilience.retry_policy
        attempt = 0
        while True:
            try:
                resilience.fire("rdd.task")
                return self._invoke(task)
            except (InjectedFaultError, OSError) as exc:
                if attempt >= policy.max_retries:
                    raise TaskRetryExhaustedError("rdd.task", attempt + 1) from exc
                delay = policy.delay_s(attempt, resilience.rng)
                attempt += 1
                with self._lock:
                    self.metrics["task_retries"] += 1
                resilience.stats.record_retry("task", delay)
                if resilience.sleep is not None and delay > 0.0:
                    resilience.sleep(delay)

    def account_shuffle(self, records: int, size: int) -> None:
        with self._lock:
            self.metrics["shuffles"] += 1
            self.metrics["records_shuffled"] += records
            self.metrics["bytes_shuffled"] += size

    def shutdown(self, wait: bool = True) -> None:
        """Stop the task pool; by default block until in-flight tasks finish.

        ``wait=False`` reproduces the old fire-and-forget behaviour (leaked
        in-flight tasks keep running on daemon-less threads); the pool is
        detached under the lock but joined outside it so concurrent jobs
        are not blocked behind the join.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait)

    def __enter__(self) -> "SimSparkContext":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class SimRDD:
    """A lazy, partitioned collection."""

    def __init__(self, ctx: SimSparkContext, materialize: Callable[[], List[List]],
                 num_partitions: int):
        self.ctx = ctx
        self._materialize_fn = materialize
        self.num_partitions = num_partitions
        self._cached: Optional[List[List]] = None
        self._cache_requested = False
        self._lock = threading.Lock()

    # --- materialisation -------------------------------------------------------

    def _partitions(self) -> List[List]:
        """Materialised partitions, from cache when available.

        Upstream materialisation runs *outside* the lock: holding it for
        the whole computation serialised concurrent actions on the same
        RDD and could deadlock through nested jobs.  Only the publish of
        the cached result happens under the lock (first writer wins, so
        concurrent racers observe one consistent cached value).
        """
        with self._lock:
            cached = self._cached
        if cached is not None:
            return self._recover_lost(cached)
        partitions = self._materialize_fn()
        if self._cache_requested:
            with self._lock:
                if self._cached is None:
                    self._cached = partitions
                else:
                    partitions = self._cached
        return partitions

    def _recover_lost(self, cached: List[List]) -> List[List]:
        """Recompute cached partitions lost at the ``rdd.cache_loss`` point.

        Mirrors Spark's lineage-based recovery: a lost partition is rebuilt
        by re-running this RDD's materialisation (its parent chain), not by
        failing the job.  Deterministic upstreams therefore yield results
        identical to a loss-free run.
        """
        resilience = self.ctx.resilience
        if resilience is None or not resilience.active("rdd.cache_loss"):
            return cached
        lost = [i for i in range(len(cached)) if resilience.trip("rdd.cache_loss")]
        if not lost:
            return cached
        fresh = self._materialize_fn()
        repaired = list(cached)
        for index in lost:
            repaired[index] = fresh[index]
        with self._lock:
            if self._cached is not None:
                self._cached = repaired
        with self.ctx._lock:
            self.ctx.metrics["recomputed_partitions"] += len(lost)
        resilience.stats.incr("recomputed_partitions", len(lost))
        return repaired

    def cache(self) -> "SimRDD":
        self._cache_requested = True
        return self

    # --- narrow transformations --------------------------------------------------

    def _narrow(self, per_partition: Callable[[List], List]) -> "SimRDD":
        def materialize() -> List[List]:
            parent = self._partitions()
            tasks = [lambda p=part: per_partition(p) for part in parent]
            return self.ctx.run_tasks(tasks)

        return SimRDD(self.ctx, materialize, self.num_partitions)

    def map(self, func: Callable) -> "SimRDD":
        return self._narrow(lambda part: [func(item) for item in part])

    def map_values(self, func: Callable) -> "SimRDD":
        return self._narrow(lambda part: [(key, func(value)) for key, value in part])

    def flat_map(self, func: Callable) -> "SimRDD":
        return self._narrow(
            lambda part: [out for item in part for out in func(item)]
        )

    def filter(self, predicate: Callable) -> "SimRDD":
        return self._narrow(lambda part: [item for item in part if predicate(item)])

    def union(self, other: "SimRDD") -> "SimRDD":
        def materialize() -> List[List]:
            return self._partitions() + other._partitions()

        return SimRDD(self.ctx, materialize, self.num_partitions + other.num_partitions)

    # --- wide transformations -------------------------------------------------------

    def _shuffle(self, num_partitions: int) -> List[List[Tuple]]:
        """Hash-partition all (key, value) records by key."""
        parent = self._partitions()
        buckets: List[List[Tuple]] = [[] for __ in range(num_partitions)]
        records = 0
        size = 0
        for part in parent:
            for key, value in part:
                bucket = hash(key) % num_partitions
                buckets[bucket].append((key, value))
                records += 1
                size += _default_size((key, value))
        self.ctx.account_shuffle(records, size)
        return buckets

    def reduce_by_key(self, func: Callable, num_partitions: int = 0) -> "SimRDD":
        parts = num_partitions or self.num_partitions

        def materialize() -> List[List]:
            buckets = self._shuffle(parts)

            def reduce_bucket(bucket: List[Tuple]) -> List[Tuple]:
                merged: Dict = {}
                for key, value in bucket:
                    if key in merged:
                        merged[key] = func(merged[key], value)
                    else:
                        merged[key] = value
                return list(merged.items())

            tasks = [lambda b=bucket: reduce_bucket(b) for bucket in buckets]
            return self.ctx.run_tasks(tasks)

        return SimRDD(self.ctx, materialize, parts)

    def group_by_key(self, num_partitions: int = 0) -> "SimRDD":
        parts = num_partitions or self.num_partitions

        def materialize() -> List[List]:
            buckets = self._shuffle(parts)

            def group_bucket(bucket: List[Tuple]) -> List[Tuple]:
                grouped: Dict = {}
                for key, value in bucket:
                    grouped.setdefault(key, []).append(value)
                return list(grouped.items())

            tasks = [lambda b=bucket: group_bucket(b) for bucket in buckets]
            return self.ctx.run_tasks(tasks)

        return SimRDD(self.ctx, materialize, parts)

    def join(self, other: "SimRDD", num_partitions: int = 0) -> "SimRDD":
        """Inner join on key: (k, a) join (k, b) -> (k, (a, b))."""
        parts = num_partitions or max(self.num_partitions, other.num_partitions)

        def materialize() -> List[List]:
            left_buckets = self._shuffle(parts)
            right_buckets = other._shuffle(parts)

            def join_bucket(index: int) -> List[Tuple]:
                left: Dict = {}
                for key, value in left_buckets[index]:
                    left.setdefault(key, []).append(value)
                output = []
                for key, value in right_buckets[index]:
                    for left_value in left.get(key, ()):
                        output.append((key, (left_value, value)))
                return output

            tasks = [lambda i=i: join_bucket(i) for i in range(parts)]
            return self.ctx.run_tasks(tasks)

        return SimRDD(self.ctx, materialize, parts)

    # --- actions -----------------------------------------------------------------------

    def collect(self) -> List:
        return [item for part in self._partitions() for item in part]

    def count(self) -> int:
        return sum(len(part) for part in self._partitions())

    def reduce(self, func: Callable):
        items = self.collect()
        if not items:
            raise ValueError("reduce of empty RDD")
        result = items[0]
        for item in items[1:]:
            result = func(result, item)
        return result

    def keys(self) -> List:
        return [key for key, __ in self.collect()]

    def lookup(self, key) -> List:
        return [value for k, value in self.collect() if k == key]
