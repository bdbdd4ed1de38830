"""SimRDD fault tolerance: task retry, lineage recomputation, lifecycle fixes."""

import threading

import pytest

from repro.distributed.rdd import SimRDD, SimSparkContext
from repro.errors import TaskRetryExhaustedError
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    ResilienceManager,
    RetryPolicy,
)


def _manager(spec, seed=1234, retries=2):
    return ResilienceManager(
        injector=FaultInjector(FaultPlan.parse(spec, seed=seed)),
        retry_policy=RetryPolicy(max_retries=retries, jitter=0.0),
        sleep=None,  # immediate retries: no real time in these tests
    )


class TestTaskRetry:
    def test_transient_task_faults_are_retried(self):
        resilience = _manager("rdd.task:fail=2")
        sctx = SimSparkContext(parallelism=2, resilience=resilience)
        rdd = sctx.parallelize(range(20), num_partitions=4).map(lambda x: x * 2)
        assert sorted(rdd.collect()) == sorted(x * 2 for x in range(20))
        assert sctx.metrics["task_retries"] == 2
        assert resilience.stats.counter("task_retries") == 2
        sctx.shutdown()

    def test_exhaustion_raises_typed_error_naming_the_point(self):
        resilience = _manager("rdd.task:fail=50", retries=2)
        sctx = SimSparkContext(parallelism=1, resilience=resilience)
        rdd = sctx.parallelize([1], num_partitions=1).map(lambda x: x)
        with pytest.raises(TaskRetryExhaustedError, match="rdd.task") as excinfo:
            rdd.collect()
        assert excinfo.value.point == "rdd.task"
        assert excinfo.value.attempts == 3  # initial + 2 retries
        sctx.shutdown()

    def test_no_resilience_keeps_the_plain_path(self):
        sctx = SimSparkContext(parallelism=2)
        rdd = sctx.parallelize(range(10)).map(lambda x: x + 1)
        assert sorted(rdd.collect()) == list(range(1, 11))
        assert sctx.metrics["task_retries"] == 0
        sctx.shutdown()

    def test_faulty_run_matches_fault_free_run(self):
        data = list(range(100))

        def compute(sctx):
            rdd = sctx.parallelize(data, num_partitions=8)
            return sorted(
                rdd.map(lambda x: (x % 5, x))
                .reduce_by_key(lambda a, b: a + b)
                .collect()
            )

        clean_sctx = SimSparkContext(parallelism=4)
        expected = compute(clean_sctx)
        clean_sctx.shutdown()

        resilience = _manager("rdd.task:p=0.1", seed=99, retries=5)
        faulty_sctx = SimSparkContext(parallelism=4, resilience=resilience)
        assert compute(faulty_sctx) == expected
        faulty_sctx.shutdown()


class TestCacheLossRecovery:
    def test_lost_partitions_recompute_from_lineage(self):
        resilience = _manager("rdd.cache_loss:p=1.0")
        sctx = SimSparkContext(parallelism=2, resilience=resilience)
        rdd = sctx.parallelize(range(12), num_partitions=3).map(lambda x: x * x)
        rdd.cache()
        first = sorted(rdd.collect())   # populates the cache
        second = sorted(rdd.collect())  # every cached partition is "lost"
        assert first == second == sorted(x * x for x in range(12))
        assert sctx.metrics["recomputed_partitions"] == 3
        assert resilience.stats.counter("recomputed_partitions") == 3
        sctx.shutdown()

    def test_no_loss_rule_leaves_cache_untouched(self):
        resilience = _manager("rdd.task:p=0.0")
        sctx = SimSparkContext(parallelism=2, resilience=resilience)
        calls = []

        def materialize():
            calls.append(1)
            return [[1, 2], [3, 4]]

        rdd = SimRDD(sctx, materialize, 2).cache()
        rdd.collect()
        rdd.collect()
        assert len(calls) == 1  # cached; loss point inactive, no recompute
        sctx.shutdown()


class TestLifecycleFixes:
    def test_materialization_runs_outside_the_rdd_lock(self):
        # Two threads must be able to materialise the same (uncached) RDD
        # concurrently; the old code held the lock for the whole compute.
        sctx = SimSparkContext(parallelism=2)
        barrier = threading.Barrier(2, timeout=5.0)

        def materialize():
            barrier.wait()  # deadlocks (then times out) if calls serialise
            return [[1], [2]]

        rdd = SimRDD(sctx, materialize, 2)
        results = []

        def collect():
            results.append(rdd.collect())

        threads = [threading.Thread(target=collect) for __ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert results == [[1, 2], [1, 2]]
        sctx.shutdown()

    def test_cache_publish_is_first_writer_wins(self):
        sctx = SimSparkContext(parallelism=2)
        rdd = sctx.parallelize(range(8), num_partitions=2).cache()
        results = []
        threads = [
            threading.Thread(target=lambda: results.append(sorted(rdd.collect())))
            for __ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(result == list(range(8)) for result in results)
        assert rdd._cached is not None
        sctx.shutdown()

    def test_shutdown_waits_for_inflight_tasks_by_default(self):
        sctx = SimSparkContext(parallelism=2)
        started = threading.Semaphore(0)
        release = threading.Event()
        finished = []
        completed_at_return = []

        def slow_task():
            started.release()
            release.wait(timeout=5.0)  # held in flight until released
            finished.append(True)
            return []

        # run the job on a second thread, then shut down while it is running
        runner = threading.Thread(
            target=lambda: sctx.run_tasks([slow_task, slow_task])
        )
        runner.start()
        # both tasks in flight: shutting down between the two submits
        # would refuse the second one instead of waiting for it
        for _ in range(2):
            assert started.acquire(timeout=5.0)

        def do_shutdown():
            sctx.shutdown()  # wait=True: must block until tasks complete
            completed_at_return.append(len(finished))

        shutter = threading.Thread(target=do_shutdown)
        shutter.start()
        release.set()
        shutter.join(timeout=5.0)
        runner.join(timeout=5.0)
        # shutdown returned only after both in-flight tasks finished
        assert completed_at_return == [2]

    def test_context_manager_shuts_down(self):
        with SimSparkContext(parallelism=2) as sctx:
            rdd = sctx.parallelize(range(4))
            assert sorted(rdd.collect()) == [0, 1, 2, 3]
            pool = sctx._pool
        assert sctx._pool is None
        if pool is not None:
            assert pool._shutdown  # the executor really stopped
