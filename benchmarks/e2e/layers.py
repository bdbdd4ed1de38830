"""Per-layer metrics of a traced run.

Three sources, none of which touches ``src/``:

* **spans** the harness records around each layer's public entry points
  (:func:`instrument`), giving self times, parse/compile time, etc.;
* the layers' **existing public counters**, read off the execution
  context each traced ``execute_program`` call ran on (``ctx.metrics``,
  ``ctx.pool.stats``, ``ReuseCache.snapshot()``, ``TraceCache.snapshot()``),
  ``SimSparkContext.metrics``, ``Transport.snapshot()``, the federated
  sites' metrics and ``ScoringService.snapshot()``;
* short **direct probes** that call one public function at the
  workload's shapes (``probe_*``), for numbers no pass exposes by itself.

Every metric of :data:`PER_LAYER` is reported on every workload; a layer
the workload bypasses reads 0, which is the prediction the self-test
checks.
"""

from __future__ import annotations

import os
import socket
import statistics
import threading
import time
from typing import Callable, Dict, List

import numpy as np

from benchmarks.e2e import tracing

#: Layers whose self time is reported (``harness`` is time under the pass
#: span that no layer span covers).
LAYERS = ("api", "lang", "compiler", "runtime", "trace", "tensor", "io", "prep",
          "lineage", "net", "federated", "distributed", "serving", "harness")

#: name -> (unit, better); the order is the report order.
PER_LAYER = {
    "lang.parse_ms": ("ms", "lower"),
    "compiler.compile_ms": ("ms", "lower"),
    "compiler.instructions": ("count", "lower"),
    "compiler.recompiles": ("count", "lower"),
    "runtime.exec_s": ("s", "lower"),
    "runtime.instructions_executed": ("count", "lower"),
    "runtime.us_per_instruction": ("us", "lower"),
    "runtime.parfor_tasks": ("count", "higher"),
    "trace.traces_compiled": ("count", "higher"),
    "trace.hit_ratio": ("ratio", "higher"),
    "trace.vetoes": ("count", "lower"),
    "runtime.pool_evictions": ("count", "lower"),
    "runtime.pool_restores": ("count", "lower"),
    "runtime.pool_spill_bytes_written": ("bytes", "lower"),
    "runtime.pool_compressed_spill_ratio": ("ratio", "higher"),
    "runtime.pool_prefetch_hit_ratio": ("ratio", "higher"),
    "runtime.pool_async_writebacks": ("count", "higher"),
    "tensor.matmult_gflops": ("gflop/s", "higher"),
    "tensor.tsmm_ms": ("ms", "lower"),
    "tensor.compress_mb_s": ("MB/s", "higher"),
    "tensor.decompress_mb_s": ("MB/s", "higher"),
    "tensor.compression_ratio": ("ratio", "higher"),
    "tensor.compressed_matmult_ms": ("ms", "lower"),
    "tensor.compressed_kernel_fallbacks": ("count", "lower"),
    "io.csv_read_mcells_s": ("Mcell/s", "higher"),
    "io.csv_write_mcells_s": ("Mcell/s", "higher"),
    "io.frame_read_mcells_s": ("Mcell/s", "higher"),
    "io.shm_publish_ms": ("ms", "lower"),
    "io.shm_attach_ms": ("ms", "lower"),
    "prep.detect_schema_ms": ("ms", "lower"),
    "prep.transform_encode_mrows_s": ("Mrow/s", "higher"),
    "prep.transform_apply_mrows_s": ("Mrow/s", "higher"),
    "lineage.probes": ("count", "lower"),
    "lineage.hit_ratio": ("ratio", "higher"),
    "lineage.partial_hits": ("count", "higher"),
    "lineage.cache_bytes": ("bytes", "lower"),
    "net.frames_sent": ("count", "lower"),
    "net.bytes_sent": ("bytes", "lower"),
    "net.bytes_per_sweep": ("bytes", "lower"),
    "net.rtt_us": ("us", "lower"),
    "net.serde_mb_s": ("MB/s", "higher"),
    "net.frame_codec_mb_s": ("MB/s", "higher"),
    "net.resent_requests": ("count", "lower"),
    "net.reconnects": ("count", "lower"),
    "federated.messages": ("count", "lower"),
    "federated.bytes_shipped": ("bytes", "lower"),
    "federated.op_ms": ("ms", "lower"),
    "distributed.tasks": ("count", "lower"),
    "distributed.task_ms": ("ms", "lower"),
    "distributed.task_retries": ("count", "lower"),
    "serving.mean_batch_size": ("rows", "higher"),
    "serving.batches": ("count", "lower"),
    "serving.service_latency_p50_ms": ("ms", "lower"),
    "serving.latency_p99_whole_ms": ("ms", "lower"),
    "serving.score_batch_us": ("us", "lower"),
    "serving.worker_imbalance": ("ratio", "lower"),
    "serving.rejected": ("count", "lower"),
    "serving.throttled": ("count", "lower"),
    "serving.timeouts": ("count", "lower"),
    "serving.resent_requests": ("count", "lower"),
    "serving.generator_late_ms_p99": ("ms", "lower"),
    "api.prepared_execute_us": ("us", "lower"),
    "harness.cpu_s": ("s", "lower"),
    "harness.trace_overhead_ratio": ("ratio", "lower"),
    "harness.tcp_over_inproc": ("ratio", "lower"),
    **{f"harness.self_time_s.{layer}": ("s", "lower") for layer in LAYERS},
}


# ---------------------------------------------------------------------------
# spans around the layers' public entry points
# ---------------------------------------------------------------------------


class Seen:
    """What the wrappers of one traced pass saw go by: the execution
    contexts and simulated-Spark contexts (whose public counters are read
    after the pass), compiled instruction counts and parfor iterations."""

    def __init__(self) -> None:
        self.contexts: List = []
        self.spark: Dict[int, object] = {}
        self.compiled_instructions = 0
        self.parfor_tasks = 0


def instrument(tracer: tracing.Tracer, seen: Seen) -> None:
    """Wrap each layer's public entry points with span recorders."""
    import repro.compiler.compile as compile_mod
    import repro.compiler.recompile as recompile_mod
    import repro.distributed.ops as dist_ops
    import repro.distributed.rdd as rdd_mod
    import repro.federated.instructions as fed_ops
    import repro.io.readers as readers
    import repro.io.writers as writers
    import repro.lang.parser as parser
    import repro.net.proc as proc_mod
    import repro.prep.schema as schema_mod
    import repro.prep.transform as transform_mod
    import repro.runtime.interpreter as interpreter
    import repro.runtime.parfor as parfor_mod
    import repro.tensor.ops as tensor_ops
    from repro.api.jmlc import PreparedScript
    from repro.api.mlcontext import MLContext
    from repro.lineage import LineageTracer, ReuseCache
    from repro.tensor.compressed import CompressedBlock
    from repro.trace import TraceCache

    def on_compile(program, _args, _kwargs):
        seen.compiled_instructions += count_instructions(program)

    def on_execute(_result, args, _kwargs):
        seen.contexts.append(args[1])

    def on_parfor(_result, args, _kwargs):
        start, stop, step = args[2], args[3], args[4]
        seen.parfor_tasks += len(range(start, stop + 1, step))

    def on_tasks(_result, args, _kwargs):
        seen.spark[id(args[0])] = args[0]

    tracer.wrap(MLContext, "execute", "api")
    tracer.wrap(PreparedScript, "execute", "api")
    tracer.wrap(parser, "parse", "lang")
    tracer.wrap(compile_mod, "compile_program", "compiler", on_return=on_compile)
    tracer.wrap(recompile_mod, "recompile_basic_block", "compiler")
    tracer.wrap(interpreter, "execute_program", "runtime", on_return=on_execute)
    tracer.wrap(parfor_mod, "execute_parfor", "runtime", on_return=on_parfor)
    tracer.wrap(TraceCache, "execute", "trace")
    tracer.wrap(TraceCache, "execute_block", "trace")
    tracer.wrap_public(tensor_ops, "tensor")
    # (the ``compress`` classmethod is probed directly instead)
    for method in ("decompress", "matmult_dense", "t_matmult_dense", "matvec",
                   "vecmat", "scalar_op", "col_sums", "sum"):
        tracer.wrap(CompressedBlock, method, "tensor")
    tracer.wrap(readers, "read_any", "io")
    for writer in ("write_matrix", "write_frame", "write_scalar"):
        tracer.wrap(writers, writer, "io")
    tracer.wrap(transform_mod, "transform_encode", "prep")
    tracer.wrap(transform_mod, "transform_apply", "prep")
    tracer.wrap(schema_mod, "detect_schema", "prep")
    for method in ("probe", "probe_partial_tsmm", "probe_partial_tmm", "put"):
        tracer.wrap(ReuseCache, method, "lineage")
    tracer.wrap(LineageTracer, "trace", "lineage")
    for method in ("site_call", "registry_call", "run_task"):
        tracer.wrap(proc_mod.ProcTransport, method, "net")
    tracer.wrap_public(fed_ops, "federated", skip=("channel_of",))
    tracer.wrap_public(dist_ops, "distributed")
    tracer.wrap(rdd_mod.SimSparkContext, "run_tasks", "distributed", on_return=on_tasks)


def count_instructions(program) -> int:
    """Exact number of instructions in a compiled program."""
    from repro.compiler.blocks import BasicBlock, ForBlock, IfBlock, WhileBlock

    def predicate(block) -> int:
        return len(block.instructions) if block is not None else 0

    def blocks(items) -> int:
        total = 0
        for block in items:
            if isinstance(block, BasicBlock):
                total += len(block.instructions)
            elif isinstance(block, IfBlock):
                total += (predicate(block.predicate) + blocks(block.then_blocks)
                          + blocks(block.else_blocks))
            elif isinstance(block, WhileBlock):
                total += predicate(block.predicate) + blocks(block.body)
            elif isinstance(block, ForBlock):
                total += (predicate(block.from_block) + predicate(block.to_block)
                          + predicate(block.step_block) + blocks(block.body))
        return total

    return blocks(program.blocks) + sum(
        blocks(function.blocks) for function in program.functions.values())


# ---------------------------------------------------------------------------
# counters of one traced batch pass
# ---------------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _add(total: Dict[str, float], counters: Dict) -> None:
    for key, value in counters.items():
        if isinstance(value, (int, float)):
            total[key] = total.get(key, 0) + value


def pass_metrics(seen: Seen, spans: List[list], main_thread: int) -> Dict[str, float]:
    """Per-layer values of one traced pass (public counters + its spans)."""
    run: Dict[str, float] = {}
    pool: Dict[str, float] = {}
    reuse: Dict[str, float] = {}
    trace: Dict[str, float] = {}
    spark: Dict[str, float] = {}
    for ctx in seen.contexts:
        _add(run, ctx.metrics)
        _add(pool, ctx.pool.stats)
        if ctx.reuse is not None:
            _add(reuse, ctx.reuse.snapshot())
        if ctx.traces is not None:
            _add(trace, ctx.traces.snapshot())
    for context in seen.spark.values():
        _add(spark, context.metrics)
    executed = run.get("instructions", 0)
    exec_s = tracing.total_time(spans, "runtime.execute_program")
    guarded = (trace.get("trace_hits", 0) + trace.get("fallbacks", 0)
               + trace.get("guard_failures", 0))
    metrics = {
        "lang.parse_ms": tracing.total_time(spans, "lang.parse") * 1e3,
        "compiler.compile_ms": tracing.total_time(spans, "compiler.compile_program") * 1e3,
        "compiler.instructions": seen.compiled_instructions,
        "compiler.recompiles": run.get("recompiles", 0),
        "runtime.exec_s": exec_s,
        "runtime.instructions_executed": executed,
        "runtime.us_per_instruction": _ratio(exec_s * 1e6, executed),
        "runtime.parfor_tasks": seen.parfor_tasks,
        "trace.traces_compiled": trace.get("traces_compiled", 0),
        "trace.hit_ratio": _ratio(trace.get("trace_hits", 0), guarded),
        "trace.vetoes": trace.get("vetoes", 0),
        "runtime.pool_evictions": pool.get("evictions", 0),
        "runtime.pool_restores": pool.get("restores", 0),
        "runtime.pool_spill_bytes_written": pool.get("spill_bytes_written", 0),
        "runtime.pool_compressed_spill_ratio": _ratio(
            pool.get("bytes_spilled", 0), pool.get("spill_bytes_written", 0)),
        "runtime.pool_prefetch_hit_ratio": _ratio(
            pool.get("prefetch_hits", 0),
            pool.get("prefetch_hits", 0) + pool.get("prefetch_wasted", 0)),
        "runtime.pool_async_writebacks": pool.get("async_writebacks", 0),
        "tensor.compressed_kernel_fallbacks": pool.get("compressed_kernel_fallbacks", 0),
        "lineage.probes": reuse.get("probes", 0),
        "lineage.hit_ratio": _ratio(
            reuse.get("hits_full", 0) + reuse.get("hits_partial", 0),
            reuse.get("probes", 0)),
        "lineage.partial_hits": reuse.get("hits_partial", 0),
        "lineage.cache_bytes": reuse.get("used_bytes", 0),
        "distributed.tasks": spark.get("tasks", 0),
        "distributed.task_retries": spark.get("task_retries", 0),
        "distributed.task_ms": _ratio(
            tracing.total_time(spans, "distributed.run_tasks") * 1e3,
            spark.get("tasks", 0)),
    }
    federated_spans = [r for r in spans if r[tracing.LAYER] == "federated"
                       and (r[tracing.PARENT] is None
                            or r[tracing.PARENT][tracing.LAYER] != "federated")]
    metrics["federated.op_ms"] = _ratio(
        sum(r[tracing.END] - r[tracing.START] for r in federated_spans) * 1e3,
        len(federated_spans))
    own = tracing.self_times(spans, thread=main_thread)
    for layer in LAYERS:
        metrics[f"harness.self_time_s.{layer}"] = own.get(layer, 0.0)
    return metrics


def transport_delta(before: Dict, after: Dict, sweeps: int) -> Dict[str, float]:
    """Wire and site accounting of one pass (process-global counters)."""
    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    return {
        "net.frames_sent": delta("frames_sent"),
        "net.bytes_sent": delta("bytes_sent"),
        "net.bytes_per_sweep": _ratio(
            delta("bytes_sent") + delta("bytes_received"), sweeps),
        "net.resent_requests": delta("resent_requests"),
        "net.reconnects": delta("reconnects"),
        "federated.messages": delta("site_requests"),
        "federated.bytes_shipped": delta("site_bytes"),
    }


def transport_counters(config, addresses) -> Dict[str, float]:
    """``Transport.snapshot()`` plus the hosted sites' transfer metrics."""
    from repro.net import for_config, registry_for

    snap = dict(for_config(config).snapshot())
    registry = registry_for(config)
    requests = shipped = 0
    for address in addresses:
        metrics = registry.site(address).metrics
        requests += metrics["requests"]
        shipped += metrics["bytes_sent"] + metrics["bytes_received"]
    snap["site_requests"] = requests
    snap["site_bytes"] = shipped
    return snap


# ---------------------------------------------------------------------------
# direct probes
# ---------------------------------------------------------------------------


def _median_seconds(call: Callable[[], object], repeats: int = 5) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def probe_dense_kernels(X: np.ndarray) -> Dict[str, float]:
    from repro.tensor import BasicTensorBlock, ops

    block = BasicTensorBlock.from_numpy(X)
    rhs = BasicTensorBlock.from_numpy(np.ones((X.shape[1], X.shape[1])))
    seconds = _median_seconds(lambda: ops.matmult(block, rhs, True, 64))
    flops = 2.0 * X.shape[0] * X.shape[1] * X.shape[1]
    return {
        "tensor.matmult_gflops": flops / seconds / 1e9,
        "tensor.tsmm_ms": _median_seconds(lambda: ops.tsmm(block, True, 64)) * 1e3,
    }


def probe_csv(X: np.ndarray, workdir: str) -> Dict[str, float]:
    from repro.io import csv as csv_io
    from repro.tensor import BasicTensorBlock

    part = X[: max(X.shape[0] // 4, 1)]
    path = os.path.join(workdir, "probe.csv")
    write_s = _median_seconds(
        lambda: csv_io.write_csv_matrix(BasicTensorBlock.from_numpy(part), path), 3)
    read_s = _median_seconds(lambda: csv_io.read_csv_matrix(path, num_threads=2), 3)
    os.unlink(path)
    return {"io.csv_read_mcells_s": part.size / read_s / 1e6,
            "io.csv_write_mcells_s": part.size / write_s / 1e6}


def probe_prep(data_path: str) -> Dict[str, float]:
    from repro.io import csv as csv_io
    from repro.prep import detect_schema, transform_apply, transform_encode

    spec = ('{"recode": ["segment", "region"], "dummycode": ["segment", "region"], '
            '"bin": [{"name": "tenure", "method": "equi-width", "numbins": 6}]}')
    start = time.perf_counter()
    frame = csv_io.read_csv_frame(data_path)
    read_s = time.perf_counter() - start
    features = frame.select_columns([0, 1, 2, 3])
    encoded = []
    encode_s = _median_seconds(lambda: encoded.append(transform_encode(features, spec)), 3)
    meta = encoded[-1][1]
    return {
        "io.frame_read_mcells_s": frame.num_rows * frame.num_cols / read_s / 1e6,
        "prep.detect_schema_ms": _median_seconds(lambda: detect_schema(frame), 3) * 1e3,
        "prep.transform_encode_mrows_s": frame.num_rows / encode_s / 1e6,
        "prep.transform_apply_mrows_s": frame.num_rows / _median_seconds(
            lambda: transform_apply(features, meta), 3) / 1e6,
    }


def probe_compressed(X: np.ndarray) -> Dict[str, float]:
    from repro.tensor import BasicTensorBlock
    from repro.tensor.compressed import CompressedBlock

    block = BasicTensorBlock.from_numpy(X)
    megabytes = X.nbytes / 1e6
    compressed = CompressedBlock.compress(block)
    rhs = np.ones((X.shape[1], 1))
    return {
        "tensor.compress_mb_s": megabytes / _median_seconds(
            lambda: CompressedBlock.compress(block), 3),
        "tensor.decompress_mb_s": megabytes / _median_seconds(compressed.decompress, 3),
        "tensor.compression_ratio": compressed.compression_ratio(),
        "tensor.compressed_matmult_ms": _median_seconds(
            lambda: compressed.matmult_dense(rhs)) * 1e3,
    }


def probe_net(config, address: str, payload: np.ndarray) -> Dict[str, float]:
    from repro.net import for_config, frames, serde

    transport = for_config(config)
    rtt = _median_seconds(lambda: transport.site_call(address, "has", ("X",)), 200)
    body = serde.dumps(payload)
    serde_s = _median_seconds(lambda: serde.loads(serde.dumps(payload)), 20)
    left, right = socket.socketpair()
    repeats = 16

    def send() -> None:
        for request_id in range(repeats):
            frames.send_frame(left, frames.REQ, request_id, body)

    sender = threading.Thread(target=send, name="probe-frame-sender")
    start = time.perf_counter()
    sender.start()
    try:
        for _ in range(repeats):
            frames.recv_frame(right)
        codec_s = time.perf_counter() - start
    finally:
        sender.join(timeout=30.0)
        left.close()
        right.close()
    return {
        "net.rtt_us": rtt * 1e6,
        "net.serde_mb_s": 2 * payload.nbytes / serde_s / 1e6,
        "net.frame_codec_mb_s": repeats * len(body) / codec_s / 1e6,
    }


def probe_serving(registry, model: str, features: int) -> Dict[str, float]:
    """Direct calls under the serving path: shared-memory publish/attach,
    one 32-row ``score_batch`` and one single-row prepared execute."""
    from repro.io.shm import SharedWeightStore
    from repro.tensor import BasicTensorBlock

    servable = registry.get(model)
    batch = np.ones((32, features))
    row = np.ones((1, features))
    store = SharedWeightStore(scavenge=False)
    try:
        publish, attach = [], []
        for i in range(5):
            # distinct bytes each time: identical payloads dedupe to one segment
            block = BasicTensorBlock.from_numpy(np.full((features, 32), 1.0 + i))
            start = time.perf_counter()
            spec = store.publish_block(block)
            publish.append(time.perf_counter() - start)
            start = time.perf_counter()
            store.attach(spec)
            attach.append(time.perf_counter() - start)
    finally:
        store.close(unlink=True)

    def prepared_execute() -> None:
        servable.script.execute(**{servable.data_input: row}, **servable.weights).close()

    return {
        "io.shm_publish_ms": statistics.median(publish) * 1e3,
        "io.shm_attach_ms": statistics.median(attach) * 1e3,
        "serving.score_batch_us": _median_seconds(
            lambda: servable.score_batch(batch), 50) * 1e6,
        "api.prepared_execute_us": _median_seconds(prepared_execute, 50) * 1e6,
    }
