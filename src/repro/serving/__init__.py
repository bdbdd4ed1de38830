"""Concurrent model-scoring on top of prepared scripts (deployment stage).

The paper frames SystemDS as covering the lifecycle "from data integration
... to deployment and serving"; this package is the serving stage.  It
turns :class:`~repro.api.jmlc.PreparedScript` into a multi-tenant scoring
engine:

* :class:`ModelRegistry` — register/version DML scoring scripts, compile
  once, pin model weights in a shared buffer pool so eviction never hits
  the hot path;
* :class:`ScoringService` — worker threads over one bounded admission
  queue, with per-model concurrency limits, request deadlines, and
  reject-with-:class:`~repro.errors.ServiceOverloadedError` backpressure;
* :class:`ShardedScoringService` — the same front end, with batches
  scored in worker processes over shared-memory weights: worker loop *k*
  takes the next batch of any model and sends it to process *k*;
* :class:`MicroBatcher` — coalesces single-row requests into one matrix
  op per tick and splits results back per request;
* :class:`ServingMetrics` — latency percentiles, queue depth, batch-size
  histogram, and reuse-cache hit rates via ``snapshot()``.

    registry = ModelRegistry()
    registry.register("lm", "yhat = X %*% B", weights={"B": coefficients})
    with ScoringService(registry) as service:
        yhat = service.score("lm", feature_row)
"""

from repro.errors import (
    ScoreTimeoutError,
    ServiceOverloadedError,
    ServingError,
    TenantThrottledError,
    UnknownModelError,
)
from repro.serving.batcher import MicroBatcher
from repro.serving.metrics import ServingMetrics
from repro.serving.qos import QosController, TenantPolicy, TokenBucket
from repro.serving.registry import ModelRegistry, ServableModel
from repro.serving.service import ScoreFuture, ScoringService
from repro.serving.workers import ShardedScoringService

__all__ = [
    "MicroBatcher",
    "ModelRegistry",
    "QosController",
    "ScoreFuture",
    "ScoreTimeoutError",
    "ScoringService",
    "ServableModel",
    "ServiceOverloadedError",
    "ServingError",
    "ServingMetrics",
    "ShardedScoringService",
    "TenantPolicy",
    "TenantThrottledError",
    "TokenBucket",
    "UnknownModelError",
]
