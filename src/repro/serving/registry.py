"""Model registry: versioned scoring scripts with pinned weights.

Registering a model compiles its DML scoring script once (the JMLC path)
and converts its weights into buffer-pool-backed matrix objects that are
*persistently pinned*: under memory pressure the pool evicts request
intermediates, never the weights, so the serving hot path is free of
restore round-trips.

All models of one registry share a single buffer pool, and each model's
prepared script holds a session on the process-wide lineage reuse cache.
Lineage names the weights by their content, so the model-side sub-DAG
(anything derived from the weights alone) gets full lineage reuse across
requests.
"""

from __future__ import annotations

import json
import os
import pickle
import threading
from typing import Dict, Optional, Sequence

import numpy as np

from repro.api.jmlc import PreparedScript
from repro.config import ReproConfig
from repro.errors import ServingError, UnknownModelError
from repro.io.atomic import atomic_write_bytes, atomic_write_json, checksum_bytes
from repro.runtime.bufferpool import BufferPool
from repro.runtime.data import MatrixObject
from repro.tensor import BasicTensorBlock

#: Name of the registry manifest written by :meth:`ModelRegistry.checkpoint_to`.
SERVING_MANIFEST = "registry.json"


def _to_weight_object(value, pool: BufferPool) -> MatrixObject:
    """Convert a weight to a pool-backed, persistently pinned matrix."""
    if isinstance(value, MatrixObject):
        block = value.acquire_local()
    elif isinstance(value, BasicTensorBlock):
        block = value
    elif isinstance(value, np.ndarray):
        array = value if value.ndim == 2 else np.atleast_2d(value).T
        block = BasicTensorBlock.from_numpy(np.asarray(array, dtype=np.float64))
    elif hasattr(value, "tocsr"):  # scipy sparse
        block = BasicTensorBlock.from_scipy(value.tocsr())
    else:
        raise ServingError(
            f"model weights must be matrices, got {type(value).__name__}"
        )
    weight = MatrixObject.from_block(block, pool)
    weight.pin_persistent()
    return weight


class ServableModel:
    """One registered (model, version): prepared script + pinned weights."""

    def __init__(
        self,
        name: str,
        version: int,
        script: PreparedScript,
        weights: Dict[str, MatrixObject],
        data_input: str,
        output: str,
        max_concurrency: Optional[int] = None,
    ):
        self.name = name
        self.version = version
        self.script = script
        self.weights = weights
        self.data_input = data_input
        self.output = output
        #: Cap on concurrent executions of this model (None = unbounded).
        self.max_concurrency = max_concurrency

    @property
    def key(self) -> str:
        return f"{self.name}@v{self.version}"

    def score_batch(self, features: np.ndarray) -> np.ndarray:
        """Score a stacked feature matrix; one script execution per call.

        The weights are the same content on every call, the feature matrix
        is the only per-call change.  Outputs are copied out and the
        execution context is closed, returning intermediates to the shared
        pool immediately.
        """
        results = self.script.execute(
            **{self.data_input: features}, **self.weights
        )
        try:
            return results.matrix(self.output)
        finally:
            results.close()

    def reuse_snapshot(self) -> dict:
        cache = self.script.reuse_cache
        return cache.snapshot() if cache is not None else {}

    def spec(self) -> dict:
        """Picklable description (sans weights) for worker-side rebuild."""
        return {
            "name": self.name,
            "version": self.version,
            "source": self.script.source,
            "data_input": self.data_input,
            "output": self.output,
            "max_concurrency": self.max_concurrency,
        }

    def release(self) -> None:
        """Free the pinned weights (model unregistered)."""
        for weight in self.weights.values():
            weight.free()
        self.weights = {}


class ModelRegistry:
    """Versioned, thread-safe store of servable models over a shared pool."""

    def __init__(self, config: Optional[ReproConfig] = None):
        if config is None:
            # serving wants lineage reuse on by default: the model-side
            # sub-DAG is identical across requests
            config = ReproConfig(enable_lineage=True, reuse_policy="full")
        self.config = config
        self.pool = BufferPool(config.bufferpool_budget, config.spill_dir)
        self._models: Dict[str, Dict[int, ServableModel]] = {}
        self._lock = threading.RLock()
        self._stats = None

    def register(
        self,
        name: str,
        source: str,
        weights: Optional[Dict[str, object]] = None,
        data_input: str = "X",
        output: str = "yhat",
        version: Optional[int] = None,
        max_concurrency: Optional[int] = None,
    ) -> ServableModel:
        """Compile a scoring script and pin its weights; returns the model.

        ``source`` reads the feature matrix from ``data_input`` and writes
        the scores to ``output``; every weight name becomes an additional
        script input bound to the pinned weight object on each request.
        """
        weights = weights or {}
        if data_input in weights:
            raise ServingError(
                f"data input {data_input!r} collides with a weight name"
            )
        inputs = [data_input] + list(weights)
        script = PreparedScript(
            source, inputs=inputs, outputs=[output],
            config=self.config, pool=self.pool, stats=self._stats,
        )
        pinned = {
            wname: _to_weight_object(value, self.pool)
            for wname, value in weights.items()
        }
        with self._lock:
            versions = self._models.setdefault(name, {})
            if version is None:
                version = max(versions) + 1 if versions else 1
            elif version in versions:
                raise ServingError(f"model {name!r} v{version} already registered")
            model = ServableModel(
                name, version, script, pinned, data_input, output,
                max_concurrency=max_concurrency,
            )
            versions[version] = model
            return model

    def get(self, name: str, version: Optional[int] = None) -> ServableModel:
        """The given (or latest) version of a model; raises when unknown."""
        with self._lock:
            versions = self._models.get(name)
            if not versions:
                raise UnknownModelError(f"no model registered under {name!r}")
            if version is None:
                return versions[max(versions)]
            model = versions.get(version)
            if model is None:
                raise UnknownModelError(f"model {name!r} has no version {version}")
            return model

    def models(self) -> Sequence[str]:
        with self._lock:
            return sorted(self._models)

    def set_stats(self, registry) -> None:
        """Route instruction profiling of all models into ``registry``.

        Applies to already-registered scripts and to future ``register``
        calls, so serving workers fold into one heavy-hitter table.
        """
        with self._lock:
            self._stats = registry
            for versions in self._models.values():
                for model in versions.values():
                    model.script.set_stats(registry)

    def versions(self, name: str) -> Sequence[int]:
        with self._lock:
            versions = self._models.get(name)
            if not versions:
                raise UnknownModelError(f"no model registered under {name!r}")
            return sorted(versions)

    def unregister(self, name: str, version: Optional[int] = None) -> None:
        """Drop one version (or all versions) of a model and free weights."""
        with self._lock:
            versions = self._models.get(name)
            if not versions:
                raise UnknownModelError(f"no model registered under {name!r}")
            doomed = list(versions.values()) if version is None \
                else [self.get(name, version)]
            for model in doomed:
                versions.pop(model.version, None)
                model.release()
            if not versions:
                self._models.pop(name, None)

    # --- multi-process data plane -------------------------------------------

    def share_weights(self, store) -> list:
        """Publish every model's weights into shared memory.

        ``store`` is a :class:`repro.io.shm.SharedWeightStore`.  Returns a
        picklable list of model entries — :meth:`ServableModel.spec` plus a
        ``weights`` map of segment specs — which is the complete bootstrap
        payload a scoring worker needs to rebuild the registry with
        zero-copy weight views (:meth:`from_shared`).  Content addressing
        dedupes identical weights across models and across calls.
        """
        with self._lock:
            models = [
                model for versions in self._models.values()
                for model in versions.values()
            ]
        entries = []
        for model in sorted(models, key=lambda m: (m.name, m.version)):
            entry = model.spec()
            entry["weights"] = {
                wname: store.publish_block(weight.acquire_local())
                for wname, weight in sorted(model.weights.items())
            }
            entries.append(entry)
        return entries

    @classmethod
    def from_shared(cls, entries, store,
                    config: Optional[ReproConfig] = None) -> "ModelRegistry":
        """Rebuild a registry in a worker from :meth:`share_weights` output.

        Each weight attaches checksum-verified and stays a zero-copy view
        over the parent's shared pages; the nnz threaded through the
        segment header means no weight is ever re-scanned.  Scripts are
        recompiled locally (compilation is per-process by design — plan
        caches and reuse caches are not shareable).
        """
        registry = cls(config)
        for entry in entries:
            weights = {
                wname: store.attach(spec).as_block()
                for wname, spec in entry.get("weights", {}).items()
            }
            registry.register(
                entry["name"], entry["source"], weights=weights,
                data_input=entry.get("data_input", "X"),
                output=entry.get("output", "yhat"),
                version=entry.get("version"),
                max_concurrency=entry.get("max_concurrency"),
            )
        return registry

    # --- warm restart -------------------------------------------------------

    def checkpoint_to(self, directory: str) -> str:
        """Persist every registered model for a later :meth:`warm_restart`.

        Weight blocks land as content-addressed pickle files under
        ``directory/weights/`` via atomic writes; the registry manifest is
        written last (the commit point), so a crash mid-checkpoint never
        leaves a manifest referencing missing weights.  Returns the
        manifest path.
        """
        weights_dir = os.path.join(directory, "weights")
        os.makedirs(weights_dir, exist_ok=True)
        with self._lock:
            models = [
                model for versions in self._models.values()
                for model in versions.values()
            ]
        entries = []
        for model in sorted(models, key=lambda m: (m.name, m.version)):
            weight_meta = {}
            for wname, weight in sorted(model.weights.items()):
                block = weight.acquire_local()
                payload = pickle.dumps(block, protocol=pickle.HIGHEST_PROTOCOL)
                checksum = checksum_bytes(payload)
                filename = os.path.join("weights", f"w-{checksum}.bin")
                target = os.path.join(directory, filename)
                if not os.path.exists(target):
                    atomic_write_bytes(target, payload, fsync=True)
                weight_meta[wname] = {"file": filename, "checksum": checksum}
            entries.append({
                "name": model.name,
                "version": model.version,
                "source": model.script.source,
                "data_input": model.data_input,
                "output": model.output,
                "max_concurrency": model.max_concurrency,
                "weights": weight_meta,
            })
        manifest_path = os.path.join(directory, SERVING_MANIFEST)
        atomic_write_json(
            manifest_path, {"version": 1, "models": entries}, fsync=True
        )
        return manifest_path

    @classmethod
    def warm_restart(
        cls, directory: str, config: Optional[ReproConfig] = None
    ) -> "ModelRegistry":
        """Rebuild a registry from the last :meth:`checkpoint_to` manifest.

        Scripts are recompiled and weights re-pinned into a fresh buffer
        pool, so a restarted scoring service is hot (no lazy compile on the
        first request).  Raises :class:`ServingError` when the manifest is
        missing or corrupt.
        """
        manifest_path = os.path.join(directory, SERVING_MANIFEST)
        try:
            with open(manifest_path, "r", encoding="utf-8") as handle:
                manifest = json.load(handle)
        except OSError as exc:
            raise ServingError(
                f"no serving manifest at {manifest_path} — nothing to "
                f"warm-restart from"
            ) from exc
        except json.JSONDecodeError as exc:
            raise ServingError(
                f"corrupt serving manifest {manifest_path}: {exc}"
            ) from exc
        if manifest.get("version") != 1:
            raise ServingError(
                f"unsupported serving manifest version "
                f"{manifest.get('version')!r} in {manifest_path}"
            )
        registry = cls(config)
        for entry in manifest.get("models", []):
            weights = {}
            for wname, meta in entry.get("weights", {}).items():
                path = os.path.join(directory, meta["file"])
                try:
                    with open(path, "rb") as handle:
                        payload = handle.read()
                except OSError as exc:
                    raise ServingError(
                        f"serving manifest references missing weight file "
                        f"{path}"
                    ) from exc
                if checksum_bytes(payload) != meta.get("checksum"):
                    raise ServingError(
                        f"weight file {path} fails its checksum — refusing "
                        f"to warm-restart from corrupt state"
                    )
                weights[wname] = pickle.loads(payload)
            registry.register(
                entry["name"], entry["source"], weights=weights,
                data_input=entry.get("data_input", "X"),
                output=entry.get("output", "yhat"),
                version=entry.get("version"),
                max_concurrency=entry.get("max_concurrency"),
            )
        return registry

    def close(self) -> None:
        """Unregister everything and tear down the shared buffer pool."""
        with self._lock:
            for name in list(self._models):
                self.unregister(name)
            self.pool.close()
