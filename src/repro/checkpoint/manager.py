"""The checkpoint manager: snapshot at boundaries, restore, fast-forward.

One :class:`CheckpointManager` serves the *main* interpretation frame of a
run (function-call and parfor frames never snapshot — ``ctx.child()``
deliberately drops the manager), tracking a live stack of cursor frames
as the interpreter enters block sequences, loops, and branches.  At every
while/for iteration boundary, after a completed parfor, and after each
top-level statement block, :meth:`boundary` fires; every
``checkpoint_every``-th boundary serialises the live symbol table plus
the cursor stack into the checkpoint directory.

Snapshots are incremental along two axes:

* **lineage skip** — a variable whose lineage hash equals the one stored
  at the previous checkpoint reuses its data file without even
  serialising the payload (the lineage key identifies the deterministic
  computation that produced the value);
* **content addressing** — payloads are stored under their blake2b
  checksum, so identical content is never written twice even without
  lineage.

The data files land first (atomic, fsynced), the manifest last — the
manifest write is the commit point.  After a commit, data files no longer
referenced are garbage collected.

Resume is restore + fast-forward: :meth:`prepare_resume` validates the
manifest, :meth:`begin` rebinds every saved variable into the fresh
context (matrices re-register with the buffer pool and get conservative
``ckpt`` lineage leaves, so reuse stays sound after resume), restores the
deterministic seed stream, and arms the saved cursor path.  The
interpreter then consumes the path frame by frame: completed blocks are
skipped, loops re-enter at the saved iteration with their originally
evaluated bounds (bounds are *not* re-evaluated — the symbol state has
moved on since loop entry), and ``if`` branches replay the recorded
decision without re-evaluating predicates.  Because snapshots happen at
iteration boundaries, the restored state is exactly the state an
uninterrupted run has at that point — resumed runs are bit-identical.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from typing import Dict, List, Optional, Tuple

from repro.checkpoint import manifest as manifest_mod
from repro.errors import CheckpointError, CorruptCheckpointError
from repro.io.atomic import atomic_write_bytes, atomic_write_json, checksum_bytes


def script_fingerprint(source: str) -> str:
    """Identity of a script for resume-compatibility checks."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


class CheckpointManager:
    """Snapshots and restores one run's state at loop boundaries."""

    def __init__(self, directory: str, every: int = 1,
                 fingerprint: Optional[str] = None,
                 clock=time.perf_counter):
        if every < 1:
            raise CheckpointError("checkpoint_every must be >= 1")
        self.directory = directory
        self.every = every
        #: sha256 of the script this checkpoint belongs to (None = unknown).
        self.fingerprint = fingerprint
        self._clock = clock
        os.makedirs(directory, exist_ok=True)
        self._stack: List[list] = []        # live cursor frames
        self._resume_path: List[list] = []  # frames left to fast-forward
        self._pending: Optional[dict] = None  # validated manifest to restore
        self._boundaries = 0
        self._checkpoint_id = 0
        #: lineage key hex -> (data file, checksum) at the last checkpoint.
        self._by_lineage: Dict[str, Tuple[str, str]] = {}
        self._stats = {
            "boundaries": 0,
            "checkpoints_written": 0,
            "entries_written": 0,
            "entries_skipped": 0,
            "bytes_written": 0,
            "restores": 0,
            "restore_time_s": 0.0,
            "checkpoint_time_s": 0.0,
        }

    @classmethod
    def from_config(cls, config, fingerprint: Optional[str] = None) -> "CheckpointManager":
        return cls(config.checkpoint_dir, every=config.checkpoint_every,
                   fingerprint=fingerprint)

    @property
    def manifest_path(self) -> str:
        return manifest_mod.manifest_path(self.directory)

    def bind_fingerprint(self, fingerprint: str) -> None:
        """Record the identity of the script about to execute."""
        self.fingerprint = fingerprint

    # --- resume -------------------------------------------------------------

    def prepare_resume(self) -> dict:
        """Validate the manifest and arm the next :meth:`begin` to restore.

        Raises :class:`CheckpointError` when there is nothing to resume and
        :class:`CorruptCheckpointError` when validation fails; the caller
        (CLI) turns both into clean diagnostics.
        """
        self._pending = manifest_mod.load_manifest(self.directory)
        return self._pending

    @property
    def resuming(self) -> bool:
        """True while the interpreter is still fast-forwarding."""
        return bool(self._resume_path)

    @property
    def resumed(self) -> bool:
        """True once this run restored state from a checkpoint.

        Unlike :attr:`resuming` this stays set after the fast-forward path
        drains — the trace cache keys invalidation on it, because restored
        symbol tables may not match the shapes hot traces were compiled
        against.
        """
        return self._stats["restores"] > 0

    def begin(self, ctx) -> None:
        """Start (or resume) a program run against ``ctx``."""
        self._stack = []
        self._resume_path = []
        if self._pending is None:
            return
        data, self._pending = self._pending, None
        recorded = data.get("fingerprint")
        if self.fingerprint and recorded and recorded != self.fingerprint:
            raise CheckpointError(
                "checkpoint manifest was written by a different script "
                "(fingerprint mismatch) — refusing to resume"
            )
        start = self._clock()
        self._by_lineage = {
            entry["lineage"]: (entry["file"], entry["checksum"])
            for entry in data["variables"].values()
            if entry.get("lineage") and entry.get("file")
        }
        for name, entry in data["variables"].items():
            ctx.set(name, self._thaw(name, entry, ctx))
        ctx._seed_state = int(data["seed_state"])
        for key, value in data.get("metrics", {}).items():
            ctx.metrics[key] = value
        self._boundaries = int(data["boundary"])
        self._checkpoint_id = int(data["checkpoint_id"])
        self._resume_path = [list(frame) for frame in data["path"]]
        self._stats["restores"] += 1
        self._stats["restore_time_s"] += self._clock() - start

    def finish(self, ctx) -> None:
        """Mark the run completed (a later ``--resume`` fails cleanly)."""
        manifest = {
            "version": manifest_mod.MANIFEST_VERSION,
            "completed": True,
            "checkpoint_id": self._checkpoint_id,
            "fingerprint": self.fingerprint,
            "boundary": self._boundaries,
            "path": [],
            "seed_state": ctx._seed_state,
            "metrics": dict(ctx.metrics),
            "variables": {},
        }
        atomic_write_json(self.manifest_path, manifest)
        self._by_lineage = {}
        self._gc(set())
        self._stack = []

    # --- cursor tracking (called by the interpreter) -------------------------

    def _pop_frame(self, expected: str) -> list:
        frame = self._resume_path.pop(0)
        if frame[0] != expected:
            raise CorruptCheckpointError(
                f"resume cursor expected a {expected!r} frame, found "
                f"{frame!r} — the checkpoint does not match the program"
            )
        return frame

    def enter_seq(self) -> int:
        """Enter a block sequence; returns the index to start at."""
        start = 0
        if self._resume_path:
            start = int(self._pop_frame("seq")[1])
        self._stack.append(["seq", start])
        return start

    def advance_seq(self, index: int) -> None:
        self._stack[-1][1] = index

    def exit_seq(self) -> None:
        self._stack.pop()

    def enter_if(self, branch: bool) -> None:
        self._stack.append(["if", bool(branch)])

    def resume_if(self) -> bool:
        """Replay the recorded branch decision instead of the predicate."""
        branch = bool(self._pop_frame("if")[1])
        self._stack.append(["if", branch])
        return branch

    def exit_if(self) -> None:
        self._stack.pop()

    def enter_for(self) -> Optional[Tuple[int, int, int]]:
        """Enter a for loop; a resume returns the saved (i, stop, step)."""
        if self._resume_path:
            frame = self._pop_frame("for")
            i, stop, step = int(frame[1]), int(frame[2]), int(frame[3])
            self._stack.append(["for", i, stop, step])
            return i, stop, step
        self._stack.append(["for", 0, 0, 1])
        return None

    def set_for_bounds(self, i: int, stop: int, step: int) -> None:
        frame = self._stack[-1]
        frame[1], frame[2], frame[3] = int(i), int(stop), int(step)

    def for_iter(self, i: int) -> None:
        self._stack[-1][1] = int(i)

    def enter_while(self) -> int:
        """Enter a while loop; returns completed iterations (resume only)."""
        n = 0
        if self._resume_path:
            n = int(self._pop_frame("while")[1])
        self._stack.append(["while", n])
        return n

    def while_iter(self, n: int) -> None:
        self._stack[-1][1] = int(n)

    def exit_loop(self) -> None:
        self._stack.pop()

    # --- boundaries and snapshots --------------------------------------------

    def boundary(self, ctx) -> None:
        """One iteration/top-level boundary; snapshot on cadence."""
        if self._resume_path:
            return  # still fast-forwarding (defensive; should be drained)
        self._boundaries += 1
        self._stats["boundaries"] += 1
        if self._boundaries % self.every:
            return
        self._snapshot(ctx)

    def _serialize_path(self) -> List[list]:
        """The cursor stack as a resume path.

        The innermost frame is advanced past the work already completed:
        a top-level ``seq`` boundary fires *after* block ``k``, so resume
        starts at ``k + 1``; a ``for`` boundary fires after iteration
        ``i``, so resume starts at ``i + step``.  ``while`` frames record
        completed iterations and re-evaluate their predicate on resume.
        Outer frames stay put — resume descends *into* them.
        """
        path = [list(frame) for frame in self._stack]
        if path:
            last = path[-1]
            if last[0] == "seq":
                last[1] += 1
            elif last[0] == "for":
                last[1] += last[3]
        return path

    def _snapshot(self, ctx) -> None:
        start = self._clock()
        self._checkpoint_id += 1
        variables = {}
        by_lineage: Dict[str, Tuple[str, str]] = {}
        referenced = set()
        for name in sorted(ctx.variables):
            if name.startswith("_t"):
                continue  # instruction temps never survive a boundary
            entry = self._freeze(name, ctx.variables[name], ctx)
            variables[name] = entry
            if entry.get("file"):
                referenced.add(os.path.basename(entry["file"]))
                if entry.get("lineage"):
                    by_lineage[entry["lineage"]] = (entry["file"], entry["checksum"])
        manifest = {
            "version": manifest_mod.MANIFEST_VERSION,
            "completed": False,
            "checkpoint_id": self._checkpoint_id,
            "fingerprint": self.fingerprint,
            "boundary": self._boundaries,
            "path": self._serialize_path(),
            "seed_state": ctx._seed_state,
            "metrics": dict(ctx.metrics),
            "variables": variables,
        }
        atomic_write_json(self.manifest_path, manifest)  # the commit point
        self._by_lineage = by_lineage
        self._gc(referenced)
        self._stats["checkpoints_written"] += 1
        self._stats["checkpoint_time_s"] += self._clock() - start

    def _gc(self, referenced) -> None:
        """Drop data files the just-committed manifest does not reference."""
        data_dir = os.path.join(self.directory, manifest_mod.DATA_DIR)
        try:
            names = os.listdir(data_dir)
        except OSError:
            return
        for name in names:
            if name not in referenced:
                try:
                    os.unlink(os.path.join(data_dir, name))
                except OSError:
                    pass

    # --- freeze / thaw --------------------------------------------------------

    def _freeze(self, name: str, value, ctx) -> dict:
        from repro.runtime.data import ScalarObject

        if isinstance(value, ScalarObject):
            return {
                "kind": "scalar",
                "value_type": value.value_type.value,
                "value": value.value,
            }
        lineage = None
        if ctx.tracer is not None:
            item = ctx.tracer.get(name)
            if item is not None:
                lineage = item.key.hex()
                cached = self._by_lineage.get(lineage)
                if cached is not None:
                    # unchanged since the last checkpoint: reuse its file
                    filename, checksum = cached
                    self._stats["entries_skipped"] += 1
                    return {
                        "kind": "data",
                        "type": _type_tag(value),
                        "file": filename,
                        "checksum": checksum,
                        "lineage": lineage,
                    }
        tag, payload = _freeze_payload(value, ctx)
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        checksum = checksum_bytes(data)
        filename = os.path.join(manifest_mod.DATA_DIR, f"ck-{checksum}.bin")
        full = os.path.join(self.directory, filename)
        if os.path.exists(full):
            self._stats["entries_skipped"] += 1  # content-addressed dedup
        else:
            atomic_write_bytes(full, data, fsync=True)
            self._stats["entries_written"] += 1
            self._stats["bytes_written"] += len(data)
        return {
            "kind": "data",
            "type": tag,
            "file": filename,
            "checksum": checksum,
            "lineage": lineage,
        }

    def _thaw(self, name: str, entry: dict, ctx):
        from repro.runtime.data import ScalarObject
        from repro.types import ValueType

        if entry.get("kind") == "scalar":
            value = ScalarObject(entry["value"], ValueType(entry["value_type"]))
            if ctx.tracer is not None:
                ctx.tracer.bind_literal(name, value.value)
            return value
        full = os.path.join(self.directory, entry["file"])
        try:
            with open(full, "rb") as handle:
                payload = pickle.load(handle)
        except (OSError, pickle.UnpicklingError, EOFError) as exc:
            raise CorruptCheckpointError(
                f"checkpoint data file {full} (variable {name!r}) cannot be "
                f"deserialised: {exc}"
            ) from exc
        value = _thaw_payload(entry.get("type", "matrix"), payload, ctx)
        if ctx.tracer is not None:
            # a conservative fresh lineage leaf: deterministic in the stored
            # hash, so no false reuse hits, and the first post-resume
            # snapshot still lineage-skips unchanged restored variables
            ref = entry.get("lineage") or entry.get("checksum") or ""
            item = ctx.tracer.make("ckpt", (), f"{name}:{ref}")
            ctx.tracer.items[name] = item
            self._by_lineage[item.key.hex()] = (entry["file"], entry["checksum"])
        return value

    # --- observability --------------------------------------------------------

    def snapshot(self) -> dict:
        """Stats for the obs ``checkpoint`` section."""
        stats = dict(self._stats)
        total = stats["entries_written"] + stats["entries_skipped"]
        stats["skip_rate"] = stats["entries_skipped"] / total if total else 0.0
        stats["last_checkpoint_id"] = self._checkpoint_id
        return stats


# ---------------------------------------------------------------------------
# payload freezing (handles -> picklable payloads and back)
# ---------------------------------------------------------------------------


def _type_tag(value) -> str:
    from repro.runtime.data import (
        FrameObject, ListObject, MatrixObject, TensorObject,
    )

    if isinstance(value, TensorObject) and value.data_tensor is not None:
        return "tensor"
    if isinstance(value, MatrixObject):
        return "matrix"
    if isinstance(value, FrameObject):
        return "frame"
    if isinstance(value, ListObject):
        return "list"
    raise CheckpointError(
        f"cannot checkpoint a variable of type {type(value).__name__}"
    )


def _local_block(value, ctx):
    """A matrix handle's payload as one local block, without mutating the
    handle (checkpointing must be observationally transparent)."""
    from repro.runtime.data import Representation

    if value.representation == Representation.LOCAL:
        return value.acquire_local()
    if value.rdd is not None:
        return value.rdd.collect_local()
    from repro.federated.instructions import collect_federated

    channel = ctx.faults.channel if ctx.faults is not None else None
    return collect_federated(value.federated, channel=channel)


def _freeze_payload(value, ctx):
    from repro.runtime.data import (
        FrameObject, ListObject, MatrixObject, TensorObject,
    )

    if isinstance(value, TensorObject) and value.data_tensor is not None:
        return "tensor", value.data_tensor
    if isinstance(value, MatrixObject):
        return "matrix", _local_block(value, ctx)
    if isinstance(value, FrameObject):
        return "frame", value.frame
    if isinstance(value, ListObject):
        from repro.runtime.data import ScalarObject

        items = []
        for item in value.items:
            if isinstance(item, ScalarObject):
                items.append(("scalar", (item.value, item.value_type.value)))
            else:
                items.append(_freeze_payload(item, ctx))
        return "list", (value.names, items)
    raise CheckpointError(
        f"cannot checkpoint a variable of type {type(value).__name__}"
    )


def _thaw_payload(tag: str, payload, ctx):
    from repro.runtime.data import (
        FrameObject, ListObject, MatrixObject, ScalarObject, TensorObject,
    )
    from repro.types import ValueType

    if tag == "matrix":
        return MatrixObject.from_block(payload, ctx.pool)
    if tag == "tensor":
        return TensorObject.from_data_tensor(payload)
    if tag == "frame":
        return FrameObject(payload)
    if tag == "list":
        names, frozen = payload
        items = []
        for item_tag, item_payload in frozen:
            if item_tag == "scalar":
                raw, value_type = item_payload
                items.append(ScalarObject(raw, ValueType(value_type)))
            else:
                items.append(_thaw_payload(item_tag, item_payload, ctx))
        return ListObject(items, names)
    raise CorruptCheckpointError(f"unknown checkpoint payload type {tag!r}")
