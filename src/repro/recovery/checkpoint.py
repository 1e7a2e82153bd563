"""Stage-boundary checkpoints.

A :class:`Checkpoint` freezes everything replaying a stage needs: the
per-rank blocks, the per-rank virtual clocks, the fault-state message
cursor, and the index of the last completed stage.  Blocks are
defensively snapshotted (NumPy arrays are copied; object-mode values are
immutable by construction) so a failed attempt can never corrupt the
state it will be restarted from.

Each checkpoint carries a content digest over a canonical encoding of
its payload.  Digest equality is cheap whole-state equality: the
zero-fault supervised-vs-unsupervised benchmark and the vectorized
bit-identity tests compare digests instead of walking nested blocks.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.semantics.functional import UNDEF

__all__ = ["Checkpoint", "snapshot_block", "digest_state"]

Cursor = tuple[tuple[tuple[int, int], int], ...]


def snapshot_block(value: Any) -> Any:
    """Deep, aliasing-free copy of one rank's block.

    Object-mode blocks (ints, floats, strings, UNDEF, nested tuples) are
    immutable and shared as-is; NumPy arrays — the vectorized
    representation — are copied so kernel code holding the live array can
    never write through into a checkpoint.  Lists are normalized to
    tuples, matching the engines' own value discipline.
    """
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, (tuple, list)):
        return tuple(snapshot_block(v) for v in value)
    return value


def _encode(value: Any, h) -> None:
    """Feed a canonical, type-tagged encoding of ``value`` into hash ``h``.

    Type tags prevent cross-type collisions (``1`` vs ``1.0`` vs ``"1"``
    vs ``array(1)`` all hash differently); container encodings include
    lengths so concatenation is unambiguous.
    """
    if value is UNDEF:
        h.update(b"U")
    elif isinstance(value, bool):
        h.update(b"b1" if value else b"b0")
    elif isinstance(value, int):
        raw = value.to_bytes((value.bit_length() + 8) // 8 + 1,
                             "little", signed=True)
        h.update(b"i" + struct.pack("<I", len(raw)) + raw)
    elif isinstance(value, float):
        h.update(b"f" + struct.pack("<d", value))
    elif isinstance(value, str):
        raw = value.encode("utf-8")
        h.update(b"s" + struct.pack("<I", len(raw)) + raw)
    elif value is None:
        h.update(b"N")
    elif isinstance(value, np.ndarray):
        arr = np.ascontiguousarray(value)
        dt = str(arr.dtype).encode()
        h.update(b"a" + struct.pack("<I", len(dt)) + dt)
        h.update(struct.pack("<I", arr.ndim)
                 + b"".join(struct.pack("<q", d) for d in arr.shape))
        h.update(arr.tobytes())
    elif isinstance(value, (tuple, list)):
        h.update(b"t" + struct.pack("<I", len(value)))
        for v in value:
            _encode(v, h)
    elif isinstance(value, np.generic):
        # NumPy scalar (e.g. an int64 indexed out of a block):
        # hash as the 0-d array it is equivalent to
        _encode(np.asarray(value), h)
    else:
        raise TypeError(
            f"cannot checkpoint value of type {type(value).__name__}: {value!r}")


def digest_state(blocks: Sequence[Any]) -> str:
    """Content hash of a distributed state (per-rank blocks only).

    Clocks and cursors are deliberately excluded: two runs that reach the
    same *values* by different timings (e.g. supervised with checkpoint
    overhead vs unsupervised) share a digest.
    """
    h = hashlib.sha256()
    h.update(struct.pack("<I", len(blocks)))
    for b in blocks:
        _encode(b, h)
    return h.hexdigest()


@dataclass(frozen=True)
class Checkpoint:
    """Immutable restart point after stage ``stage`` completed.

    ``stage == -1`` is the initial checkpoint (inputs, zero clocks).
    ``cursor`` is the fault-state per-link message-index snapshot; rolling
    it back on restore makes replay a pure function of the checkpoint,
    independent of how far the failed attempt got on either engine.
    """

    stage: int
    blocks: tuple[Any, ...]
    clocks: tuple[float, ...]
    cursor: Cursor
    digest: str

    @classmethod
    def capture(cls, stage: int, blocks: Sequence[Any],
                clocks: Sequence[float], cursor: Cursor) -> "Checkpoint":
        frozen = tuple(snapshot_block(b) for b in blocks)
        return cls(stage=stage, blocks=frozen,
                   clocks=tuple(float(c) for c in clocks),
                   cursor=tuple(cursor), digest=digest_state(frozen))

    def restore_blocks(self) -> list[Any]:
        """Fresh mutable-safe copies of the checkpointed blocks."""
        return [snapshot_block(b) for b in self.blocks]
