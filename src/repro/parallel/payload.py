"""Payload classification and wire encoding for the process backend.

Three wire kinds cover every value the collective algorithms move:

* ``ARRAY``  — one contiguous ndarray.  The send streams **directly out
  of the array's own memory** into the shared ring (no serialization, no
  intermediate buffer — the zero-copy send path); the receive streams
  into a freshly allocated array of the advertised dtype/shape (the one
  unavoidable copy: the bytes must cross the address-space boundary).
* ``PACKED`` — a :class:`repro.kernels.messages.PackedBlock` (the
  contiguous tuple-state layout the threaded backend already packs at the
  same seam) streams its single backing buffer exactly like an array and
  is rebuilt as a ``PackedBlock`` on the far side, so ``op_sr2`` pairs
  and comcast triples travel as one stream and unpack to lazy views.
* ``PICKLE`` — everything else (object-mode scalars, tuples, lists,
  ``UNDEF``).  A custom pickler keeps :data:`UNDEF` *identical* across
  the process boundary so ``x is UNDEF`` checks keep working.

The descriptor (kind, nbytes, k, ndim, shape, dtype) is small and fixed
size; it is staged in the sender's shared outbox header so the receiver
can allocate its destination before the first chunk lands.
"""

from __future__ import annotations

import io
import pickle
from typing import Any

import numpy as np

from repro.kernels.messages import PackedBlock
from repro.semantics.functional import UNDEF

__all__ = ["ARRAY", "PACKED", "PICKLE", "encode_payload", "stage_meta",
           "alloc_destination", "finish_destination",
           "dumps", "loads"]

ARRAY, PACKED, PICKLE = 1, 2, 3

_UNDEF_PID = "repro.UNDEF"


class _Pickler(pickle.Pickler):
    def persistent_id(self, obj: Any):  # noqa: D102 - pickle protocol
        return _UNDEF_PID if obj is UNDEF else None


class _Unpickler(pickle.Unpickler):
    def persistent_load(self, pid: Any):  # noqa: D102 - pickle protocol
        if pid == _UNDEF_PID:
            return UNDEF
        raise pickle.UnpicklingError(f"unknown persistent id {pid!r}")


def dumps(obj: Any) -> bytes:
    """Pickle with :data:`UNDEF` identity preserved across processes."""
    buf = io.BytesIO()
    _Pickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(obj)
    return buf.getvalue()


def loads(blob: bytes) -> Any:
    """Inverse of :func:`dumps` — restores the :data:`UNDEF` singleton."""
    return _Unpickler(io.BytesIO(blob)).load()


def _wire_array(arr: np.ndarray) -> np.ndarray:
    """A C-contiguous view (or copy, for the rare sliced payload)."""
    return arr if arr.flags.c_contiguous else np.ascontiguousarray(arr)


def encode_payload(obj: Any) -> tuple[int, int, int, int, tuple, str, list]:
    """Classify ``obj`` → ``(kind, nbytes, k, ndim, shape, dtype, buffers)``.

    ``buffers`` are the byte sources the ring writer streams — for arrays
    the array's own memory, for everything else one pickled blob.
    """
    if isinstance(obj, PackedBlock):
        buf = _wire_array(obj.buffer)
        return (PACKED, buf.nbytes, buf.shape[0], buf.ndim - 1,
                buf.shape[1:], buf.dtype.str, [buf.reshape(-1).view(np.uint8)])
    if isinstance(obj, np.ndarray) and obj.dtype != object:
        buf = _wire_array(obj)
        return (ARRAY, buf.nbytes, 1, buf.ndim, buf.shape, buf.dtype.str,
                [buf.reshape(-1).view(np.uint8)])
    blob = dumps(obj)
    return (PICKLE, len(blob), 1, 0, (), "|u1", [blob])


def stage_meta(arena, rank: int, kind: int, nbytes: int, k: int, ndim: int,
               shape: tuple, dtype: str) -> None:
    """Write the payload descriptor into ``rank``'s shared outbox header."""
    if ndim > 8:
        raise ValueError(f"payload rank {ndim} exceeds descriptor capacity")
    arena.meta_kind[rank] = kind
    arena.meta_nbytes[rank] = nbytes
    arena.meta_k[rank] = k
    arena.meta_ndim[rank] = ndim
    arena.meta_shape[rank, :] = 0
    if ndim:
        arena.meta_shape[rank, :ndim] = shape
    enc = dtype.encode("ascii")[:16]
    arena.meta_dtype[rank, :] = 0
    arena.meta_dtype[rank, : len(enc)] = np.frombuffer(enc, dtype=np.uint8)


def alloc_destination(kind: int, nbytes: int, k: int, shape: tuple,
                      dtype: str) -> tuple[Any, memoryview]:
    """Allocate the receive destination and the writable view to fill.

    For ``ARRAY``/``PACKED`` the destination *is* the final storage — the
    stream lands straight in the result array, no assembly buffer.
    """
    if kind == ARRAY:
        arr = np.empty(shape, dtype=np.dtype(dtype))
        return arr, arr.reshape(-1).view(np.uint8).data
    if kind == PACKED:
        arr = np.empty((k,) + shape, dtype=np.dtype(dtype))
        return arr, arr.reshape(-1).view(np.uint8).data
    blob = bytearray(nbytes)
    return blob, memoryview(blob)


def finish_destination(kind: int, dest: Any) -> Any:
    """Turn a filled destination into the delivered Python value."""
    if kind == ARRAY:
        return dest
    if kind == PACKED:
        return PackedBlock(dest)
    return loads(bytes(dest))
