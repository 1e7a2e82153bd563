"""Contiguous message packing for tuple-of-array payloads.

The rewrite rules make collectives exchange *tuple states* — the ``(s, r)``
pairs of ``op_sr2``, the triples/quadruples of the Comcast operators.  In
object mode those are tuples of scalars and the cost of boxing is already
paid; on the kernels' checked rung they are tuples of same-shape arrays, and sending
them as a Python tuple means the transport handles k separate buffers per
message.  :func:`pack_block` stacks such a tuple into **one** contiguous
``(k, *shape)`` buffer, and :func:`unpack_block` returns views into it —
the receiver pays no copy at all.

Copy discipline (regression-tested in ``tests/test_messages_copies.py``):

* packing an *arbitrary* tuple costs one ``np.stack`` (one allocation,
  one copy per component) — unavoidable, the components are scattered;
* packing a tuple that came out of :func:`unpack_block` — the common case
  when a butterfly phase *forwards* a received state — is **zero-copy**:
  the components are recognized as consecutive views of one buffer and
  that buffer is reused verbatim;
* unpacking materializes its views **lazily** and caches them on the
  block, so repeated unpacks (or an unpack after a zero-copy repack)
  never rebuild the view tuple;
* payloads that are not tuples of same-shape arrays — in particular
  contiguous *single-array* payloads and all of object mode — pass
  through the transport untouched (no ``np.copy``, same object).

The threaded MPI backend applies this transparently at its single
primitive-action funnel; the process backend
(:mod:`repro.parallel`) reuses the same seam to move packed states as one
contiguous shared-memory stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["PackedBlock", "pack_block", "unpack_block"]


@dataclass(frozen=True)
class PackedBlock:
    """A k-component tuple state flattened into one contiguous buffer."""

    buffer: np.ndarray  # shape (k, *component_shape), C-contiguous
    #: lazily-materialized component views (cached by :meth:`unpack`)
    _views: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def components(self) -> int:
        return self.buffer.shape[0]

    def unpack(self) -> tuple:
        """The component tuple — zero-copy views, built once and cached."""
        if self._views is None:
            buf = self.buffer
            object.__setattr__(
                self, "_views", tuple(buf[i] for i in range(buf.shape[0])))
        return self._views


def _repack_base(payload: tuple) -> np.ndarray | None:
    """The shared parent buffer, when ``payload`` is an unpacked block.

    Recognizes tuples whose components are exactly the consecutive
    first-axis views of one ``(k, *shape)`` array — the shape
    :func:`unpack_block` produces — so forwarding a received state does
    not pay a second ``np.stack``.
    """
    base = payload[0].base
    # a block drawn from a BlockPool has its mapping, not an array, as base
    if not isinstance(base, np.ndarray) \
            or base.shape != (len(payload),) + payload[0].shape \
            or base.dtype != payload[0].dtype or not base.flags.c_contiguous:
        return None
    for i, c in enumerate(payload):
        if c.base is not base:
            return None
        want = base[i].__array_interface__
        have = c.__array_interface__
        if have["data"] != want["data"] or have["strides"] != want["strides"] \
                or have["shape"] != want["shape"]:
            return None
    return base


def pack_block(payload: Any) -> PackedBlock | None:
    """Pack a tuple of same-shape/dtype arrays, or None if not packable.

    Deliberately strict: only homogeneous all-array tuples pack, so object
    mode payloads (scalars, lists, tuples of Python numbers, UNDEF) are
    never touched and the fault-injection/chaos paths see identical
    payload objects with and without the vectorized layer loaded.
    """
    if not (isinstance(payload, tuple) and len(payload) >= 2):
        return None
    first = payload[0]
    if not isinstance(first, np.ndarray):
        return None
    for c in payload[1:]:
        if not isinstance(c, np.ndarray) or c.shape != first.shape \
                or c.dtype != first.dtype:
            return None
    base = _repack_base(payload)
    if base is not None:
        return PackedBlock(base, _views=payload)
    return PackedBlock(np.stack(payload))


def unpack_block(packed: PackedBlock) -> tuple:
    """Recover the component tuple (cached zero-copy views)."""
    return packed.unpack()
