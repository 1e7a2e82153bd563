"""Observability: one span stream for the whole stack.

:data:`TRACER` is the one process-wide :class:`~repro.obs.trace.Tracer`
the seams under ``src/`` record to, and it is off by default: while it
is off no seam makes a span and no collector callback is installed.
Every seam has one form, a test of the tracer's flag around the span::

    if TRACER.enabled:
        with TRACER.span("lang.parse"):
            return _parse(source)
    return _parse(source)

so an untraced call pays one attribute read and runs the bare body,
where a ``with`` over a shared no-op span would cost three Python
frames.  A seam that answers something sets it on the span in the
traced branch only (``traced.outcome = …``, a rename, a ``request``).

The seams are ``lang.parse``, ``lang.to_program``, ``plancache.hit`` /
``plancache.miss``, ``plancache.put``, ``planner.search``,
``serving.submit`` (whose ``request`` is the job id),
``machine.resident`` (whose ``outcome`` is
:func:`~repro.machine.run.resident_run`'s: ``hit``, ``miss`` or the
reason it bypassed the resident schedules) and ``jit.lower`` (whose
``outcome`` is ``exact`` / ``fused`` or the reason the tape or the fused
rung declined).  Turn it on, run, and write the spans::

    from repro import obs
    obs.TRACER.enabled = True
    ...                                   # the requests to look at
    obs.TRACER.enabled = False
    obs.write_jsonl(obs.TRACER.spans, "trace.jsonl")

``python -m repro trace trace.jsonl`` prints, per span name, the count,
the total and self time, and the collector time booked on it.
"""

from repro.obs.trace import (
    Span,
    Tracer,
    by_name,
    read_jsonl,
    self_times,
    table,
    write_jsonl,
)

__all__ = ["TRACER", "Span", "Tracer", "self_times", "by_name",
           "write_jsonl", "read_jsonl", "table"]

#: the process-wide tracer every seam records to (off by default)
TRACER = Tracer()
