"""Observability: one span stream for the whole stack.

:data:`TRACER` is the one process-wide :class:`~repro.obs.trace.Tracer`
the seams under ``src/`` record to, and it is off by default: while it
is off, :func:`span` returns a shared no-op span and no collector
callback is installed.  The seams are ``lang.parse``,
``lang.to_program``, ``plancache.hit`` / ``plancache.miss``,
``plancache.put``, ``planner.search``, ``serving.submit`` (whose
``request`` is the job id) and ``machine.resident`` (whose ``outcome``
is :func:`~repro.machine.run.resident_run`'s: ``hit``, ``miss`` or the
reason it bypassed the resident schedules).  Turn it on, run, and write
the spans::

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

__all__ = ["TRACER", "span", "Span", "Tracer", "self_times", "by_name",
           "write_jsonl", "read_jsonl", "table"]

#: the process-wide tracer every seam records to (off by default)
TRACER = Tracer()

#: ``TRACER.span``: a span of the process-wide tracer, or the shared no-op
span = TRACER.span
