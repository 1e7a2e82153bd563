"""Span recorder: parent links, request ids, self times, the dump."""

import time

from benchmarks.e2e.trace import (
    Tracer,
    by_name,
    read_jsonl,
    self_times,
    write_jsonl,
)


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _record():
    tr = Tracer(enabled=True)
    roots = [tr.open_request(k) for k in (0, 1)]
    for root in roots:                      # both requests start ...
        with tr.resume(root):
            with tr.span("lang.parse"):
                _busy(0.002)
            with tr.span("plan"):
                with tr.span("plancache.hit"):
                    _busy(0.001)
                _busy(0.001)
    for root in roots:                      # ... before either finishes
        with tr.resume(root):
            with tr.span("serving.result"):
                _busy(0.001)
        tr.close(root)
    return tr, roots


def test_self_times_sum_to_the_root_span():
    tr, roots = _record()
    selfs = self_times(tr.spans)
    for root in roots:
        tree = [s for s in tr.spans if s.request == root.request]
        assert len(tree) == 5
        total = sum(selfs[s.id] for s in tree)
        assert abs(total - root.duration) < 1e-9
        # the root's own self time is what its children do not cover:
        # here, the other request's work on the one client thread
        assert selfs[root.id] > 0.002


def test_parent_links_and_request_ids():
    tr, roots = _record()
    by_id = {s.id: s for s in tr.spans}
    for s in tr.spans:
        if s.name == "request":
            assert s.parent is None
        else:
            assert by_id[s.parent].request == s.request
    hit = next(s for s in tr.spans if s.name == "plancache.hit")
    assert by_id[hit.parent].name == "plan"
    names = by_name(tr.spans)
    assert len(names["lang.parse"]) == 2
    assert all(0.0009 < x < 0.01 for x in names["plan"])  # minus its child


def test_disabled_tracer_records_nothing():
    tr = Tracer(enabled=False)
    root = tr.open_request(0)
    with tr.resume(root):
        with tr.span("lang.parse") as span:
            span.name = "renamed"           # callers may rename a span
    tr.close(root)
    assert root is None and tr.spans == []


def test_jsonl_round_trip(tmp_path):
    tr, _ = _record()
    path = tmp_path / "trace.jsonl"
    assert write_jsonl(tr.spans, path) == len(tr.spans)
    docs = list(read_jsonl(path))
    assert [d["name"] for d in docs] == [s.name for s in tr.spans]
    assert all(d["end"] >= d["start"] for d in docs)
    assert {d["request"] for d in docs} == {0, 1}
