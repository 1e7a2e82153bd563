"""The correctness gate and the clocks of the harness."""

from benchmarks.e2e import harness
from benchmarks.e2e.workloads import make_workload


def test_a_wrong_reply_is_counted_as_failed():
    w = make_workload("serve_hot", 0)
    w.setup()
    honest = w.finish
    served = []

    def lying_finish(pending):
        job, plan, values = honest(pending)
        served.append(1)
        if len(served) % 5 == 0:               # every fifth reply is wrong
            values = tuple(v + 1 if isinstance(v, int) else v
                           for v in values)
        return job, plan, values

    w.finish = lying_finish
    try:
        ph = harness.drive(w, 0.4)
    finally:
        w.close()
    assert ph.attempted == len(served) > 20
    assert ph.wrong == len(served) // 5
    assert ph.failed == ph.wrong and ph.raised == 0


def test_a_raising_request_is_counted_as_failed():
    w = make_workload("plan_cold", 0)
    w.setup()
    honest = w.start

    def flaky_start(i):
        if i % 7 == 3:
            raise RuntimeError("boom")
        return honest(i)

    w.start = flaky_start
    ph = harness.drive(w, 0.3)
    assert ph.raised > 0 and ph.wrong == 0
    assert ph.attempted == len(ph.latencies) + ph.raised


def test_honest_run_passes_and_checks_are_off_the_clock():
    w = make_workload("plan_cold", 1)
    w.setup()
    ph = harness.drive(w, 0.6)
    assert ph.failed == 0 and len(ph.latencies) > 50
    # one request in flight: the timed wall is the requests themselves
    # plus loop overhead, and the oracle's time is not in it
    assert ph.check_s > 0 and ph.checks == len(ph.latencies)
    assert sum(ph.latencies) <= ph.wall <= 0.6 + max(ph.latencies)
    assert 0 < ph.cpu <= 2 * ph.wall
    # the first requests feed the exact counters
    assert ph.sim_written >= ph.sim_run > 0
    assert 0 < len(ph.plans) <= harness.ACCOUNTED


def test_every_request_lies_in_a_stretch_between_two_speed_readings():
    w = make_workload("serve_hot", 2)
    w.setup()
    try:
        ph = harness.drive(w, 0.5)
    finally:
        w.close()
    ends = [s.end for s in ph.stretches]
    # several readings in half a second, the last one after the last reply
    assert len(ends) >= 5 and ends == sorted(ends)
    assert ends[-1] == len(ph.latencies)
    assert all(s.slowdown > 0 and s.wall >= 0 for s in ph.stretches)
    assert ph.wall == sum(s.wall for s in ph.stretches)
    assert len(ph.at_reference_speed()[0]) == len(ph.latencies)


def test_clock_values_are_divided_by_the_slowdown_of_their_stretch():
    ph = harness.Phase(
        latencies=[0.010, 0.020, 0.030],
        stretches=[harness.Stretch(end=2, wall=0.030, cpu=0.020, slowdown=2.0),
                   harness.Stretch(end=3, wall=0.030, cpu=0.030, slowdown=1.0)])
    latencies, wall, cpu = ph.at_reference_speed()
    assert latencies == [0.005, 0.010, 0.030]
    assert (wall, cpu) == (0.045, 0.040)


def test_a_reading_of_the_host_speed_is_a_positive_time():
    from benchmarks.e2e import hostspeed

    readings = [hostspeed.reading() for _ in range(5)]
    assert all(0 < r < 0.1 for r in readings)
    assert hostspeed.slowdown([hostspeed.NOMINAL_S] * 3) == 1.0
