"""The reference-speed clock: laps partition the pass, scaling is per lap."""

import refspeed


def test_ungauged_clock_reports_raw_time():
    clock = refspeed.Clock(gauged=False)
    refspeed.reference_loop()
    clock.lap("a")
    refspeed.reference_loop()
    clock.lap("b")
    assert clock.scaled_s == clock.raw_s > 0
    assert clock.marks["a"][0] < clock.marks["b"][0] == clock.raw_s


def test_gauged_clock_scales_each_lap_by_the_loop_time(monkeypatch):
    monkeypatch.setattr(refspeed, "_loop_s", lambda: 2 * refspeed.REFERENCE_S)
    clock = refspeed.Clock()
    refspeed.reference_loop()
    clock.lap("a")
    raw, scaled = clock.marks["a"]
    assert abs(scaled - raw / 2) < 1e-12  # the machine runs at half the reference speed
