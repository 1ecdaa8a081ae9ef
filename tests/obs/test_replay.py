"""Timeline replay as sim-clock counter tracks."""

import pytest

from repro.obs.replay import replay_timeline
from repro.obs.tracer import Tracer

TIMELINE = [
    # (time_s, temp_c, pim_rate, pim_fraction)
    (0.0, 70.0, 0.1, 1.0),
    (0.001, 80.0, 0.2, 0.5),
    (0.002, 85.0, 0.05, 0.25),
]


class TestReplay:
    def test_processes_every_sample(self):
        summary = replay_timeline(TIMELINE, tracer=Tracer(enabled=True))
        assert summary["events"] == 3.0
        assert summary["sim_span_s"] == pytest.approx(0.002)

    def test_emits_sim_tracks(self):
        tr = Tracer(enabled=True)
        replay_timeline(TIMELINE, tracer=tr)
        records = tr.records
        names = [r["name"] for r in records]
        for track in ("sim.temp_c", "sim.pim_rate_ops_ns", "sim.pim_fraction"):
            assert names.count(track) == len(TIMELINE)
        temps = [
            r for r in records
            if r["name"] == "sim.temp_c" and r.get("clock") == "sim"
        ]
        # sim-µs timestamps in timeline order
        assert [t["ts"] for t in temps] == pytest.approx([0.0, 1e3, 2e3])
        assert [t["args"]["value"] for t in temps] == [70.0, 80.0, 85.0]

    def test_empty_timeline(self):
        summary = replay_timeline([], tracer=Tracer(enabled=True))
        assert summary["events"] == 0.0
        assert summary["sim_span_s"] == 0.0
