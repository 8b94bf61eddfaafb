"""Synthetic Glasnost measurement traces for the monitoring case study (§8.2).

Each *test run* is a packet trace between a measurement server and a user's
host; the analysis extracts the minimum RTT per run and takes the median per
server over a 3-month window.  Monthly volumes can be set to reproduce
Table 3's file counts and window-change percentages exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.rng import RngStream

#: Monthly pcap-file counts for the paper's measurement server (Jan..Nov
#: 2011), solved from Table 3's nine 3-month window totals and window-change
#: sizes; these reproduce every "No. of pcap files" and "% change size"
#: entry of the table exactly.
TABLE3_MONTHLY_RUNS = [1147, 1176, 1710, 1976, 1941, 1441, 1333, 1551, 1500, 1726, 3310]
TABLE3_MONTH_NAMES = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov",
]


@dataclass(frozen=True)
class TestRun:
    """One Glasnost test run: a server, a user host, and its packet RTTs."""

    __test__ = False  # not a pytest class, despite the name

    server: int
    host: int
    month: int
    rtts_ms: tuple[float, ...]

    def min_rtt(self) -> float:
        return min(self.rtts_ms)

    def as_record(self) -> tuple:
        return (self.server, self.host, self.month, self.rtts_ms)


class GlasnostTraceGenerator:
    """Generates per-month batches of test runs for one measurement server."""

    def __init__(
        self,
        seed: int = 0,
        num_servers: int = 1,
        packets_per_run: int = 20,
        base_rtt_ms: float = 40.0,
    ) -> None:
        self.num_servers = num_servers
        self.packets_per_run = packets_per_run
        self.base_rtt_ms = base_rtt_ms
        self._rng = RngStream(seed, "datagen.glasnost")
        self._host_counter = 0

    def month_of_runs(self, month: int, count: int) -> list[TestRun]:
        """``count`` test runs stamped with ``month``."""
        runs = []
        for _ in range(count):
            server = int(self._rng.integers(0, self.num_servers))
            host = self._host_counter
            self._host_counter += 1
            # Each host sits at some network distance from the server; packet
            # RTTs are that distance plus queueing jitter.
            distance = self.base_rtt_ms * (
                0.3 + 2.0 * float(self._rng.random())
            )
            jitter = self._rng.exponential(5.0, size=self.packets_per_run)
            rtts = tuple(round(distance + float(j), 3) for j in jitter)
            runs.append(
                TestRun(server=server, host=host, month=month, rtts_ms=rtts)
            )
        return runs
