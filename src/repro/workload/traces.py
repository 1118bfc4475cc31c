"""Request trace log.

Every request processed by the SDN-accelerator is logged as a trace record
with the paper's schema (Section IV-A):

    <timestamp, user-id, acceleration-group, battery-level, round-trip-time>

The trace log is the knowledge base of the adaptive model: traces are sorted
chronologically and sliced into equal-length time slots; the number of
distinct users per acceleration group in each slot is the workload the
predictor learns from.

The paper stores traces in MySQL; this reproduction keeps them in memory.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, NamedTuple, Optional


class _TraceFields(NamedTuple):
    timestamp_ms: float
    user_id: int
    acceleration_group: int
    battery_level: float
    round_trip_time_ms: float


class TraceRecord(_TraceFields):
    """One logged request.

    Immutable; a named tuple because one is logged per delivered request.
    Every construction validates the fields, ``_make`` and ``_replace``
    included.
    """

    __slots__ = ()

    def __new__(
        cls,
        timestamp_ms: float,
        user_id: int,
        acceleration_group: int,
        battery_level: float,
        round_trip_time_ms: float,
    ) -> "TraceRecord":
        if timestamp_ms < 0:
            raise ValueError(f"timestamp_ms must be >= 0, got {timestamp_ms}")
        if user_id < 0:
            raise ValueError(f"user_id must be >= 0, got {user_id}")
        if acceleration_group < 0:
            raise ValueError(
                f"acceleration_group must be >= 0, got {acceleration_group}"
            )
        if not 0.0 <= battery_level <= 1.0:
            raise ValueError(f"battery_level must be in [0, 1], got {battery_level}")
        if round_trip_time_ms < 0:
            raise ValueError(
                f"round_trip_time_ms must be >= 0, got {round_trip_time_ms}"
            )
        return tuple.__new__(
            cls,
            (timestamp_ms, user_id, acceleration_group, battery_level, round_trip_time_ms),
        )

    @classmethod
    def _make(cls, iterable: Iterable) -> "TraceRecord":
        return cls(*iterable)


class TraceLog:
    """An append-only store of trace records."""

    def __init__(self, records: Optional[Iterable[TraceRecord]] = None) -> None:
        self._records: List[TraceRecord] = list(records) if records else []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def log(
        self,
        timestamp_ms: float,
        user_id: int,
        acceleration_group: int,
        battery_level: float,
        round_trip_time_ms: float,
    ) -> TraceRecord:
        """Create, append and return one record."""
        record = TraceRecord(
            timestamp_ms, user_id, acceleration_group, battery_level, round_trip_time_ms
        )
        self._records.append(record)
        return record

    def window(self, start_ms: float, end_ms: float) -> "TraceLog":
        """Records with ``start_ms <= timestamp < end_ms``."""
        if end_ms < start_ms:
            raise ValueError(f"end_ms {end_ms} before start_ms {start_ms}")
        return TraceLog(
            record
            for record in self._records
            if start_ms <= record.timestamp_ms < end_ms
        )
