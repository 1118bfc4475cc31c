"""Request trace log.

Every request processed by the SDN-accelerator is logged as a trace record
with the paper's schema (Section IV-A):

    <timestamp, user-id, acceleration-group, battery-level, round-trip-time>

The trace log is the knowledge base of the adaptive model: traces are sorted
chronologically and sliced into equal-length time slots; the number of
distinct users per acceleration group in each slot is the workload the
predictor learns from.

The paper stores traces in MySQL; this reproduction keeps them in memory with
CSV round-tripping for persistence.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Set

from repro.simulation.clock import MILLISECONDS_PER_HOUR


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
    """An append-only, chronologically sortable store of trace records."""

    _FIELDNAMES = (
        "timestamp_ms",
        "user_id",
        "acceleration_group",
        "battery_level",
        "round_trip_time_ms",
    )

    def __init__(self, records: Optional[Iterable[TraceRecord]] = None) -> None:
        self._records: List[TraceRecord] = list(records) if records else []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)

    def append(self, record: TraceRecord) -> None:
        """Append one record."""
        self._records.append(record)

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

    @property
    def records(self) -> List[TraceRecord]:
        """All records in insertion order."""
        return list(self._records)

    def sorted_records(self) -> List[TraceRecord]:
        """Records sorted chronologically (the paper sorts before slotting)."""
        return sorted(self._records, key=lambda record: record.timestamp_ms)

    def users(self) -> Set[int]:
        """Distinct user ids seen in the log."""
        return {record.user_id for record in self._records}

    def groups(self) -> Set[int]:
        """Distinct acceleration groups seen in the log."""
        return {record.acceleration_group for record in self._records}

    def time_span_ms(self) -> float:
        """Span between the first and last record, in milliseconds."""
        if not self._records:
            return 0.0
        times = [record.timestamp_ms for record in self._records]
        return max(times) - min(times)

    def window(self, start_ms: float, end_ms: float) -> "TraceLog":
        """Records with ``start_ms <= timestamp < end_ms``."""
        if end_ms < start_ms:
            raise ValueError(f"end_ms {end_ms} before start_ms {start_ms}")
        return TraceLog(
            record
            for record in self._records
            if start_ms <= record.timestamp_ms < end_ms
        )

    def users_per_group(self) -> Dict[int, Set[int]]:
        """Distinct users observed per acceleration group over the whole log."""
        result: Dict[int, Set[int]] = {}
        for record in self._records:
            result.setdefault(record.acceleration_group, set()).add(record.user_id)
        return result

    def slot_workloads(
        self,
        slot_length_ms: float,
        groups: Optional[Iterable[int]] = None,
        start_ms: Optional[float] = None,
        end_ms: Optional[float] = None,
    ) -> List[Dict[int, Set[int]]]:
        """Slice the log into equal-length time slots of per-group user sets.

        Each element of the returned list is one time slot ``t_i``: a mapping
        from acceleration group to the set of user ids that offloaded with
        that group during the slot.  This is exactly the structure the paper's
        prediction model operates on (Section IV-A/B).

        Parameters
        ----------
        slot_length_ms:
            Length of each slot; the paper supports "any length of a time
            period, defined in (fractions of) hours" — pass e.g.
            ``hours_to_ms(1)``.
        groups:
            The acceleration groups to include; defaults to all groups seen in
            the log.  Groups with no users in a slot are present with an empty
            set (the paper's "empty set" case).
        start_ms / end_ms:
            The half-open interval to slot; default to the log's span.
        """
        if slot_length_ms <= 0:
            raise ValueError(f"slot_length_ms must be positive, got {slot_length_ms}")
        records = self.sorted_records()
        if not records:
            return []
        group_list = sorted(groups) if groups is not None else sorted(self.groups())
        if start_ms is None:
            # Align to slot boundaries (e.g. whole hours) rather than to the
            # first record, so slots correspond to provisioning periods.
            first = (records[0].timestamp_ms // slot_length_ms) * slot_length_ms
        else:
            first = start_ms
        last = records[-1].timestamp_ms if end_ms is None else end_ms
        if last < first:
            raise ValueError(f"end_ms {last} before start_ms {first}")
        slot_count = max(1, int((last - first) // slot_length_ms) + 1)
        slots: List[Dict[int, Set[int]]] = [
            {group: set() for group in group_list} for _ in range(slot_count)
        ]
        for record in records:
            if record.timestamp_ms < first or record.timestamp_ms > last:
                continue
            index = min(int((record.timestamp_ms - first) // slot_length_ms), slot_count - 1)
            slots[index].setdefault(record.acceleration_group, set()).add(record.user_id)
        return slots

    def hourly_slot_workloads(self, groups: Optional[Iterable[int]] = None) -> List[Dict[int, Set[int]]]:
        """Convenience wrapper for one-hour slots (the paper's billing period)."""
        return self.slot_workloads(MILLISECONDS_PER_HOUR, groups=groups)

    # -- persistence --------------------------------------------------------

    def to_csv(self, path: "str | Path") -> Path:
        """Write the log to a CSV file; returns the path."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.DictWriter(handle, fieldnames=self._FIELDNAMES)
            writer.writeheader()
            for record in self._records:
                writer.writerow(record._asdict())
        return path

    @classmethod
    def from_csv(cls, path: "str | Path") -> "TraceLog":
        """Load a log previously written by :meth:`to_csv`."""
        path = Path(path)
        log = cls()
        with path.open("r", newline="") as handle:
            reader = csv.DictReader(handle)
            missing = set(cls._FIELDNAMES) - set(reader.fieldnames or ())
            if missing:
                raise ValueError(f"CSV {path} is missing columns: {sorted(missing)}")
            for row in reader:
                log.log(
                    timestamp_ms=float(row["timestamp_ms"]),
                    user_id=int(row["user_id"]),
                    acceleration_group=int(row["acceleration_group"]),
                    battery_level=float(row["battery_level"]),
                    round_trip_time_ms=float(row["round_trip_time_ms"]),
                )
        return log
