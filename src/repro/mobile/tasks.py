"""Offloadable computational tasks.

The paper's simulator offloads "a random computational task loaded from a pool
of common algorithms found in apps, e.g., quicksort, bubblesort" (Section V)
and uses a **minimax** decision-making task with static input for the
acceleration-level measurements (Fig. 5) and the model evaluation (Fig. 9/10).

Each :class:`OffloadableTask` here has two faces:

* a *real implementation* (:meth:`OffloadableTask.execute`) — a pure-Python
  algorithm that the ``offload_decision`` example and the tests really run; and
* a *cost model* — the number of **work units** the task costs on a level-1
  cloud core (1 work unit = 1 ms of level-1 single-core execution), used by
  the discrete-event simulation so that experiments with tens of thousands of
  requests stay fast and deterministic.

The default pool holds the 10 independent tasks the evaluation section
mentions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

import numpy as np


# ---------------------------------------------------------------------------
# Real algorithm implementations
# ---------------------------------------------------------------------------


def quicksort(values: Sequence[float]) -> List[float]:
    """Sort ``values`` with an explicit (non-library) quicksort."""
    items = list(values)
    if len(items) <= 1:
        return items
    pivot = items[len(items) // 2]
    smaller = [item for item in items if item < pivot]
    equal = [item for item in items if item == pivot]
    larger = [item for item in items if item > pivot]
    return quicksort(smaller) + equal + quicksort(larger)


def bubblesort(values: Sequence[float]) -> List[float]:
    """Sort ``values`` with bubble sort (intentionally quadratic)."""
    items = list(values)
    length = len(items)
    for outer in range(length):
        swapped = False
        for inner in range(0, length - outer - 1):
            if items[inner] > items[inner + 1]:
                items[inner], items[inner + 1] = items[inner + 1], items[inner]
                swapped = True
        if not swapped:
            break
    return items


def mergesort(values: Sequence[float]) -> List[float]:
    """Sort ``values`` with a top-down merge sort."""
    items = list(values)
    if len(items) <= 1:
        return items
    middle = len(items) // 2
    left = mergesort(items[:middle])
    right = mergesort(items[middle:])
    merged: List[float] = []
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return merged


def fibonacci(n: int) -> int:
    """Iterative Fibonacci (the classic offloading micro-benchmark)."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    previous, current = 0, 1
    for _ in range(n):
        previous, current = current, previous + current
    return previous


def nqueens_count(board_size: int) -> int:
    """Count all solutions of the N-queens puzzle via backtracking."""
    if board_size < 1:
        raise ValueError(f"board_size must be >= 1, got {board_size}")
    solutions = 0
    columns: set = set()
    diag_down: set = set()
    diag_up: set = set()

    def place(row: int) -> None:
        nonlocal solutions
        if row == board_size:
            solutions += 1
            return
        for column in range(board_size):
            if column in columns or (row + column) in diag_down or (row - column) in diag_up:
                continue
            columns.add(column)
            diag_down.add(row + column)
            diag_up.add(row - column)
            place(row + 1)
            columns.discard(column)
            diag_down.discard(row + column)
            diag_up.discard(row - column)

    place(0)
    return solutions


# --- Minimax on tic-tac-toe --------------------------------------------------

_WIN_LINES: Tuple[Tuple[int, int, int], ...] = (
    (0, 1, 2), (3, 4, 5), (6, 7, 8),   # rows
    (0, 3, 6), (1, 4, 7), (2, 5, 8),   # columns
    (0, 4, 8), (2, 4, 6),              # diagonals
)


def _tictactoe_winner(board: Sequence[int]) -> int:
    for a, b, c in _WIN_LINES:
        if board[a] != 0 and board[a] == board[b] == board[c]:
            return board[a]
    return 0


def minimax_best_move(board: Sequence[int], player: int = 1) -> Tuple[int, int]:
    """Full-depth minimax for tic-tac-toe.

    ``board`` is a 9-element sequence of {0 empty, 1 max player, -1 min
    player}.  Returns ``(best_score, best_move_index)``; the move index is -1
    on terminal boards.  This is the "decision making algorithm" class of task
    (minimax) the paper uses as its static workload.
    """
    board = list(board)
    if len(board) != 9 or any(cell not in (-1, 0, 1) for cell in board):
        raise ValueError("board must be 9 cells of -1/0/1")
    if player not in (-1, 1):
        raise ValueError(f"player must be -1 or 1, got {player}")

    def recurse(state: List[int], to_move: int) -> Tuple[int, int]:
        winner = _tictactoe_winner(state)
        if winner != 0:
            return winner, -1
        if all(cell != 0 for cell in state):
            return 0, -1
        best_move = -1
        best_score = -2 if to_move == 1 else 2
        for index in range(9):
            if state[index] != 0:
                continue
            state[index] = to_move
            score, _ = recurse(state, -to_move)
            state[index] = 0
            if to_move == 1 and score > best_score:
                best_score, best_move = score, index
            elif to_move == -1 and score < best_score:
                best_score, best_move = score, index
        return best_score, best_move

    return recurse(board, player)


def matrix_multiply(size: int, seed: int = 0) -> float:
    """Dense matrix multiplication; returns the trace of the product."""
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((size, size))
    b = rng.standard_normal((size, size))
    return float(np.trace(a @ b))


def prime_sieve(limit: int) -> int:
    """Count primes below ``limit`` with a sieve of Eratosthenes."""
    if limit < 2:
        return 0
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for value in range(2, int(limit ** 0.5) + 1):
        if sieve[value]:
            sieve[value * value:: value] = False
    return int(np.count_nonzero(sieve))


def knapsack(weights: Sequence[int], values: Sequence[int], capacity: int) -> int:
    """0/1 knapsack by dynamic programming; returns the optimal value."""
    if len(weights) != len(values):
        raise ValueError("weights and values must have the same length")
    if capacity < 0:
        raise ValueError(f"capacity must be >= 0, got {capacity}")
    best = [0] * (capacity + 1)
    for weight, value in zip(weights, values):
        for remaining in range(capacity, weight - 1, -1):
            candidate = best[remaining - weight] + value
            if candidate > best[remaining]:
                best[remaining] = candidate
    return best[capacity]


def edit_distance(first: str, second: str) -> int:
    """Levenshtein distance between two strings (dynamic programming)."""
    if first == second:
        return 0
    previous = list(range(len(second) + 1))
    for i, char_a in enumerate(first, start=1):
        current = [i]
        for j, char_b in enumerate(second, start=1):
            insert_cost = current[j - 1] + 1
            delete_cost = previous[j] + 1
            replace_cost = previous[j - 1] + (0 if char_a == char_b else 1)
            current.append(min(insert_cost, delete_cost, replace_cost))
        previous = current
    return previous[-1]


# ---------------------------------------------------------------------------
# Task abstraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OffloadableTask:
    """One offloadable method: a simulated work cost plus a real implementation.

    Attributes
    ----------
    name:
        Human-readable task name.
    work_units:
        Mean cost on a level-1 core (1 unit = 1 ms of level-1 single-core
        execution); drives the simulated ``T_cloud``.
    work_variability:
        Coefficient of variation of the per-request work (random inputs make
        the processing requirement of each request random, Section VI-A1).
    runner / input_builder:
        The real implementation and a deterministic small-input builder for
        it, so the task can genuinely be executed.
    """

    name: str
    work_units: float
    work_variability: float = 0.25
    runner: Optional[Callable[..., Any]] = None
    input_builder: Optional[Callable[[np.random.Generator], tuple]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("task name must be non-empty")
        if self.work_units <= 0:
            raise ValueError(f"work_units must be positive, got {self.work_units}")
        if self.work_variability < 0:
            raise ValueError(f"work_variability must be >= 0, got {self.work_variability}")

    def sample_work_units(self, rng: np.random.Generator) -> float:
        """Draw the work requirement of one request of this task."""
        if self.work_variability == 0:
            return self.work_units
        sample = rng.normal(self.work_units, self.work_units * self.work_variability)
        return float(max(sample, self.work_units * 0.1))

    def sample_work_units_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` work requirements in one vectorised call.

        Produces the same value sequence as ``count`` scalar
        :meth:`sample_work_units` calls on the same generator state (numpy
        fills arrays with the same iterative routine).
        """
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if self.work_variability == 0:
            return np.full(count, self.work_units)
        samples = rng.normal(
            self.work_units, self.work_units * self.work_variability, size=count
        )
        return np.maximum(samples, self.work_units * 0.1, out=samples)

    def execute(self, rng: Optional[np.random.Generator] = None) -> Any:
        """Really run the task's algorithm on a generated input."""
        if self.runner is None:
            raise NotImplementedError(f"task {self.name!r} has no real implementation")
        rng = rng if rng is not None else np.random.default_rng(0)
        args = self.input_builder(rng) if self.input_builder is not None else ()
        return self.runner(*args)


class TaskPool:
    """A pool of offloadable tasks from which requests draw randomly."""

    def __init__(self, tasks: Sequence[OffloadableTask]) -> None:
        if not tasks:
            raise ValueError("task pool must contain at least one task")
        names = [task.name for task in tasks]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate task names in pool: {names}")
        self._tasks: List[OffloadableTask] = list(tasks)

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self):
        return iter(self._tasks)

    @property
    def names(self) -> List[str]:
        return [task.name for task in self._tasks]

    def get(self, name: str) -> OffloadableTask:
        """Look up a task by name."""
        for task in self._tasks:
            if task.name == name:
                return task
        raise KeyError(f"unknown task {name!r}; pool has {self.names}")

    def sample(self, rng: np.random.Generator) -> OffloadableTask:
        """Pick a task uniformly at random (the paper's random-pool mode)."""
        index = int(rng.integers(0, len(self._tasks)))
        return self._tasks[index]

    def mean_work_units(self) -> float:
        """Average work per request across the pool (uniform task choice)."""
        return float(np.mean([task.work_units for task in self._tasks]))


def build_default_task_pool() -> TaskPool:
    """The 10-task pool used by the evaluation.

    Work-unit costs are calibrated so that a typical random request costs a
    few hundred milliseconds of level-1 execution, the static minimax task
    costs ≈2000 ms of level-1 execution (Fig. 5 / Fig. 9 operate in the
    0.5–5 s response-time range) and the short-task end of the pool keeps the
    Fig. 4 characterization within its 10–1000+ ms range.
    """
    tasks = [
        OffloadableTask(
            name="minimax",
            work_units=2000.0,
            work_variability=0.05,
            runner=minimax_best_move,
            input_builder=lambda rng: ([0] * 9, 1),
        ),
        OffloadableTask(
            name="nqueens",
            work_units=900.0,
            work_variability=0.15,
            runner=nqueens_count,
            input_builder=lambda rng: (8,),
        ),
        OffloadableTask(
            name="quicksort",
            work_units=120.0,
            work_variability=0.30,
            runner=quicksort,
            input_builder=lambda rng: (rng.standard_normal(512).tolist(),),
        ),
        OffloadableTask(
            name="bubblesort",
            work_units=350.0,
            work_variability=0.30,
            runner=bubblesort,
            input_builder=lambda rng: (rng.standard_normal(256).tolist(),),
        ),
        OffloadableTask(
            name="mergesort",
            work_units=100.0,
            work_variability=0.30,
            runner=mergesort,
            input_builder=lambda rng: (rng.standard_normal(512).tolist(),),
        ),
        OffloadableTask(
            name="fibonacci",
            work_units=40.0,
            work_variability=0.20,
            runner=fibonacci,
            input_builder=lambda rng: (int(rng.integers(100, 400)),),
        ),
        OffloadableTask(
            name="matrix-multiply",
            work_units=500.0,
            work_variability=0.20,
            runner=matrix_multiply,
            input_builder=lambda rng: (48, int(rng.integers(0, 1000))),
        ),
        OffloadableTask(
            name="prime-sieve",
            work_units=200.0,
            work_variability=0.15,
            runner=prime_sieve,
            input_builder=lambda rng: (int(rng.integers(10_000, 50_000)),),
        ),
        OffloadableTask(
            name="knapsack",
            work_units=300.0,
            work_variability=0.25,
            runner=knapsack,
            input_builder=lambda rng: (
                rng.integers(1, 20, size=24).tolist(),
                rng.integers(1, 50, size=24).tolist(),
                60,
            ),
        ),
        OffloadableTask(
            name="edit-distance",
            work_units=150.0,
            work_variability=0.25,
            runner=edit_distance,
            input_builder=lambda rng: (
                "".join(rng.choice(list("abcdefgh"), size=64)),
                "".join(rng.choice(list("abcdefgh"), size=64)),
            ),
        ),
    ]
    return TaskPool(tasks)


#: The default pool of 10 independent tasks (Section VI of the paper).
DEFAULT_TASK_POOL: TaskPool = build_default_task_pool()
