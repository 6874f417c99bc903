"""Experiment harness and evaluation statistics.

Run records persist as append-only CSV; all statistics (performance
profiles, blocked rank scores) are pure functions of the record set.
"""

from __future__ import annotations

import csv
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass

# Significance thresholds for pairwise rank-score differences at a
# family-wise error rate of 0.001, for the two experimental group sizes.
SM_DELTA_60_INSTANCES = 335.0
SM_DELTA_45_INSTANCES = 244.0

CSV_COLUMNS = ["instance", "algorithm", "seed", "objective", "wall_seconds", "status"]

STATUS_OK = "ok"
STATUS_LIMIT = "limit"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class RunRecord:
    instance: str
    algorithm: str
    seed: int
    objective: int
    wall_seconds: float
    status: str = STATUS_OK


@dataclass(frozen=True)
class ProfileCurve:
    """Right-continuous nondecreasing step curve of performance ratios."""

    algorithm: str
    breakpoints: tuple[tuple[float, float], ...]  # (tau, P(tau))


def write_records(path, records) -> None:
    """Append records to the CSV at path, with a header if it is new or empty."""
    exists = os.path.exists(path) and os.path.getsize(path) > 0
    mode = "a" if exists else "w"
    with open(path, mode, newline="") as f:
        writer = csv.writer(f)
        if mode == "w":
            writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow([r.instance, r.algorithm, r.seed, r.objective, r.wall_seconds, r.status])


def read_records(path) -> list[RunRecord]:
    records = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            records.append(
                RunRecord(
                    instance=row["instance"],
                    algorithm=row["algorithm"],
                    seed=int(row["seed"]),
                    objective=int(row["objective"]),
                    wall_seconds=float(row["wall_seconds"]),
                    status=row["status"],
                )
            )
    return records


def performance_profiles(records) -> list[ProfileCurve]:
    """Per-algorithm step curves of median-objective performance ratios.

    For each (algorithm, instance) the replications are aggregated by the
    median; ratios are relative to the best median on that instance.
    Missing cells score ratio +inf and never enter the curve at finite
    tau.
    """
    ok = [r for r in records if r.status == STATUS_OK]
    if not ok:
        raise ValueError("no ok records")
    algorithms = sorted({r.algorithm for r in ok})
    instances = sorted({r.instance for r in ok})

    medians: dict[tuple[str, str], float] = {}
    for a in algorithms:
        for i in instances:
            cell = [r.objective for r in ok if r.algorithm == a and r.instance == i]
            if cell:
                medians[(a, i)] = statistics.median(cell)

    best = {i: min(medians[(a, i)] for a in algorithms if (a, i) in medians) for i in instances}
    ratios = {
        a: [medians[(a, i)] / best[i] if (a, i) in medians else math.inf for i in instances]
        for a in algorithms
    }

    n = len(instances)
    curves = []
    for a in algorithms:
        finite = sorted(r for r in ratios[a] if math.isfinite(r))
        points = []
        count = 0
        idx = 0
        while idx < len(finite):
            j = idx
            while j < len(finite) and finite[j] == finite[idx]:
                j += 1
            count = j
            points.append((finite[idx], count / n))
            idx = j
        curves.append(ProfileCurve(algorithm=a, breakpoints=tuple(points)))
    return curves


def _average_ranks(values) -> list[float]:
    """Ranks 1..n with average ranks for ties."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and values[order[j]] == values[order[i]]:
            j += 1
        avg = (i + 1 + j) / 2.0  # mean of ranks i+1..j
        for idx in order[i:j]:
            ranks[idx] = avg
        i = j
    return ranks


def sm_scores(
    blocks: dict[str, dict[str, list[float]]], delta: float
) -> tuple[dict[str, float], list[tuple[str, str]]]:
    """Blocked rank scores and the significant treatment pairs.

    blocks maps block id -> treatment id -> list of replications; the
    design must be balanced (same treatments, same replication count c in
    every cell).  Within a block all c*k values are ranked together with
    average ranks for ties; a treatment's block value is the mean of its
    c ranks, and its score is the sum over blocks.  Pairs whose absolute
    score difference exceeds delta are reported as significant.
    """
    if not blocks:
        raise ValueError("no blocks")
    treatments = None
    c = None
    for block_id, cells in blocks.items():
        names = sorted(cells)
        if treatments is None:
            treatments = names
        elif names != treatments:
            raise ValueError(f"block {block_id} has treatments {names}, expected {treatments}")
        for t, values in cells.items():
            if c is None:
                c = len(values)
            if len(values) != c or c == 0:
                raise ValueError(f"unbalanced cell ({block_id}, {t}): {len(values)} values")

    scores = {t: 0.0 for t in treatments}
    for cells in blocks.values():
        flat = []
        owners = []
        for t in treatments:
            for v in cells[t]:
                flat.append(v)
                owners.append(t)
        ranks = _average_ranks(flat)
        for t in treatments:
            mean_rank = sum(r for r, o in zip(ranks, owners) if o == t) / c
            scores[t] += mean_rank

    significant = [
        (a, b)
        for i, a in enumerate(treatments)
        for b in treatments[i + 1 :]
        if abs(scores[a] - scores[b]) > delta
    ]
    return scores, significant


def records_to_blocks(records) -> dict[str, dict[str, list[float]]]:
    """Group ok records as blocks=instances, treatments=algorithms."""
    blocks: dict[str, dict[str, list[float]]] = {}
    for r in records:
        if r.status != STATUS_OK:
            continue
        cell = blocks.setdefault(r.instance, {}).setdefault(r.algorithm, [])
        cell.append(float(r.objective))
    return blocks


# ---------------------------------------------------------------------------
# Benchmark execution


@dataclass(frozen=True)
class BenchCell:
    instance_path: str
    instance_id: str
    algorithm: str  # a key of solvers.SOLVERS
    seed: int
    time_limit: float | None = None

    @property
    def key(self) -> tuple[str, str, int]:
        return (self.instance_id, self.algorithm, self.seed)


def _run_cell(cell: BenchCell) -> RunRecord:
    """Run one cell under SolverBudget(cell.time_limit), the default budget if None."""
    from wsptools.core import load_instance
    from wsptools.solvers import SOLVERS, LimitExceeded, SolverBudget

    instance = load_instance(cell.instance_path)
    start = time.monotonic()
    try:
        result = SOLVERS[cell.algorithm](instance, SolverBudget(cell.time_limit), cell.seed)
        status, objective = STATUS_OK, result.objective
    except LimitExceeded:
        status, objective = STATUS_LIMIT, -1
    except Exception as e:
        print(f"error: cell {cell.instance_id} {cell.algorithm} seed {cell.seed}: "
              f"{type(e).__name__}: {e}", file=sys.stderr)
        status, objective = STATUS_ERROR, -1
    wall = time.monotonic() - start
    return RunRecord(
        instance=cell.instance_id,
        algorithm=cell.algorithm,
        seed=cell.seed,
        objective=objective,
        wall_seconds=wall,
        status=status,
    )


def run_benchmark(cells, out_path) -> list[RunRecord]:
    """Execute benchmark cells one after another, appending records to
    out_path as they finish.  Cells already present in the CSV are
    skipped, so an interrupted run can be resumed."""
    done = set()
    if os.path.exists(out_path):
        done = {(r.instance, r.algorithm, r.seed) for r in read_records(out_path)}
    pending = [c for c in cells if c.key not in done]

    records: list[RunRecord] = []
    for cell in pending:
        record = _run_cell(cell)
        write_records(out_path, [record])
        records.append(record)
    return records
