"""Experiment harness and evaluation statistics.

Run records persist as append-only CSV; all statistics (performance
profiles, blocked rank scores) are pure functions of the record set.
"""

import csv
import itertools
import os
import statistics
import sys
import time
from collections import Counter
from dataclasses import astuple, dataclass, fields

from wsptools.core import StructuralError, compute_arrival_times, load_instance
from wsptools.solvers import SOLVERS, LimitExceeded, SolverBudget

# Significance thresholds for pairwise rank-score differences at a
# family-wise error rate of 0.001, for the two experimental group sizes.
SM_DELTA_60_INSTANCES = 335.0
SM_DELTA_45_INSTANCES = 244.0

STATUS_OK = "ok"
STATUS_LIMIT = "limit"
STATUS_ERROR = "error"


@dataclass(frozen=True)
class RunRecord:
    """One benchmark run.  The fields are the records CSV's columns, in
    order, and each field's type parses its column."""

    instance: str
    algorithm: str
    seed: int
    objective: int
    wall_seconds: float
    status: str = STATUS_OK

    def __post_init__(self):
        if self.status not in (STATUS_OK, STATUS_LIMIT, STATUS_ERROR):
            raise ValueError(f"status {self.status!r} is not one of ok, limit, error")


CSV_COLUMNS = [f.name for f in fields(RunRecord)]


@dataclass(frozen=True)
class ProfileCurve:
    """Right-continuous nondecreasing step curve of performance ratios."""

    algorithm: str
    breakpoints: tuple[tuple[float, float], ...]  # (tau, P(tau))


def write_records(path, records) -> None:
    """Append records to the CSV at path, with a header if it is new or
    empty.  An existing header must be CSV_COLUMNS, the order rows take."""
    with open(path, "a+", newline="") as f:
        f.seek(0)
        header = next(csv.reader(f), None)
        if header not in (None, CSV_COLUMNS):
            raise StructuralError(f"records file {path} line 1: rows are appended as "
                                  f"{','.join(CSV_COLUMNS)}, and the header differs")
        writer = csv.writer(f)
        if header is None:
            writer.writerow(CSV_COLUMNS)
        writer.writerows(astuple(r) for r in records)


def read_records(path) -> list[RunRecord]:
    """The records in the CSV at path.  Columns beyond RunRecord's fields
    are ignored; a missing column, a short row or a field its type cannot
    parse (a status outside ok, limit and error too) raises StructuralError
    naming the file and line."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        header = reader.fieldnames or CSV_COLUMNS  # an empty file holds no records
        missing = [name for name in CSV_COLUMNS if name not in header]
        if missing:
            raise StructuralError(f"records file {path} line 1: header lacks {', '.join(missing)}")
        records = []
        for row in reader:
            where = f"records file {path} line {reader.line_num}"
            if None in row.values():
                raise StructuralError(f"{where}: fewer fields than the header")
            try:
                records.append(RunRecord(*(f.type(row[f.name]) for f in fields(RunRecord))))
            except ValueError as e:
                raise StructuralError(f"{where}: {e}") from None
    return records


def performance_profiles(records) -> list[ProfileCurve]:
    """Per-algorithm step curves of median-objective performance ratios.

    For each (algorithm, instance) the ok replications are aggregated by
    the median; ratios are relative to the best median on that instance,
    so every ok objective must be at least 1.  Missing cells score ratio
    +inf and never enter the curve at finite tau.
    """
    blocks = records_to_blocks(records)
    if not blocks:
        raise ValueError("no ok records")
    ratios: dict[str, Counter] = {}
    for instance, cells in blocks.items():
        medians = {}
        for algorithm, values in cells.items():
            if min(values) < 1:
                raise ValueError(f"{algorithm} on {instance} has ok objective {min(values):g};"
                                 " performance ratios need objectives of at least 1")
            medians[algorithm] = statistics.median(values)
        best = min(medians.values())
        for algorithm, median in medians.items():
            ratios.setdefault(algorithm, Counter())[median / best] += 1

    curves = []
    for algorithm in sorted(ratios):
        count, points = 0, []
        for tau, k in sorted(ratios[algorithm].items()):
            count += k
            points.append((tau, count / len(blocks)))
        curves.append(ProfileCurve(algorithm=algorithm, breakpoints=tuple(points)))
    return curves


def _average_ranks(values) -> list[float]:
    """Ranks 1..n with average ranks for ties."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    below = 0
    for _, run in itertools.groupby(order, key=lambda i: values[i]):
        run = list(run)
        for i in run:
            ranks[i] = (2 * below + 1 + len(run)) / 2.0  # mean of ranks below+1..below+len(run)
        below += len(run)
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
    first = next(iter(blocks.values()))
    treatments = sorted(first)
    c = len(first[treatments[0]]) if treatments else 0  # every cell's replication count
    for block_id, cells in blocks.items():
        names = sorted(cells)
        if names != treatments:
            raise ValueError(f"block {block_id} has treatments {names}, expected {treatments}")
        for t, values in cells.items():
            if len(values) != c or c == 0:
                raise ValueError(f"unbalanced cell ({block_id}, {t}): {len(values)} values")

    scores = {t: 0.0 for t in treatments}
    for cells in blocks.values():
        # ranked in treatment order, so treatment i holds ranks i*c .. i*c + c - 1
        ranks = _average_ranks([v for t in treatments for v in cells[t]])
        for i, t in enumerate(treatments):
            scores[t] += sum(ranks[i * c : (i + 1) * c]) / c

    significant = [
        (a, b)
        for i, a in enumerate(treatments)
        for b in treatments[i + 1 :]
        if abs(scores[a] - scores[b]) > delta
    ]
    return scores, significant


def records_to_blocks(records, failed: float | None = None) -> dict[str, dict[str, list[float]]]:
    """Group records as blocks=instances, treatments=algorithms.  A limit
    or error record is left out, or counts as the value failed if given."""
    blocks: dict[str, dict[str, list[float]]] = {}
    for r in records:
        if r.status == STATUS_OK or failed is not None:
            cell = blocks.setdefault(r.instance, {}).setdefault(r.algorithm, [])
            cell.append(float(r.objective) if r.status == STATUS_OK else failed)
    return blocks


# ---------------------------------------------------------------------------
# Benchmark execution


def run_benchmark(instances, algorithms, seeds, time_limit, out_path) -> list[RunRecord]:
    """Run the plan's cells, every (instance path, algorithm, seed) in that
    nesting order, under SolverBudget(time_limit), the default budget if
    None, appending each record to out_path as it finishes.  Cells already
    in the CSV are skipped, so an interrupted run can be resumed, and a
    cell the plan repeats runs once.  Each instance is loaded, and its free
    burn computed, once and outside every cell's wall_seconds.  A time_limit
    the budget refuses raises before out_path is read or written."""
    budget = SolverBudget(time_limit)
    done = set()
    if os.path.exists(out_path):
        done = {(r.instance, r.algorithm, r.seed) for r in read_records(out_path)}
        write_records(out_path, [])  # refuses a header the new rows would not line up with
    records: list[RunRecord] = []
    loaded = None
    for cell in itertools.product(instances, algorithms, seeds):
        if cell in done:
            continue
        path, algorithm, seed = cell
        if path != loaded:
            loaded, instance = path, load_instance(path)
            compute_arrival_times(instance)  # the free burn, kept by the graph
        start = time.monotonic()
        try:
            result = SOLVERS[algorithm](instance, budget, seed)
            status, objective = STATUS_OK, result.objective
        except LimitExceeded:
            status, objective = STATUS_LIMIT, -1
        except Exception as e:
            print(f"error: cell {path} {algorithm} seed {seed}: {type(e).__name__}: {e}",
                  file=sys.stderr)
            status, objective = STATUS_ERROR, -1
        record = RunRecord(path, algorithm, seed, objective, time.monotonic() - start, status)
        write_records(out_path, [record])
        records.append(record)
        done.add(cell)
    return records
