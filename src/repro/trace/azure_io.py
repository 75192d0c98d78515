"""Azure Functions 2019 dataset CSV interchange.

The paper replays the public Azure Functions trace
(``AzureFunctionsDataset2019``), which ships as three CSVs per day:

* ``invocations_per_function`` — owner/app/function hashes, trigger, and
  1440 per-minute invocation-count columns;
* ``function_durations_percentiles`` — per-function average/min/max
  execution times (milliseconds);
* ``app_memory_percentiles`` — per-app allocated memory (MB).

This module writes our synthetic :class:`~repro.trace.azure.AzureDataset`
in that schema and loads datasets from it — so anyone holding the real
trace can feed day files straight into every experiment in this repo,
and synthetic datasets round-trip losslessly (at minute/count
granularity).  The paper's adaptation rules are applied on load: memory
split evenly across an app's functions, cold-start cost estimated as
``maximum - average`` runtime, functions with fewer than two invocations
dropped.
"""

from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Union

import numpy as np

from .azure import MINUTES_PER_DAY, AzureDataset, AzureTraceConfig

__all__ = [
    "INVOCATIONS_CSV",
    "DURATIONS_CSV",
    "MEMORY_CSV",
    "write_azure_csvs",
    "load_azure_csvs",
]

INVOCATIONS_CSV = "invocations_per_function.csv"
DURATIONS_CSV = "function_durations_percentiles.csv"
MEMORY_CSV = "app_memory_percentiles.csv"


def write_azure_csvs(dataset: AzureDataset, directory: Union[str, Path]) -> Path:
    """Write the dataset in the Azure trace schema; returns the directory."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    minutes = dataset.config.duration_minutes

    with open(directory / INVOCATIONS_CSV, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["HashOwner", "HashApp", "HashFunction", "Trigger"]
            + [str(m) for m in range(1, minutes + 1)]
        )
        for fn in sorted(dataset.counts):
            mins, counts = dataset.counts[fn]
            dense = np.zeros(minutes, dtype=np.int64)
            dense[mins] = counts
            writer.writerow(
                ["owner", dataset.apps[fn], dataset.names[fn], "http"]
                + dense.tolist()
            )

    with open(directory / DURATIONS_CSV, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["HashOwner", "HashApp", "HashFunction",
             "Average", "Count", "Minimum", "Maximum"]
        )
        for fn in sorted(dataset.counts):
            writer.writerow(
                [
                    "owner",
                    dataset.apps[fn],
                    dataset.names[fn],
                    f"{dataset.avg_runtime[fn] * 1000.0:.3f}",  # ms
                    dataset.total_invocations(fn),
                    f"{dataset.avg_runtime[fn] * 1000.0:.3f}",
                    f"{dataset.max_runtime[fn] * 1000.0:.3f}",
                ]
            )

    # Memory is application-level (the paper splits it evenly on load).
    # Sum only over the functions actually exported, so the even split on
    # load recovers the per-function allocation exactly.
    app_mem: dict[str, float] = {}
    app_size: dict[str, int] = {}
    for fn in dataset.counts:
        app = dataset.apps[fn]
        app_mem[app] = app_mem.get(app, 0.0) + float(dataset.memory_mb[fn])
        app_size[app] = app_size.get(app, 0) + 1
    with open(directory / MEMORY_CSV, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["HashOwner", "HashApp", "SampleCount",
                         "AverageAllocatedMb"])
        for app in sorted(app_mem):
            writer.writerow(["owner", app, app_size[app], f"{app_mem[app]:.3f}"])

    return directory


def _rows(path: Path) -> Iterator[tuple[int, list[str]]]:
    """``(line, fields)`` for the header, then each non-blank data row.

    A data row whose field count differs from the header's (a truncated
    or damaged line) raises ``ValueError`` naming the file and the line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        yield reader.line_num, header
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {reader.line_num}: expected "
                    f"{len(header)} fields, got {len(row)}"
                )
            yield reader.line_num, row


def _columns(path: Path, header: list[str], *names: str) -> list[int]:
    missing = [n for n in names if n not in header]
    if missing:
        raise ValueError(f"{path}: header has no {missing} column")
    return [header.index(n) for n in names]


@contextmanager
def _at(path: Path, line: int) -> Iterator[None]:
    """Name the file and line in a cell that fails to convert."""
    try:
        yield
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: line {line}: {exc}") from None


def load_azure_csvs(
    directory: Union[str, Path],
    default_memory_mb: float = 170.0,
    min_invocations: int = 2,
) -> AzureDataset:
    """Load an Azure-schema day directory into an :class:`AzureDataset`.

    ``default_memory_mb`` covers apps missing from the memory file (the
    real dataset's memory table only samples a subset; 170 MB is near its
    median).  Functions with fewer than ``min_invocations`` are dropped,
    per the paper.  A short row or a non-numeric cell in any of the three
    files raises ``ValueError`` naming the file and the line.
    """
    directory = Path(directory)

    # --- durations -----------------------------------------------------
    avg_ms: dict[str, float] = {}
    max_ms: dict[str, float] = {}
    path = directory / DURATIONS_CSV
    rows = _rows(path)
    name_at, avg_at, max_at = _columns(
        path, next(rows)[1], "HashFunction", "Average", "Maximum"
    )
    for line, row in rows:
        with _at(path, line):
            avg_ms[row[name_at]] = float(row[avg_at])
            max_ms[row[name_at]] = float(row[max_at])

    # --- app memory ------------------------------------------------------
    app_total_mb: dict[str, float] = {}
    path = directory / MEMORY_CSV
    rows = _rows(path)
    app_at, mb_at = _columns(path, next(rows)[1], "HashApp", "AverageAllocatedMb")
    for line, row in rows:
        with _at(path, line):
            app_total_mb[row[app_at]] = float(row[mb_at])

    # --- invocations -----------------------------------------------------
    names: list[str] = []
    apps: list[str] = []
    raw_counts: list[tuple[np.ndarray, np.ndarray]] = []
    path = directory / INVOCATIONS_CSV
    rows = _rows(path)
    n_minutes = len(next(rows)[1]) - 4
    for line, row in rows:
        with _at(path, line):
            counts = np.array([int(float(v or 0)) for v in row[4:]],
                              dtype=np.int64)
        if counts.sum() < min_invocations:
            continue
        names.append(row[2])
        apps.append(row[1])
        nz = np.nonzero(counts)[0]
        raw_counts.append((nz, counts[nz]))

    if not names:
        raise ValueError(f"no reusable functions found in {directory}")

    # App memory split evenly across each app's functions (paper rule).
    app_fn_count: dict[str, int] = {}
    for app in apps:
        app_fn_count[app] = app_fn_count.get(app, 0) + 1
    memory_mb = np.array(
        [
            app_total_mb.get(app, default_memory_mb * app_fn_count[app])
            / app_fn_count[app]
            for app in apps
        ]
    )

    avg_runtime = np.array([avg_ms.get(n, 1000.0) / 1000.0 for n in names])
    max_runtime = np.array(
        [max(max_ms.get(n, 1000.0) / 1000.0, avg_ms.get(n, 1000.0) / 1000.0)
         for n in names]
    )

    config = AzureTraceConfig(
        num_functions=len(names),
        duration_minutes=n_minutes or MINUTES_PER_DAY,
    )
    return AzureDataset(
        config=config,
        names=names,
        apps=apps,
        memory_mb=memory_mb,
        avg_runtime=avg_runtime,
        max_runtime=max_runtime,
        counts={i: raw_counts[i] for i in range(len(names))},
    )
