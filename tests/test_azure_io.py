"""Round-trip tests for the Azure CSV interchange format."""

import csv

import numpy as np
import pytest

from repro.trace.azure import AzureTraceConfig, generate_dataset
from repro.trace.azure_io import (
    DURATIONS_CSV,
    INVOCATIONS_CSV,
    MEMORY_CSV,
    load_azure_csvs,
    write_azure_csvs,
)
from repro.trace.replay import expand_dataset


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(
        AzureTraceConfig(num_functions=300, duration_minutes=120, seed=55)
    )


def test_write_creates_three_files(dataset, tmp_path):
    out = write_azure_csvs(dataset, tmp_path / "day01")
    for name in (INVOCATIONS_CSV, DURATIONS_CSV, MEMORY_CSV):
        assert (out / name).exists()


def test_round_trip_preserves_counts(dataset, tmp_path):
    out = write_azure_csvs(dataset, tmp_path)
    loaded = load_azure_csvs(out)
    assert loaded.total_invocations() == dataset.total_invocations()
    # Per-function counts survive keyed by name.
    orig = {dataset.names[fn]: dataset.total_invocations(fn)
            for fn in dataset.counts}
    for i, name in enumerate(loaded.names):
        assert loaded.total_invocations(i) == orig[name]


def test_round_trip_preserves_profiles(dataset, tmp_path):
    out = write_azure_csvs(dataset, tmp_path)
    loaded = load_azure_csvs(out)
    orig_by_name = {
        dataset.names[fn]: (
            dataset.memory_mb[fn],
            dataset.avg_runtime[fn],
            dataset.max_runtime[fn],
        )
        for fn in dataset.counts
    }
    for i, name in enumerate(loaded.names):
        mem, avg, mx = orig_by_name[name]
        assert loaded.memory_mb[i] == pytest.approx(mem, rel=1e-3)
        assert loaded.avg_runtime[i] == pytest.approx(avg, rel=1e-3)
        assert loaded.max_runtime[i] == pytest.approx(mx, rel=1e-3)


def test_round_trip_expands_identically(dataset, tmp_path):
    out = write_azure_csvs(dataset, tmp_path)
    loaded = load_azure_csvs(out)
    a = expand_dataset(dataset)
    b = expand_dataset(loaded)
    assert len(a) == len(b)
    assert np.allclose(np.sort(a.timestamps), np.sort(b.timestamps))


def test_load_drops_underused_functions(tmp_path):
    # Hand-write a minimal day with one single-invocation function.
    (tmp_path / INVOCATIONS_CSV).write_text(
        "HashOwner,HashApp,HashFunction,Trigger,1,2,3\n"
        "o,app1,busy,http,2,1,0\n"
        "o,app1,once,http,1,0,0\n"
    )
    (tmp_path / DURATIONS_CSV).write_text(
        "HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum\n"
        "o,app1,busy,500,3,400,1500\n"
        "o,app1,once,100,1,100,100\n"
    )
    (tmp_path / MEMORY_CSV).write_text(
        "HashOwner,HashApp,SampleCount,AverageAllocatedMb\n"
        "o,app1,2,400\n"
    )
    loaded = load_azure_csvs(tmp_path)
    assert loaded.names == ["busy"]
    # Cold-start estimate: max - avg (paper rule) = 1.0 s.
    assert loaded.init_cost()[0] == pytest.approx(1.0)
    # App memory split over the app's *loaded* function count.
    assert loaded.memory_mb[0] == pytest.approx(400.0)


def test_load_missing_memory_uses_default(tmp_path):
    (tmp_path / INVOCATIONS_CSV).write_text(
        "HashOwner,HashApp,HashFunction,Trigger,1,2\n"
        "o,appX,f1,http,1,1\n"
    )
    (tmp_path / DURATIONS_CSV).write_text(
        "HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum\n"
        "o,appX,f1,200,2,150,300\n"
    )
    (tmp_path / MEMORY_CSV).write_text(
        "HashOwner,HashApp,SampleCount,AverageAllocatedMb\n"
    )
    loaded = load_azure_csvs(tmp_path, default_memory_mb=128.0)
    assert loaded.memory_mb[0] == pytest.approx(128.0)


def test_load_empty_rejected(tmp_path):
    (tmp_path / INVOCATIONS_CSV).write_text(
        "HashOwner,HashApp,HashFunction,Trigger,1\n"
    )
    (tmp_path / DURATIONS_CSV).write_text(
        "HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum\n"
    )
    (tmp_path / MEMORY_CSV).write_text(
        "HashOwner,HashApp,SampleCount,AverageAllocatedMb\n"
    )
    with pytest.raises(ValueError):
        load_azure_csvs(tmp_path)


def test_written_invocations_schema(dataset, tmp_path):
    out = write_azure_csvs(dataset, tmp_path)
    with open(out / INVOCATIONS_CSV, newline="") as fh:
        header = next(csv.reader(fh))
    assert header[:4] == ["HashOwner", "HashApp", "HashFunction", "Trigger"]
    assert header[4] == "1"
    assert len(header) == 4 + dataset.config.duration_minutes


@pytest.mark.parametrize("damage", ["short-row", "non-numeric-cell"])
@pytest.mark.parametrize("filename", [INVOCATIONS_CSV, DURATIONS_CSV, MEMORY_CSV])
def test_damaged_csv_names_file_and_line(tmp_path, filename, damage):
    (tmp_path / INVOCATIONS_CSV).write_text(
        "HashOwner,HashApp,HashFunction,Trigger,1,2,3\n"
        "o,app1,f1,http,2,1,0\n"
        "o,app1,f2,http,1,1,3\n"
    )
    (tmp_path / DURATIONS_CSV).write_text(
        "HashOwner,HashApp,HashFunction,Average,Count,Minimum,Maximum\n"
        "o,app1,f1,500,3,400,1500\n"
        "o,app1,f2,100,5,100,900\n"
    )
    (tmp_path / MEMORY_CSV).write_text(
        "HashOwner,HashApp,SampleCount,AverageAllocatedMb\n"
        "o,app0,1,128\n"
        "o,app1,2,400\n"
    )
    load_azure_csvs(tmp_path)  # intact files load
    path = tmp_path / filename
    lines = path.read_text().splitlines()
    if damage == "short-row":
        # A file cut off part-way through its last row.
        lines[-1] = lines[-1].rsplit(",", 2)[0]
    else:
        fields = lines[-1].split(",")
        fields[-1] = "n/a"
        lines[-1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"{filename}: line 3: "):
        load_azure_csvs(tmp_path)
