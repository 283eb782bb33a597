"""Golden outputs of ``rtfalsify falsify``, compared byte for byte.

Each directory under ``tests/golden`` holds the files one CLI run wrote
before the monitor became an array engine; ``sa-omm-v2-rt2-runs3`` (three
runs with a ``summary.json``, an ``--input`` override and non-default SA
settings) was written before the CLI echoed its records with ``asdict``.
A change of engine, batching, search loop or output code must reproduce
them exactly: same verdict, same fitness history,
same parameters, same CSV digits. The 3,501-row CSVs of the plant-demo test
case are compared by SHA-256 instead of being stored; every other file a run
writes is stored in full.
"""

import hashlib
from pathlib import Path

import pytest

from rtfalsify.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

RUNS = {
    "ur-omm-v1-rt0-s1": ["--model", "omm-v1", "--table", "omm-rt0", "--algo", "ur", "--seed", "1"],
    "ur-omm-v1-rt0-s2": ["--model", "omm-v1", "--table", "omm-rt0", "--algo", "ur", "--seed", "2"],
    "ur-omm-v1-rt0-s3": ["--model", "omm-v1", "--table", "omm-rt0", "--algo", "ur", "--seed", "3"],
    "ur-omm-v3-rt2-s1": ["--model", "omm-v3", "--table", "omm-rt2", "--algo", "ur", "--seed", "1"],
    "sa-plant-sc-b20": ["--model", "plant-demo", "--table", "sc", "--algo", "sa", "--budget", "20"],
    "ur-plant-sc-b20": ["--model", "plant-demo", "--table", "sc", "--algo", "ur", "--budget", "20"],
    "sa-omm-v2-rt2-runs3": [
        "--model", "omm-v2", "--table", "omm-rt2", "--algo", "sa", "--budget", "40",
        "--runs", "3", "--seed", "4", "--input", "u1:-50:50:2",
        "--sa-temp", "2", "--sa-cooling", "0.9", "--sa-scale", "0.2",
    ],
}

SHA256 = {
    "ur-plant-sc-b20": {
        "testcase_degrees.csv": "a96ea77a8219334768ababedeac1cdd65b700d6599b9f5c349eeb13596e0a7c8",
        "testcase_trace.csv": "50352445d223c60252286ae72ab59ab339307d533ad5f2afd2256dd400a0412d",
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_falsify_output_matches_golden(name, tmp_path):
    code = main(["falsify", *RUNS[name], "--out", str(tmp_path)])
    golden = {p.name: p.read_bytes() for p in (GOLDEN / name).iterdir()}
    digests = SHA256.get(name, {})
    written = sorted(p.name for p in tmp_path.iterdir())

    # with --runs > 1 the test-case files are numbered: testcase_trace_1.csv, ...
    assert code == (0 if any(n.startswith("testcase_trace") for n in written) else 10)
    assert written == sorted([*golden, *digests])
    for file_name, expected in golden.items():
        assert (tmp_path / file_name).read_bytes() == expected, file_name
    for file_name, expected in digests.items():
        digest = hashlib.sha256((tmp_path / file_name).read_bytes()).hexdigest()
        assert digest == expected, file_name
