"""Quick self-check of the benchmark, kept out of the tier-1 suite:

    python3 -m pytest perfbench

Runs every workload briefly, traced and untraced, and checks that each metric
declared in BENCHMARK.json is printed with its unit as a finite number.
"""

import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).with_name("run.py")


def test_every_declared_metric_is_printed_with_its_unit():
    proc = subprocess.run([sys.executable, str(RUN), "--self-check"], cwd=RUN.parent.parent,
                          capture_output=True, text=True, timeout=1200)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_refuses_to_run_without_the_library_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in RUN.parent.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((RUN.parent.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fine-grid",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
