"""Environment record written into every result file, and the source
fingerprint that scopes the reproducibility gate to one version of the code."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path


def loadavg() -> list[float] | None:
    try:
        with open("/proc/loadavg") as fh:
            return [float(x) for x in fh.read().split()[:3]]
    except (OSError, ValueError):
        return None


def fingerprint(root: Path, parts=("src", "perfbench", "BENCHMARK.json")) -> str:
    """sha256 over the Python sources of the package and the benchmark."""
    h = hashlib.sha256()
    for part in parts:
        base = root / part
        files = [base] if base.is_file() else sorted(base.rglob("*.py")) if base.is_dir() else []
        for f in files:
            h.update(str(f.relative_to(root)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git without running git; None outside a repo."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        packed = root / ".git" / "packed-refs"
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_line_count(root: Path) -> int:
    return sum(
        len(f.read_text().splitlines()) for f in sorted((root / "src" / "isofluid").rglob("*.py"))
    )


def tier1_test_count(root: Path, cache_file: Path) -> int | None:
    """Tests pytest collects from the repository's tests/, cached per test
    sources so later runs of the same checkout do not collect again."""
    key = fingerprint(root, ("tests", "src"))
    try:
        cache = json.loads(cache_file.read_text())
    except (OSError, ValueError):
        cache = {}
    if key in cache:
        return cache[key]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q",
             "-p", "no:cacheprovider", "--continue-on-collection-errors"],
            cwd=root, env=env, capture_output=True, text=True, timeout=120,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    m = re.search(r"(\d+) tests? collected", proc.stdout)
    count = int(m.group(1)) if m else None
    cache[key] = count
    tmp = cache_file.with_suffix(".tmp")
    tmp.write_text(json.dumps(cache))
    os.replace(tmp, cache_file)
    return count


def record(root: Path, cache_file: Path) -> dict:
    import numpy
    import scipy

    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "nproc_affinity": affinity,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "source_fingerprint": fingerprint(root),
        "src_isofluid_lines": src_line_count(root),
        "tier1_tests_collected": tier1_test_count(root, cache_file),
    }
