"""Package layout: what importing keyrates loads, and the names the benchmark traces."""

import ast
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def test_root_and_scalar_modules_do_not_import_numpy():
    # Calls too, not just imports: the SPS rules serve NumPy lanes as well.
    code = (
        "import sys\n"
        "import keyrates, keyrates.photon_source, keyrates.channel, keyrates.asymptotic\n"
        "from keyrates.photon_source import SourceKind, SourceSpec, _sps_valid\n"
        "SourceSpec(SourceKind.SPS, 0.292, 0.00698).distribution()\n"
        "assert _sps_valid(0.292, 0.00698) is True and _sps_valid(2.5, 0.0) is False\n"
        "print('numpy' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def test_every_traced_benchmark_target_is_a_function(monkeypatch):
    # perfbench/tracer.py wraps these by name; a missing one fails every
    # traced benchmark run.
    monkeypatch.syspath_prepend(str(REPO / "perfbench"))
    tracer = importlib.import_module("tracer")
    assert tracer.TARGETS
    for module, func, _ in tracer.TARGETS:
        target = getattr(importlib.import_module(f"keyrates.{module}"), func, None)
        assert callable(target), f"keyrates.{module}.{func}"


def test_every_name_the_benchmark_imports_resolves():
    # perfbench/checks.py imports the two tuners from keyrates.finite_key
    # itself; without them every optimize and compare check fails.
    imported = [
        (node.module, alias.name)
        for path in sorted((REPO / "perfbench").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.split(".")[0] == "keyrates"
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        resolves = hasattr(importlib.import_module(module), name)
        assert resolves or importlib.util.find_spec(f"{module}.{name}"), f"{module}.{name}"
