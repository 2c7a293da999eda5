import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import gstrat


def test_every_exported_name_resolves():
    missing = [name for name in gstrat.__all__ if not hasattr(gstrat, name)]
    assert missing == []
    assert len(set(gstrat.__all__)) == len(gstrat.__all__)


def test_runtime_imports_stdlib_only():
    # The engine and the CLI must load without the test-only packages.
    src = Path(__file__).parent.parent / "src"
    probe = ("import sys, gstrat, gstrat.cli; "
             "print(sorted({'networkx', 'hypothesis'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", probe], cwd=src, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def load_probes():
    """perfbench/probes.py, loaded by path; nothing is wrapped until
    ``Probes.install`` runs, and this never calls it."""
    path = Path(__file__).parent.parent / "perfbench" / "probes.py"
    spec = importlib.util.spec_from_file_location("perfbench_probes", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_boundaries_resolve():
    # perfbench wraps these names; a rename in src/ would break the
    # benchmark while every other test passes.
    probes = load_probes()
    for owner, attr, *_ in probes.BOUNDARIES:
        assert inspect.getattr_static(probes._resolve(owner), attr), (owner, attr)
    for module_name, attr in probes.IMPORT_SITES:
        assert hasattr(importlib.import_module(module_name), attr), (module_name, attr)
