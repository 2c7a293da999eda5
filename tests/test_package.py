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
