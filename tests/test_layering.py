"""Import layering: a low module loads no module above it.

The package root re-exports nothing, so importing one module loads that
module, what it imports, and the empty package itself. Each check runs in
a fresh interpreter, as this process has loaded every module already.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import neolaf

SRC = str(Path(neolaf.__file__).resolve().parent.parent)


def _loaded_by(module: str) -> set[str]:
    code = (f"import sys, {module}\n"
            "print(' '.join(m for m in sys.modules if m.partition('.')[0] == 'neolaf'))")
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    return set(done.stdout.split())


@pytest.mark.parametrize("module", ("kstar", "calculator"))
def test_a_pure_module_loads_only_the_errors_module(module):
    assert _loaded_by(f"neolaf.{module}") == {"neolaf", "neolaf.errors", f"neolaf.{module}"}
