"""The names perfbench's tracer wraps or reads must exist in the library.

``perfbench/run.py`` replaces module attributes with timing shims; a name
deleted from the library only fails there, in ``python -m pytest
perfbench``, so tier-1 checks the names as well.
"""

import importlib
import re
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"


def test_traced_names_exist():
    wrapped = re.findall(r'tracer\.wrap\((\w+),\s*"(\w+)"', RUN.read_text())
    assert wrapped
    for module, attr in wrapped + [("_sampling", "njit")]:
        assert hasattr(importlib.import_module(f"detsched.{module}"), attr), (module, attr)
