"""Every name the benchmark's tracer wraps still exists in the library.

``perfbench/spans.py`` swaps the functions listed in its ``WRAPPED`` table
for span recorders; a name deleted or renamed in ``povmlab`` makes that
swap raise, which would otherwise surface only in a traced benchmark run.
"""

import importlib
import pkgutil
import sys
from pathlib import Path

import povmlab

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import spans  # noqa: E402


def test_tracer_wraps_every_listed_name_and_restores_it():
    modules = {info.name: importlib.import_module(f"povmlab.{info.name}")
               for info in pkgutil.iter_modules(povmlab.__path__)}
    before = {name: dict(vars(module)) for name, module in modules.items()}
    with spans.instrument(spans.Tracer()):
        pass
    assert {name: dict(vars(module)) for name, module in modules.items()} == before
