"""Every function that the benchmark's tracer wraps still exists.

`perfbench/tracer.py` wraps package functions and methods named by strings
in its TARGETS table, so a rename or a deletion in the package breaks a
traced benchmark run (`perfbench/run.py --trace 1`) without failing any
other test.  The tracer imports nothing from the package at load time; it
is loaded here by path and each target is looked up the way its
`install()` looks it up.
"""

import importlib
import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    missing = []
    for name, module, path in _load_tracer().TARGETS:
        owner = importlib.import_module(f"genus_forge.{module}")
        *cls_path, attr = path.split(".")
        try:
            for part in cls_path:
                owner = getattr(owner, part)
            vars(owner)[attr]
        except (AttributeError, KeyError):
            missing.append(f"{name}: genus_forge.{module}.{path}")
    assert not missing, missing
