"""The benchmark tracer's hooks against the package they wrap."""

from __future__ import annotations

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_target_is_a_function_of_the_package():
    # Tracer.install looks each target up with getattr, so a renamed or
    # moved function breaks the traced benchmark run
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for module, function, _ in tracer.TARGETS:
        target = getattr(importlib.import_module(f"cubeloops.{module}"), function, None)
        assert callable(target), f"cubeloops.{module}.{function}"
