"""Every name the benchmark's span recorder wraps must exist in ``steerkit``.

``perfbench/spans.py`` looks up the functions listed in ``GROUPS`` and
``COUNTERS`` on their modules and rebinds them; a name that was renamed or
deleted makes every traced benchmark run fail.  The file is loaded by path,
as the benchmark itself is not a package.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bound_names(spans) -> set[tuple[str, str]]:
    names = {(mod, fn) for by_module in spans.GROUPS.values() for mod, fns in by_module.items() for fn in fns}
    return names | {(mod, fn) for targets in spans.COUNTERS.values() for mod, fn, _ in targets}


def test_every_wrapped_function_resolves():
    names = bound_names(load_spans())
    assert names
    missing = sorted(
        f"steerkit.{mod}.{fn}" for mod, fn in names if not callable(getattr(importlib.import_module(f"steerkit.{mod}"), fn, None))
    )
    assert not missing, f"perfbench/spans.py wraps names that steerkit no longer has: {missing}"


def test_rotation_cache_is_inspectable():
    from steerkit.states import wigner_rotation_matrix

    assert callable(wigner_rotation_matrix.cache_info)
