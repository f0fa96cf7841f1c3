"""Every benchmark span target still names a function of the package.

``perfbench/spans.py`` reports a target it cannot find as a missing span at
benchmark time.  This test reads its ``SPANS`` table (without installing any
wrapper) and resolves each (module, qualified name) the same way, so a
refactor that deletes or renames a benchmarked function fails here first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _span_targets() -> list[tuple[str, str, str]]:
    spec = importlib.util.spec_from_file_location("_perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [
        (name, module_name, qualname)
        for name, targets in module.SPANS.items()
        for module_name, qualname in targets
    ]


@pytest.mark.parametrize(
    "name, module_name, qualname",
    _span_targets(),
    ids=[f"{module}:{qualname}" for _, module, qualname in _span_targets()],
)
def test_span_target_resolves(name, module_name, qualname):
    owner = importlib.import_module(module_name)
    *outer, attr = qualname.split(".")
    for part in outer:
        owner = getattr(owner, part)
    target = vars(owner).get(attr)
    assert target is not None, f"span {name}: {module_name}.{qualname} is gone"
    if isinstance(target, (classmethod, staticmethod)):
        target = target.__func__
    assert callable(target), f"span {name}: {module_name}.{qualname} is not callable"
