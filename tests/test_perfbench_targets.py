"""The benchmark's layer wrappers must find every name they wrap.

``perfbench/spans.py`` skips a missing attribute silently, so a renamed
package function would quietly read 0 in the per-layer metrics.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.TARGETS


TARGETS = load_targets()


def test_targets_listed():
    assert TARGETS


@pytest.mark.parametrize("name, module, attr", TARGETS)
def test_target_resolves(name, module, attr):
    assert callable(getattr(importlib.import_module(f"fogcoded.{module}"), attr, None))
