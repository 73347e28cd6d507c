"""tools/output_digests.py: one digest per benchmark operation, the same
on every run of the same code."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
_SPEC = importlib.util.spec_from_file_location("output_digests", _PATH)
output_digests = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(output_digests)


def test_one_digest_per_operation_and_repeatable():
    ops = output_digests.load_workloads().WORKLOADS["ser_analytic"](0)
    first = output_digests.digests(["ser_analytic"], 0)
    assert list(first) == [f"ser_analytic|{op.key}" for op in ops]
    assert all(len(value) == 64 for value in first.values())
    assert output_digests.digests(["ser_analytic"], 0) == first
