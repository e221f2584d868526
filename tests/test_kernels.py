"""Backend parity: the compiled kernels must match the pure-Python ones."""

import pytest
from expansion_oracle import classify_product_table

from oddcross import build_tensor, enumerate_schemes, feasible_dimension
from oddcross import kernels
from oddcross._kernels_py import enumerate_covers
from oddcross.schemes import _axis_choice_masks

compiled = pytest.importorskip(
    "oddcross._speedups", reason="compiled backend not built"
)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_enumerate_parity(n):
    masks = _axis_choice_masks(n)
    pure = enumerate_covers(masks, (), None, 2**62)
    fast = compiled.enumerate_covers(masks, (), None, 2**62)
    assert pure == fast


def test_enumerate_parity_prefix_resume_limit():
    masks = _axis_choice_masks(7)
    full = enumerate_covers(masks, (), None, 2**62)
    for kwargs in (
        dict(prefix=(4,), resume_after=None, limit=2**62),
        dict(prefix=(), resume_after=full[100], limit=2**62),
        dict(prefix=(), resume_after=None, limit=37),
        dict(prefix=(2,), resume_after=None, limit=5),
    ):
        pure = enumerate_covers(
            masks, kwargs["prefix"], kwargs["resume_after"], kwargs["limit"]
        )
        fast = compiled.enumerate_covers(
            masks, kwargs["prefix"], kwargs["resume_after"], kwargs["limit"]
        )
        assert pure == fast


def test_resume_inside_prefix_parity():
    masks = _axis_choice_masks(7)
    sub = enumerate_covers(masks, (3,), None, 2**62)
    mid = sub[len(sub) // 2]
    pure = enumerate_covers(masks, (3,), mid, 2**62)
    fast = compiled.enumerate_covers(masks, (3,), mid, 2**62)
    assert pure == fast == sub[len(sub) // 2 + 1 :]


def test_invalid_resume_rejected_by_both():
    masks = _axis_choice_masks(5)
    bad = (0, 0, 0, 0, 0)  # reuses pairs, never emitted by the scan
    with pytest.raises(ValueError):
        enumerate_covers(masks, (), bad, 2**62)
    with pytest.raises(ValueError):
        compiled.enumerate_covers(masks, (), bad, 2**62)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_classify_parity(n):
    dim = feasible_dimension(n)
    for scheme in enumerate_schemes(dim):
        target, sign = build_tensor(scheme).flat_arrays()
        assert classify_product_table(n, target, sign) == tuple(
            compiled.classify_product_table(n, target, sign)
        )


def test_backend_dispatch_by_pair_count():
    # 13 dimensions means 78 pair slots, beyond the 64-bit compiled masks.
    assert kernels.backend_for(78) is kernels.get_backend("pure-python")
    active = kernels.active_backend()
    assert kernels.backend_for(21) is active


def test_backend_registry():
    names = kernels.available_backends()
    assert "pure-python" in names
    with pytest.raises(KeyError):
        kernels.get_backend("nonsense")
