"""Unit tests: the transactional op-list engine (repro.rados.ops)."""

import pytest

from repro.errors import AlreadyExists, InvalidArgument, NotFound
from repro.objclass.bundled import register_all
from repro.objclass.registry import ClassRegistry
from repro.rados.objects import StoredObject
from repro.rados.ops import apply_ops, is_read_only


def _apply(*args, **kwargs):
    """apply_ops, with the transaction materialized as the OSD does."""
    results, txn = apply_ops(*args, **kwargs)
    new_obj, removed = txn.outcome()
    return results, new_obj, removed


@pytest.fixture(scope="module")
def registry():
    reg = ClassRegistry()
    register_all(reg)
    return reg


def test_is_read_only_classification():
    assert is_read_only([{"op": "read"}, {"op": "stat"}])
    assert is_read_only([{"op": "omap_list"}, {"op": "xattr_get",
                                               "key": "k"}])
    assert not is_read_only([{"op": "read"}, {"op": "write",
                                              "offset": 0, "data": b""}])
    # exec is conservatively mutating.
    assert not is_read_only([{"op": "exec", "cls": "x", "method": "y"}])
    assert is_read_only([])


def test_apply_ops_returns_per_op_results(registry):
    results, obj, removed = _apply(
        None, "o",
        [
            {"op": "create"},
            {"op": "append", "data": b"abc"},
            {"op": "append", "data": b"de"},
            {"op": "stat"},
            {"op": "read", "offset": 1, "length": 3},
        ],
        registry)
    assert results[0] is None
    assert results[1] == 0 and results[2] == 3
    assert results[3]["size"] == 5
    assert results[4] == b"bcd"
    assert obj is not None and not removed


def test_apply_ops_failure_leaves_input_untouched(registry):
    obj = StoredObject("o")
    obj.write(0, b"original")
    with pytest.raises(NotFound):
        apply_ops(obj, "o",
                  [{"op": "write_full", "data": b"clobbered"},
                   {"op": "omap_get", "key": "missing"}],
                  registry)
    assert obj.read() == b"original"


def test_apply_ops_exec_composes_with_native_ops(registry):
    results, obj, _ = _apply(
        None, "o",
        [
            {"op": "write_full", "data": b"matrix-bytes"},
            {"op": "exec", "cls": "numops", "method": "add",
             "args": {"key": "row-count", "value": 3}},
            {"op": "omap_get", "key": "row-count"},
        ],
        registry)
    assert results[1] == {"value": 3}
    assert results[2] == 3
    assert obj.read() == b"matrix-bytes"


def test_apply_ops_exec_failure_aborts_native_ops_too(registry):
    from repro.errors import StaleEpoch

    obj = StoredObject("o")
    obj.omap_set("k", 1)
    with pytest.raises(StaleEpoch):
        apply_ops(obj, "o",
                  [{"op": "omap_set", "key": "k", "value": 2},
                   {"op": "exec", "cls": "version", "method": "check",
                    "args": {"expect": 42}}],
                  registry)
    assert obj.omap_get("k") == 1


def test_apply_ops_remove_and_recreate(registry):
    obj = StoredObject("o")
    obj.write(0, b"x")
    results, new_obj, removed = _apply(
        obj, "o", [{"op": "remove"}], registry)
    assert removed and new_obj is None
    # Remove-then-create in one transaction resurrects fresh state.
    results, new_obj, removed = _apply(
        obj, "o", [{"op": "remove"}, {"op": "create"}, {"op": "stat"}],
        registry)
    assert not removed
    assert results[2]["size"] == 0


def test_apply_ops_assert_exists(registry):
    with pytest.raises(NotFound):
        apply_ops(None, "o", [{"op": "assert_exists"}], registry)
    obj = StoredObject("o")
    apply_ops(obj, "o", [{"op": "assert_exists"}], registry)


def test_apply_ops_create_exclusive(registry):
    obj = StoredObject("o")
    with pytest.raises(AlreadyExists):
        apply_ops(obj, "o", [{"op": "create"}], registry)
    apply_ops(obj, "o", [{"op": "create", "exclusive": False}], registry)


def test_apply_ops_unknown_op_rejected(registry):
    with pytest.raises(InvalidArgument):
        apply_ops(None, "o", [{"op": "levitate"}], registry)


def test_apply_ops_epoch_reaches_class_context(registry):
    results, obj, _ = _apply(
        None, "o",
        [{"op": "exec", "cls": "zlog", "method": "write",
          "args": {"epoch": 5, "pos": 0, "data": "d"}}],
        registry, epoch=5)
    # Seal at 6, then epoch-5 context write must bounce.
    from repro.errors import StaleEpoch

    _, obj, _ = _apply(obj, "o",
                          [{"op": "exec", "cls": "zlog",
                            "method": "seal", "args": {"epoch": 6}}],
                          registry)
    with pytest.raises(StaleEpoch):
        apply_ops(obj, "o",
                  [{"op": "exec", "cls": "zlog", "method": "write",
                    "args": {"epoch": 5, "pos": 1, "data": "d"}}],
                  registry, epoch=5)
