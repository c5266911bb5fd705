"""Unit tests: the snapshot object class."""

import pytest

from repro.errors import AlreadyExists, InvalidArgument, NotFound
from repro.objclass.bundled import register_all
from repro.objclass.context import MethodContext
from repro.objclass.registry import ClassRegistry


@pytest.fixture()
def reg():
    registry = ClassRegistry()
    register_all(registry)
    return registry


def snap(reg, ctx, method, **args):
    return reg.call("snapshot", method, ctx, args)


def test_snapshot_and_rollback_restores_everything(reg):
    ctx = MethodContext(None, "o")
    ctx.write_full(b"version-one")
    ctx.omap_set("row", 1)
    ctx.xattr_set("meta", "a")
    snap(reg, ctx, "create", name="v1")
    # Mutate everything.
    ctx.write_full(b"version-two, longer")
    ctx.omap_set("row", 2)
    ctx.omap_set("extra", True)
    ctx.xattr_set("meta", "b")
    snap(reg, ctx, "rollback", name="v1")
    assert ctx.read() == b"version-one"
    assert ctx.omap_get("row") == 1
    assert not ctx.omap_has("extra")
    assert ctx.xattr_get("meta") == "a"


def test_snapshots_are_immune_to_later_snapshots(reg):
    ctx = MethodContext(None, "o")
    ctx.write_full(b"a")
    snap(reg, ctx, "create", name="s1")
    ctx.write_full(b"b")
    snap(reg, ctx, "create", name="s2")
    assert snap(reg, ctx, "list")["snapshots"] == ["s1", "s2"]
    snap(reg, ctx, "rollback", name="s1")
    # Rolling back does not destroy other snapshots.
    assert snap(reg, ctx, "list")["snapshots"] == ["s1", "s2"]
    snap(reg, ctx, "rollback", name="s2")
    assert ctx.read() == b"b"


def test_duplicate_and_missing_names(reg):
    ctx = MethodContext(None, "o")
    snap(reg, ctx, "create", name="x")
    with pytest.raises(AlreadyExists):
        snap(reg, ctx, "create", name="x")
    with pytest.raises(NotFound):
        snap(reg, ctx, "rollback", name="ghost")
    snap(reg, ctx, "remove", name="x")
    with pytest.raises(NotFound):
        snap(reg, ctx, "remove", name="x")


def test_bad_snapshot_names_rejected(reg):
    ctx = MethodContext(None, "o")
    with pytest.raises(InvalidArgument):
        snap(reg, ctx, "create", name="")
    with pytest.raises(InvalidArgument):
        snap(reg, ctx, "create", name="dotted.name")


def test_rollback_composes_transactionally(reg):
    """A failing op after rollback aborts the rollback too (op-list
    atomicity at the OSD layer)."""
    from repro.rados.ops import apply_ops

    _, txn = apply_ops(None, "o", [
        {"op": "write_full", "data": b"good"},
        {"op": "exec", "cls": "snapshot", "method": "create",
         "args": {"name": "s"}},
        {"op": "write_full", "data": b"bad"},
    ], reg)
    obj, _ = txn.outcome()
    with pytest.raises(NotFound):
        apply_ops(obj, "o", [
            {"op": "exec", "cls": "snapshot", "method": "rollback",
             "args": {"name": "s"}},
            {"op": "omap_get", "key": "no-such-key"},
        ], reg)
    # Rollback never landed: object still reads "bad".
    results, _ = apply_ops(obj, "o", [{"op": "read"}], reg)
    assert results[0] == b"bad"
