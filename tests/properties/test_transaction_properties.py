"""Property tests: write-set transactions vs a clone-based reference.

``apply_ops`` records a transaction as a write set over the untouched
base object.  The reference below is the straightforward design it
replaced: deep-clone the base and mutate the clone.  For random op
lists over every native op and several bundled classes (including ops
that fail), both must agree on the results or the error, the new
version and its digest; the base must come out unchanged either way;
and the emitted write set applied to a replica's copy of the base must
reproduce the primary's new object.
"""

import copy

from hypothesis import example, given, settings, strategies as st

from repro.errors import AlreadyExists, MalacologyError, NotFound
from repro.objclass.bundled import register_all
from repro.objclass.registry import ClassRegistry
from repro.rados.objects import StoredObject, apply_write_set
from repro.rados.ops import _apply_one, apply_ops

OID = "obj"
REGISTRY = ClassRegistry()
register_all(REGISTRY)


class CloneContext:
    """Reference method context: every op works on a private clone."""

    def __init__(self, obj, oid, epoch=None, now=0.0):
        self._obj = obj.clone() if obj is not None else None
        self.oid = oid
        self.epoch = epoch
        self.now = now
        self._removed = False

    @property
    def exists(self):
        return self._obj is not None and not self._removed

    def create(self, exclusive=True):
        if self.exists:
            if exclusive:
                raise AlreadyExists(f"object {self.oid!r} already exists")
            return
        self._obj = StoredObject(self.oid)
        self._removed = False

    def remove(self):
        self._require()
        self._removed = True

    def _require(self):
        if not self.exists:
            raise NotFound(f"object {self.oid!r} does not exist")
        return self._obj

    def _ensure(self):
        if not self.exists:
            self._obj = StoredObject(self.oid)
            self._removed = False
        return self._obj

    def read(self, offset=0, length=None):
        return self._require().read(offset, length)

    def write(self, offset, data):
        self._ensure().write(offset, data)

    def write_full(self, data):
        obj = self._ensure()
        obj.truncate(0)
        obj.write(0, data)

    def append(self, data):
        return self._ensure().append(data)

    def truncate(self, size):
        self._ensure().truncate(size)

    def stat(self):
        obj = self._require()
        return {"size": obj.size, "version": obj.version,
                "omap_keys": len(obj.omap)}

    def omap_get(self, key):
        obj = self._require()
        if key not in obj.omap:
            raise NotFound(f"omap key {key!r} not in {self.oid!r}")
        return obj.omap_get(key)

    def omap_has(self, key):
        return self.exists and key in self._require().omap

    def omap_set(self, key, value):
        self._ensure().omap_set(key, value)

    def omap_del(self, key):
        self._require().omap_del(key)

    def omap_list(self, start="", max_items=None, prefix=""):
        if not self.exists:
            return []
        return self._require().omap_list(start, max_items, prefix)

    def xattr_get(self, key, default=None):
        if not self.exists or key not in self._require().xattrs:
            return default
        return self._require().xattr_get(key)

    def xattr_set(self, key, value):
        self._ensure().xattr_set(key, value)

    def outcome(self):
        if self._removed:
            return None, True
        return self._obj, False


def reference_apply(obj, ops, epoch=None):
    ctx = CloneContext(obj, OID, epoch=epoch)
    results = [_apply_one(ctx, op, REGISTRY) for op in ops]
    new_obj, removed = ctx.outcome()
    return results, new_obj, removed


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
ZLOG_KEYS = ["pos.00000000000000000000", "pos.00000000000000000001"]
keys = st.sampled_from(["a", "b", "snap.s", *ZLOG_KEYS])
XATTR_KEYS = ["user.version", "zlog.epoch", "zlog.max_pos", "x"]
values = st.one_of(
    st.integers(-5, 5),
    st.text(alphabet="xyz", max_size=3),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.sampled_from(["state", "data", "n"]),
                    st.one_of(st.integers(0, 3), st.text("wf", max_size=2)),
                    max_size=2),
)
data = st.binary(max_size=12)
epochs = st.integers(0, 3)
positions = st.integers(0, 1)


def _exec(cls, method, args):
    return args.map(lambda a: {"op": "exec", "cls": cls, "method": method,
                               "args": a})


native_ops = st.one_of(
    st.builds(lambda e: {"op": "create", "exclusive": e}, st.booleans()),
    st.just({"op": "remove"}),
    st.just({"op": "assert_exists"}),
    st.just({"op": "stat"}),
    st.builds(lambda o, d: {"op": "write", "offset": o, "data": d},
              st.integers(0, 20), data),
    st.builds(lambda d: {"op": "write_full", "data": d}, data),
    st.builds(lambda d: {"op": "append", "data": d}, data),
    st.builds(lambda n: {"op": "truncate", "size": n}, st.integers(0, 30)),
    st.builds(lambda o, n: {"op": "read", "offset": o, "length": n},
              st.integers(0, 10), st.one_of(st.none(), st.integers(0, 8))),
    st.builds(lambda k, v: {"op": "omap_set", "key": k, "value": v},
              keys, values),
    st.builds(lambda k: {"op": "omap_del", "key": k}, keys),
    st.builds(lambda k: {"op": "omap_get", "key": k}, keys),
    st.builds(lambda p, m: {"op": "omap_list", "prefix": p, "max": m},
              st.sampled_from(["", "pos.", "snap."]),
              st.one_of(st.none(), st.integers(0, 3))),
    st.builds(lambda k, v: {"op": "xattr_set", "key": k, "value": v},
              st.sampled_from(XATTR_KEYS), values),
    st.builds(lambda k: {"op": "xattr_get", "key": k},
              st.sampled_from(XATTR_KEYS)),
)

class_ops = st.one_of(
    _exec("zlog", "write", st.fixed_dictionaries(
        {"epoch": epochs, "pos": positions, "data": st.text("ab", min_size=1, max_size=3)})),
    _exec("zlog", "read", st.fixed_dictionaries(
        {"epoch": epochs, "pos": positions})),
    _exec("zlog", "fill", st.fixed_dictionaries(
        {"epoch": epochs, "pos": positions})),
    _exec("zlog", "trim", st.fixed_dictionaries(
        {"epoch": epochs, "pos": positions})),
    _exec("zlog", "seal", st.fixed_dictionaries({"epoch": epochs})),
    _exec("zlog", "max_position", st.fixed_dictionaries(
        {"epoch": epochs})),
    *(_exec("numops", m, st.fixed_dictionaries(
        {"key": keys, "value": st.integers(-3, 3)}))
      for m in ("add", "sub", "mul")),
    _exec("numops", "get", st.fixed_dictionaries({"key": keys})),
    _exec("kvstore", "put", st.fixed_dictionaries(
        {"set": st.dictionaries(keys, values, max_size=2),
         "delete": st.lists(keys, max_size=2)},
        optional={"expect": st.dictionaries(keys, values, max_size=1)})),
    _exec("kvstore", "get", st.fixed_dictionaries(
        {"keys": st.lists(keys, max_size=3)})),
    _exec("kvstore", "scan", st.fixed_dictionaries(
        {"prefix": st.sampled_from(["", "pos."])})),
    _exec("version", "bump", st.just({})),
    _exec("version", "read", st.just({})),
    _exec("version", "check", st.fixed_dictionaries(
        {"expect": st.integers(0, 2)})),
    _exec("version", "set", st.fixed_dictionaries(
        {"version": st.integers(-1, 3)})),
    _exec("snapshot", "create", st.just({"name": "s"})),
    _exec("snapshot", "rollback", st.just({"name": "s"})),
)

#: Native ops twice as often: they are the write set's primitives.
op_lists = st.lists(st.one_of(native_ops, native_ops, class_ops),
                    max_size=10)


def _outcome(fn):
    """(error type or None, value) of calling ``fn``."""
    try:
        return None, fn()
    except MalacologyError as exc:
        return type(exc), None


def _object(data, omap, xattrs, extra_versions):
    obj = StoredObject(OID)
    obj.data = bytearray(data)
    obj.omap = omap
    obj.xattrs = xattrs
    obj.version = len(omap) + len(xattrs) + extra_versions
    return obj


bases = st.one_of(st.none(), st.builds(
    _object, data,
    st.dictionaries(keys, values, min_size=2, max_size=5),
    st.dictionaries(st.sampled_from(XATTR_KEYS),
                    st.one_of(st.integers(-1, 3), values), max_size=3),
    st.integers(0, 3)))


def _fingerprint(obj):
    return None if obj is None else (obj.version, obj.digest())


def _pinned_base():
    return _object(b"abc", {"a": [1], "b": {"n": 2}}, {"x": 1}, 0)


@given(bases, op_lists, st.integers(0, 3))
@settings(max_examples=300, deadline=None)
# Rare under random generation, so pinned: deleting a base key, and
# re-creating the object after removing it in the same transaction.
@example(_pinned_base(), [{"op": "omap_del", "key": "a"}], 0)
@example(_pinned_base(), [{"op": "remove"}, {"op": "create"},
                          {"op": "omap_set", "key": "b", "value": 3}], 0)
def test_write_set_matches_clone_reference(base, ops, epoch):
    failed = _check_transaction(base, ops, epoch)
    if failed:
        # Also check the longest prefix that commits, so every example
        # exercises a successful write set.
        for end in range(len(ops) - 1, -1, -1):
            if not _check_transaction(base, ops[:end], epoch):
                break


def _check_transaction(base, ops, epoch):
    """Compare one op list on both paths; True when it failed."""
    before = _fingerprint(base)
    replica = None if base is None else \
        StoredObject.from_dict(base.to_dict())

    want_err, want = _outcome(lambda: reference_apply(base, ops, epoch))
    got_err, got = _outcome(lambda: apply_ops(base, OID, ops, REGISTRY,
                                              epoch=epoch))
    assert got_err == want_err
    # Success or failure, the base is never touched.
    assert _fingerprint(base) == before
    if want_err is not None:
        return True

    want_results, want_obj, want_removed = want
    results, txn = got
    assert results == want_results
    new_obj, removed = txn.outcome()
    assert removed == want_removed
    assert _fingerprint(new_obj) == _fingerprint(want_obj)
    want_mutated = want_removed or (
        want_obj is not None
        and (base is None or want_obj.version != base.version))
    assert txn.mutated or not want_mutated
    # Materializing shares values with the base but changes none.
    assert _fingerprint(base) == before

    if new_obj is not None:
        # What a replica at the base version does with the repop.
        ws = copy.deepcopy(txn.write_set())
        assert txn.base_version == (None if base is None else base.version)
        rebuilt = apply_write_set(replica, OID, ws)
        assert _fingerprint(rebuilt) == _fingerprint(new_obj)
        assert rebuilt.stamp == new_obj.stamp
        # Only a new life of the object leaves the base's incarnation.
        if base is not None and not txn.reset:
            assert new_obj.incarnation == base.incarnation
    return False


@given(bases, op_lists)
@settings(max_examples=200, deadline=None)
def test_values_handed_to_classes_are_private(base, ops):
    """Mutating whatever a read op returned never reaches the base."""
    before = _fingerprint(base)
    err, got = _outcome(lambda: apply_ops(base, OID, ops, REGISTRY))
    if err is None:
        results, txn = got
        for value in results:
            _scribble(value)
        new_obj, _ = txn.outcome()
        assert _fingerprint(base) == before
        if new_obj is not None:
            for value in results:
                _scribble(value)
            assert _fingerprint(base) == before


def _scribble(value):
    """Mutate every mutable container reachable from ``value``."""
    if isinstance(value, dict):
        for v in list(value.values()):
            _scribble(v)
        value["scribbled"] = True
    elif isinstance(value, list):
        for v in value:
            _scribble(v)
        value.append("scribbled")
    elif isinstance(value, tuple):
        for v in value:
            _scribble(v)
