"""The method context: native interfaces exposed to object classes.

A class method receives a :class:`MethodContext` bound to the object it
was invoked on.  All mutations go through the context, which records
them as a *write set* over the unmodified base object; the OSD commits
the resulting version only if the whole operation (the full op list,
including any class method) succeeds — giving the transactional
all-or-nothing semantics the paper highlights ("native interfaces may
be transactionally composed along with application-specific logic",
section 4.2).

The write set holds omap key sets and deletes, xattr sets, a private
bytestream image (copied from the base only on the first data write),
create/remove flags and the version delta, so an op costs what it
touches rather than the size of the object.  Reads consult the write
set first, then the base.  Values handed to a class are private copies
and values stored are deep-copied, so a class can never reach (or
alias) state the base object shares with other versions.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set, Tuple

from repro.errors import AlreadyExists, NotFound

if TYPE_CHECKING:  # import cycle: rados.ops imports this module
    from repro.rados.objects import StoredObject

#: Value types that are immutable all the way down; copying them out
#: of (or into) the write set is the identity.
_IMMUTABLE = frozenset({int, float, str, bytes, bool, type(None)})


def _private(value: Any) -> Any:
    """A copy of ``value`` no other object version can observe."""
    if type(value) in _IMMUTABLE:
        return value
    return copy.deepcopy(value)


class MethodContext:
    """Sandbox-facing handle on one object during one operation.

    The context also carries request metadata classes need:
    ``epoch`` — the client-supplied epoch tag (CORFU-style fencing);
    ``now`` — simulated time (read-only; classes must stay
    deterministic given the same object state and args).
    """

    def __init__(self, obj: Optional["StoredObject"], oid: str,
                 epoch: Optional[int] = None, now: float = 0.0):
        #: The base version (None: the object does not exist yet).  It
        #: is only ever read; the caller's object is untouched.
        self._base = obj
        self.oid = oid
        self.epoch = epoch
        self.now = now
        self._exists = obj is not None
        self._removed = False
        #: True once the base is discarded (the object was created from
        #: nothing, or removed and re-created in this transaction).
        self._reset = False
        self._omap: Dict[str, Any] = {}
        self._omap_rm: Set[str] = set()
        self._xattrs: Dict[str, Any] = {}
        #: Private bytestream image; None while the base's is current.
        self._data: Optional[bytearray] = None
        #: False once the image was handed to a materialized version
        #: (the next data write copies it again).
        self._data_owned = False
        self._version = obj.version if obj is not None else 0
        #: Which life of the object the result belongs to (see
        #: ``StoredObject.incarnation``).  A fresh life gets ``(now,
        #: 0)``; the OSD restamps it with its own sequence number.
        self.incarnation: Tuple[float, int] = \
            obj.incarnation if obj is not None else (now, 0)

    # ------------------------------------------------------------------
    # Existence
    # ------------------------------------------------------------------
    @property
    def exists(self) -> bool:
        return self._exists

    def create(self, exclusive: bool = True) -> None:
        if self._exists:
            if exclusive:
                raise AlreadyExists(f"object {self.oid!r} already exists")
            return
        self._fresh()

    def remove(self) -> None:
        self._require()
        self._exists = False
        self._removed = True

    def _require(self) -> None:
        if not self._exists:
            raise NotFound(f"object {self.oid!r} does not exist")

    def _ensure(self) -> None:
        """Writes implicitly create the object, as RADOS writes do."""
        if not self._exists:
            self._fresh()

    def _fresh(self) -> None:
        """Start from an empty object at version 0, hiding the base."""
        self._exists = True
        self._removed = False
        self._reset = True
        self._omap = {}
        self._omap_rm = set()
        self._xattrs = {}
        self._data = bytearray()
        self._data_owned = True
        self._version = 0
        self.incarnation = (self.now, 0)

    def _live_base(self) -> Optional["StoredObject"]:
        """The base, unless this transaction discarded it."""
        return None if self._reset else self._base

    # ------------------------------------------------------------------
    # Bytestream
    # ------------------------------------------------------------------
    def _bytes(self) -> bytes:
        if self._data is not None:
            return self._data
        base = self._live_base()
        return base.data if base is not None else b""

    def _writable(self) -> bytearray:
        if self._data is None or not self._data_owned:
            self._data = bytearray(self._bytes())
            self._data_owned = True
        return self._data

    def read(self, offset: int = 0, length: Optional[int] = None) -> bytes:
        from repro.rados.objects import read_bytes

        self._require()
        return read_bytes(self._bytes(), offset, length)

    def write(self, offset: int, data: bytes) -> None:
        from repro.rados.objects import write_bytes

        self._ensure()
        write_bytes(self._writable(), offset, data)
        self._version += 1

    def write_full(self, data: bytes) -> None:
        # truncate(0) + write(0, data), without copying the old image.
        self._ensure()
        self._data = bytearray()
        self._data_owned = True
        self._version += 1
        self.write(0, data)

    def append(self, data: bytes) -> int:
        self._ensure()
        offset = len(self._bytes())
        self.write(offset, data)
        return offset

    def truncate(self, size: int) -> None:
        from repro.rados.objects import truncate_bytes

        self._ensure()
        truncate_bytes(self._writable(), size)
        self._version += 1

    def stat(self) -> Dict[str, int]:
        self._require()
        return {"size": len(self._bytes()), "version": self._version,
                "omap_keys": self._omap_count()}

    # ------------------------------------------------------------------
    # Omap
    # ------------------------------------------------------------------
    _MISSING = object()

    def _omap_lookup(self, key: str) -> Any:
        """The visible value of ``key``, or ``_MISSING``."""
        if key in self._omap:
            return self._omap[key]
        base = self._live_base()
        if base is None or key in self._omap_rm:
            return self._MISSING
        return base.omap.get(key, self._MISSING)

    def _omap_count(self) -> int:
        base = self._live_base()
        if base is None:
            return len(self._omap)
        count = len(base.omap) - len(self._omap_rm)
        return count + sum(1 for k in self._omap if k not in base.omap)

    def omap_get(self, key: str) -> Any:
        self._require()
        value = self._omap_lookup(key)
        if value is self._MISSING:
            raise NotFound(f"omap key {key!r} not in {self.oid!r}")
        return _private(value)

    def omap_has(self, key: str) -> bool:
        return self._exists and self._omap_lookup(key) is not self._MISSING

    def omap_set(self, key: str, value: Any) -> None:
        self._ensure()
        self._omap_rm.discard(key)
        self._omap[key] = _private(value)
        self._version += 1

    def omap_del(self, key: str) -> None:
        self._require()
        if self._omap_lookup(key) is self._MISSING:
            return
        self._omap.pop(key, None)
        base = self._live_base()
        if base is not None and key in base.omap:
            self._omap_rm.add(key)
        self._version += 1

    def omap_list(self, start: str = "", max_items: Optional[int] = None,
                  prefix: str = "") -> List[Tuple[str, Any]]:
        """Sorted scan from ``start`` (exclusive), optional prefix filter."""
        if not self._exists:
            return []
        base = self._live_base()
        visible = set(self._omap)
        if base is not None:
            visible.update(k for k in base.omap if k not in self._omap_rm)
        keys = sorted(k for k in visible
                      if k > start and k.startswith(prefix))
        if max_items is not None:
            keys = keys[:max_items]
        return [(k, _private(self._omap_lookup(k))) for k in keys]

    # ------------------------------------------------------------------
    # Xattrs
    # ------------------------------------------------------------------
    def xattr_get(self, key: str, default: Any = None) -> Any:
        if not self._exists:
            return default
        if key in self._xattrs:
            return _private(self._xattrs[key])
        base = self._live_base()
        if base is None or key not in base.xattrs:
            return default
        return _private(base.xattrs[key])

    def xattr_set(self, key: str, value: Any) -> None:
        self._ensure()
        self._xattrs[key] = _private(value)
        self._version += 1

    # ------------------------------------------------------------------
    # Commit protocol (OSD-side)
    # ------------------------------------------------------------------
    @property
    def base_version(self) -> Optional[int]:
        """Version of the base object (None when it did not exist)."""
        return self._base.version if self._base is not None else None

    @property
    def reset(self) -> bool:
        """Whether the result is a new life of the object."""
        return self._reset

    @property
    def mutated(self) -> bool:
        """Whether committing this transaction changes the object."""
        if self._removed:
            return True
        if not self._exists:
            return False
        return self._reset or self._version != self.base_version

    def write_set(self) -> Dict[str, Any]:
        """The transaction's effect as a value (see ``apply_write_set``).

        Values and the bytestream image are the context's private
        copies, shared with the version :meth:`outcome` materializes —
        so callers treat the result as read-only, as they do committed
        objects (the wire copies it on the way out).
        """
        self._data_owned = False  # a later data write copies it again
        return self._write_set(self._data)

    def _write_set(self, data: Optional[bytearray]) -> Dict[str, Any]:
        return {
            "reset": self._reset,
            "data": data,
            "omap": self._omap,
            "omap_rm": sorted(self._omap_rm),
            "xattrs": self._xattrs,
            "version": self._version,
            "incarnation": self.incarnation,
        }

    def outcome(self) -> Tuple[Optional["StoredObject"], bool]:
        """(object state to commit, removed?) — consumed by the OSD.

        The new version is a shallow copy of the base plus the write
        set; the base object is never mutated.
        """
        from repro.rados.objects import apply_write_set

        if self._removed:
            return None, True
        if not self._exists:
            return None, False
        # Hand the image itself over; a later data write in this
        # context copies it again.
        self._data_owned = False
        return apply_write_set(self._base, self.oid,
                               self._write_set(self._data)), False
