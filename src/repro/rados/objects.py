"""The stored object: bytestream + sorted key-value omap + xattrs.

This is RADOS's data model (paper section 4.2): every object offers a
byte stream, a sorted key-value database (the "omap"), and extended
attributes, all mutable atomically within one object operation.  Object
classes compose these native interfaces.
"""

from __future__ import annotations

import copy
import hashlib
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import InvalidArgument

#: Guardrail: a simulated object refusing absurd writes keeps runaway
#: benchmarks from eating the host's memory.
MAX_OBJECT_SIZE = 64 * 1024 * 1024

#: Incarnation of objects no primary stamped (built directly, or
#: decoded from state that predates incarnations).
NO_INCARNATION: Tuple[float, int] = (0.0, 0)


def read_bytes(buf: bytes, offset: int = 0,
               length: Optional[int] = None) -> bytes:
    """``length`` bytes of ``buf`` from ``offset`` (all when None)."""
    if offset < 0:
        raise InvalidArgument("negative read offset")
    if length is None:
        return bytes(buf[offset:])
    if length < 0:
        raise InvalidArgument("negative read length")
    return bytes(buf[offset:offset + length])


def write_bytes(buf: bytearray, offset: int, data: bytes) -> None:
    """Overwrite ``buf`` at ``offset``, zero-filling any gap."""
    if offset < 0:
        raise InvalidArgument("negative write offset")
    end = offset + len(data)
    if end > MAX_OBJECT_SIZE:
        raise InvalidArgument(f"object would exceed {MAX_OBJECT_SIZE}B")
    if len(buf) < end:
        buf.extend(b"\x00" * (end - len(buf)))
    buf[offset:end] = data


def truncate_bytes(buf: bytearray, size: int) -> None:
    if size < 0:
        raise InvalidArgument("negative truncate size")
    if size < len(buf):
        del buf[size:]
    else:
        buf.extend(b"\x00" * (size - len(buf)))


class StoredObject:
    """One object replica's full state.

    ``version`` counts mutations (like Ceph's per-object version) and
    is what scrub compares across replicas.  It restarts at 0 when the
    object is removed and re-created, so ``incarnation`` — ``(creation
    time, creator's sequence number)``, stamped by the primary that
    created this life of the object — orders lives, and ``stamp``
    orders any two copies of one oid.

    A *committed* object (one an object store holds) is immutable by
    convention: successive versions share their ``data`` buffer and
    omap/xattr values (see :func:`apply_write_set`), so nothing may
    mutate them in place.  The mutators below are for building fresh
    objects; committed values are deep-copied on the way in (``omap_set``,
    ``xattr_set``) and handed out as copies by the method context.
    """

    __slots__ = ("oid", "data", "omap", "xattrs", "version",
                 "incarnation")

    def __init__(self, oid: str):
        self.oid = oid
        self.data = bytearray()
        self.omap: Dict[str, Any] = {}
        self.xattrs: Dict[str, Any] = {}
        self.version = 0
        self.incarnation = NO_INCARNATION

    @property
    def stamp(self) -> Tuple[Tuple[float, int], int]:
        """``(incarnation, version)``: the later copy compares greater."""
        return self.incarnation, self.version

    # ------------------------------------------------------------------
    # Bytestream
    # ------------------------------------------------------------------
    def read(self, offset: int = 0, length: Optional[int] = None) -> bytes:
        return read_bytes(self.data, offset, length)

    def write(self, offset: int, data: bytes) -> None:
        write_bytes(self.data, offset, data)
        self.version += 1

    def append(self, data: bytes) -> int:
        """Append; returns the offset the data landed at."""
        offset = len(self.data)
        self.write(offset, data)
        return offset

    def truncate(self, size: int) -> None:
        truncate_bytes(self.data, size)
        self.version += 1

    @property
    def size(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------
    # Omap (sorted key-value database)
    # ------------------------------------------------------------------
    def omap_get(self, key: str) -> Any:
        return self.omap[key]

    def omap_set(self, key: str, value: Any) -> None:
        self.omap[key] = copy.deepcopy(value)
        self.version += 1

    def omap_del(self, key: str) -> None:
        if key in self.omap:
            del self.omap[key]
            self.version += 1

    def omap_list(self, start: str = "", max_items: Optional[int] = None,
                  prefix: str = "") -> List[Tuple[str, Any]]:
        """Sorted scan from ``start`` (exclusive), optional prefix filter."""
        keys = sorted(k for k in self.omap
                      if k > start and k.startswith(prefix))
        if max_items is not None:
            keys = keys[:max_items]
        return [(k, copy.deepcopy(self.omap[k])) for k in keys]

    # ------------------------------------------------------------------
    # Xattrs
    # ------------------------------------------------------------------
    def xattr_get(self, key: str) -> Any:
        return self.xattrs[key]

    def xattr_set(self, key: str, value: Any) -> None:
        self.xattrs[key] = copy.deepcopy(value)
        self.version += 1

    # ------------------------------------------------------------------
    # Whole-object operations
    # ------------------------------------------------------------------
    def digest(self) -> str:
        """Content fingerprint used by scrub to compare replicas."""
        h = hashlib.sha256()
        h.update(bytes(self.data))
        for k in sorted(self.omap):
            h.update(repr((k, self.omap[k])).encode())
        for k in sorted(self.xattrs):
            h.update(repr((k, self.xattrs[k])).encode())
        return h.hexdigest()

    def clone(self) -> "StoredObject":
        other = StoredObject(self.oid)
        other.data = bytearray(self.data)
        other.omap = copy.deepcopy(self.omap)
        other.xattrs = copy.deepcopy(self.xattrs)
        other.version = self.version
        other.incarnation = self.incarnation
        return other

    def to_dict(self) -> Dict[str, Any]:
        """Wire/state-transfer form (replication, recovery, scrub repair)."""
        return {
            "oid": self.oid,
            "data": bytes(self.data),
            "omap": copy.deepcopy(self.omap),
            "xattrs": copy.deepcopy(self.xattrs),
            "version": self.version,
            "incarnation": self.incarnation,
        }

    @classmethod
    def from_dict(cls, d: Dict[str, Any]) -> "StoredObject":
        obj = cls(d["oid"])
        obj.data = bytearray(d["data"])
        obj.omap = copy.deepcopy(d["omap"])
        obj.xattrs = copy.deepcopy(d["xattrs"])
        obj.version = d["version"]
        obj.incarnation = tuple(d.get("incarnation", NO_INCARNATION))
        return obj

    def __repr__(self) -> str:
        return (f"StoredObject({self.oid!r}, {self.size}B, "
                f"{len(self.omap)} omap keys, v{self.version})")


def apply_write_set(base: Optional[StoredObject], oid: str,
                    ws: Dict[str, Any]) -> StoredObject:
    """The object version a transaction's write set makes of ``base``.

    ``ws`` is the form :meth:`MethodContext.write_set` emits and the
    ``osd_repop`` payload carries: ``reset`` (the base was discarded:
    removed and re-created, or created from nothing), ``data`` (the
    whole bytestream image, or None when untouched), ``omap`` /
    ``omap_rm`` (keys set / deleted), ``xattrs`` (keys set) and the
    resulting ``version`` and ``incarnation``.  The result is a shallow copy of the base
    plus the write set: it shares the base's data buffer and untouched
    values, and the base itself is never mutated.
    """
    obj = StoredObject(oid)
    if base is not None and not ws["reset"]:
        obj.data = base.data
        obj.omap = dict(base.omap)
        obj.xattrs = dict(base.xattrs)
    data = ws["data"]
    if data is not None:
        obj.data = data if isinstance(data, bytearray) else bytearray(data)
    for key in ws["omap_rm"]:
        obj.omap.pop(key, None)
    obj.omap.update(ws["omap"])
    obj.xattrs.update(ws["xattrs"])
    obj.version = ws["version"]
    obj.incarnation = ws["incarnation"]
    return obj
