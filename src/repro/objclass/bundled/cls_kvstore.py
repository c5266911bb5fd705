"""Multi-key transactional key-value class over an object's omap.

The "atomically update a matrix in the bytestream and its index in the
key-value database" example from section 4.2 generalizes to this: a
batch of conditional puts/deletes applied all-or-nothing on the OSD.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.errors import InvalidArgument, StaleEpoch
from repro.objclass.context import MethodContext

CATEGORY = "metadata"


def get(ctx: MethodContext, args: Dict[str, Any]) -> Dict[str, Any]:
    keys: List[str] = args.get("keys", [])
    out = {}
    for key in keys:
        if ctx.omap_has(key):
            out[key] = ctx.omap_get(key)
    return {"values": out}


def put(ctx: MethodContext, args: Dict[str, Any]) -> Dict[str, Any]:
    """Apply a batch with optional preconditions.

    ``expect`` maps key -> required current value (absent key expected
    when the required value is None); any mismatch aborts the whole
    batch with ESTALE — the method context's write-set transaction
    guarantees nothing partial lands.
    """
    expect: Dict[str, Any] = args.get("expect", {})
    for key, want in expect.items():
        have = ctx.omap_get(key) if ctx.omap_has(key) else None
        if have != want:
            raise StaleEpoch(
                f"kvstore precondition failed on {key!r}: "
                f"have {have!r}, want {want!r}")
    ctx.create(exclusive=False)
    puts: Dict[str, Any] = args.get("set", {})
    dels: List[str] = args.get("delete", [])
    if not puts and not dels:
        raise InvalidArgument("kvstore.put with nothing to do")
    for key, value in puts.items():
        ctx.omap_set(key, value)
    for key in dels:
        ctx.omap_del(key) if ctx.omap_has(key) else None
    return {"applied": len(puts) + len(dels)}


def scan(ctx: MethodContext, args: Dict[str, Any]) -> Dict[str, Any]:
    items = ctx.omap_list(start=args.get("start", ""),
                          max_items=args.get("max", 100),
                          prefix=args.get("prefix", ""))
    return {
        "items": items,
        "truncated": len(items) == args.get("max", 100),
    }


METHODS = {"get": get, "put": put, "scan": scan}
