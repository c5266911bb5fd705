"""Network tapes: the record schedule-transparency tests compare.

A tape lists every message a cluster's network carried as
``(sim time, src, dst, method or kind)``.  Two runs of one seed with
the same tape had the same event schedule, so an observer plane that
leaves the tape unchanged did not perturb the run it watched.
"""

import hashlib


def record_tape(cluster, skip=()):
    """Start taping ``cluster``'s network; returns the growing tape.

    Sends to or from a daemon whose name starts with one of the
    ``skip`` prefixes (an observer's own daemons, such as ``mgr`` or
    ``chlog``) are left off the tape.
    """
    tape = []
    send = cluster.net.send

    def spy(src, dst, msg):
        if not (src.startswith(skip) or dst.startswith(skip)):
            tape.append((round(cluster.sim.now, 9), src, dst,
                         getattr(msg, "method", None)
                         or getattr(msg, "kind", None)))
        return send(src, dst, msg)

    cluster.net.send = spy
    return tape


def run_load(cluster, work):
    """Drive ``work(client)`` to completion, then let the cluster run
    10 more simulated seconds."""
    client = cluster.new_client("load")
    cluster.sim.run_until_complete(client.do(work(client)))
    cluster.run(10.0)


def tape_digest(tape):
    """``(sends, sha256)`` of a tape, for pinning one as a golden."""
    h = hashlib.sha256()
    for entry in tape:
        h.update(repr(entry).encode())
    return len(tape), h.hexdigest()
