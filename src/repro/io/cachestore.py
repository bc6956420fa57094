"""Persistent on-disk store for converged BGP states.

The in-memory :class:`~repro.runtime.cache.ConvergenceCache` dies with
its process, which forfeits the two cheapest wins a campaign has:
``evaluate`` re-running a configuration that ``optimize``'s discovery
already converged in an *earlier CLI invocation*, and process-pool
workers re-converging states a sibling worker just produced.  The
store spills cache entries to a directory so both hit.

Layout and soundness:

- Entries live under ``<path>/<namespace>/<key-digest>.pkl``.  The
  namespace is a fingerprint of everything the cache key does *not*
  cover — the AS graph and the announced prefix — so two testbeds
  never read each other's states (:func:`topology_fingerprint`).
- The key is the same exact-input tuple the in-memory cache uses
  (:meth:`ConvergenceCache.key_for
  <repro.runtime.cache.ConvergenceCache.key_for>`); its ``repr`` is
  stored inside each entry and verified on load, so a digest
  collision degrades to a miss, never to a wrong state.
- Every entry is a versioned envelope; unreadable, corrupt, or
  mismatched files are treated as misses (and a torn write can't
  happen: entries are written with :func:`~repro.io.atomic.atomic_write`).

Entries are Python pickles, so a store directory should be treated
like any other local artifact (don't load stores from untrusted
sources).
"""

import hashlib
import os
import pickle
from typing import Tuple

from repro.io.atomic import atomic_write
from repro.obs.log import get_logger

#: Envelope identifier and version; bump the version whenever the
#: pickled state layout or the key construction changes.
STORE_FORMAT = "anyopt-convergence"
STORE_VERSION = 2

logger = get_logger("cachestore")


def topology_fingerprint(graph, prefix: str) -> str:
    """A stable digest of the inputs the cache key leaves ambient.

    Covers every AS (including policy knobs like deviant preferences
    and tie-break flags) and every link (delays, interior costs), plus
    the announced prefix.  Anything that changes a converged state
    must change the fingerprint; spurious differences merely cost a
    cold cache, so erring toward inclusion is safe.
    """
    hasher = hashlib.sha256()
    hasher.update(f"{STORE_FORMAT}:{STORE_VERSION}:{prefix}".encode())
    for asn in graph.asns():
        hasher.update(repr(graph.as_of(asn)).encode())
    for link in sorted(graph.links(), key=lambda link: (link.a, link.b)):
        hasher.update(repr(link).encode())
    return hasher.hexdigest()[:16]


class ConvergenceStore:
    """One namespace of the on-disk convergence store.

    Safe for concurrent use by threads and processes: loads only ever
    see complete entries (atomic replace), and two writers racing on
    one key write identical bit-identical states, so last-write-wins
    is harmless.
    """

    def __init__(self, path: str, namespace: str):
        self.path = path
        self.namespace = namespace
        self._dir = os.path.join(path, namespace)
        os.makedirs(self._dir, exist_ok=True)

    @classmethod
    def for_topology(cls, path: str, graph, prefix: str) -> "ConvergenceStore":
        """The store namespaced to one AS graph + anycast prefix."""
        return cls(path, topology_fingerprint(graph, prefix))

    # -- internals ----------------------------------------------------------

    def _locate(self, key: Tuple) -> Tuple[str, str]:
        key_repr = repr(key)
        digest = hashlib.sha256(key_repr.encode()).hexdigest()
        return os.path.join(self._dir, f"{digest}.pkl"), key_repr

    # -- operations ---------------------------------------------------------

    def load(self, key: Tuple):
        """The stored converged state for ``key``, or None."""
        filename, key_repr = self._locate(key)
        try:
            with open(filename, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            return None  # an ordinary miss: stay silent
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ImportError) as exc:
            logger.warning(
                "unreadable convergence-store entry treated as a miss",
                extra={"fields": {"file": filename, "error": f"{type(exc).__name__}: {exc}"}},
            )
            return None
        if (
            not isinstance(payload, dict)
            or payload.get("format") != STORE_FORMAT
            or payload.get("version") != STORE_VERSION
            or payload.get("key_repr") != key_repr
        ):
            logger.warning(
                "mismatched convergence-store entry treated as a miss",
                extra={
                    "fields": {
                        "file": filename,
                        "format": payload.get("format") if isinstance(payload, dict) else None,
                        "version": payload.get("version") if isinstance(payload, dict) else None,
                    }
                },
            )
            return None
        return payload.get("state")

    def save(self, key: Tuple, state) -> None:
        """Persist one converged state (atomic; concurrent-safe)."""
        filename, key_repr = self._locate(key)
        payload = {
            "format": STORE_FORMAT,
            "version": STORE_VERSION,
            "key_repr": key_repr,
            "state": state,
        }
        atomic_write(filename, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self._dir) if name.endswith(".pkl"))

    def clear(self) -> None:
        """Delete every entry in this namespace."""
        for name in os.listdir(self._dir):
            if name.endswith(".pkl"):
                try:
                    os.unlink(os.path.join(self._dir, name))
                except OSError:
                    pass
