"""Immutable, memory-mappable model snapshots for the serving layer.

A discovered model is consumed at serve time as pure lookups: pairwise
winners per client (provider level and site level) plus the unicast
RTT matrix.  The JSON model format is built for portability, not
query throughput — loading it rebuilds Python dict-of-frozenset
matrices per process.  A *snapshot* instead compiles those lookups
into dense numpy arrays once, wrapped in a cachestore-style
checksummed envelope, so that:

- N server workers ``mmap`` one copy of the arrays (the page cache is
  shared; loading is O(header));
- the batched lookup engine (:mod:`repro.serve.lookup`) answers
  thousands of clients per call with vectorized indexing;
- a corrupt, truncated, or version-skewed file fails loudly with a
  typed :class:`SnapshotError` instead of serving wrong predictions.

File layout (all little-endian)::

    magic   b"ANYOPTSS"                         8 bytes
    hlen    uint64: header JSON length          8 bytes
    header  JSON (format, version, mode, array table, payload digest)
    pad     zero bytes to a 64-byte boundary
    payload dense array bytes, each 64-byte aligned

Array encodings (C clients, S sites, P providers, index spaces sorted
by id):

- ``clients``/``sites``/``providers`` — int64 id vectors;
- ``site_provider`` — int32 provider *index* per site;
- ``prov_w`` — int8 ``[C, P, P]``, stored as
  :meth:`~repro.core.preferences.PreferenceMatrix.winner_codes` returns
  it: ``prov_w[c, i, j]`` is the effective pairwise winner for client ``c`` when provider ``i`` is
  announced before provider ``j``: ``0`` = i, ``1`` = j, ``-1`` = no
  usable winner (unmeasured / inconsistent / undecided cell);
- ``site_w`` — int8 ``[C, S, S]``: the same encoding for same-provider
  site pairs (cross-provider entries stay ``-1``);
- ``rtt`` — float64 ``[S, C]`` with NaN for missing samples.

Snapshots are published atomically (temp file + ``os.replace``), so a
server hot-reloading a path never observes a torn file, and readers
holding the old mapping keep a valid view until they drop it.
"""

import hashlib
import io
import json
import mmap
import os
import threading
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.core.prediction import model_clients
from repro.util.errors import ReproError

SNAPSHOT_FORMAT = "anyopt-snapshot"
SNAPSHOT_VERSION = 1
_MAGIC = b"ANYOPTSS"
_ALIGN = 64

#: Names and storage order of the payload arrays.
_ARRAY_NAMES = (
    "clients",
    "sites",
    "providers",
    "site_provider",
    "prov_w",
    "site_w",
    "rtt",
)


class SnapshotError(ReproError):
    """A snapshot file is corrupt, truncated, or version-skewed."""


@dataclass
class Snapshot:
    """A compiled model: header metadata plus the dense arrays.

    ``arrays`` maps the names above to numpy arrays — freshly
    allocated after :func:`compile_snapshot`, zero-copy views into a
    shared mapping after :func:`load_snapshot`.  Loaded snapshots are
    read-only; treat compiled ones as immutable too.
    """

    header: Dict
    arrays: Dict[str, "np.ndarray"]
    path: Optional[str] = None
    #: Keeps the mmap (and its file) alive as long as any view does.
    _mmap: Optional[mmap.mmap] = field(default=None, repr=False, compare=False)

    @property
    def version(self) -> str:
        """Content-derived version id (the payload digest prefix)."""
        return self.header["payload_sha256"][:16]

    @property
    def site_level_mode(self) -> str:
        return self.header["site_level_mode"]

    @property
    def counts(self) -> Dict[str, int]:
        return dict(self.header["counts"])

    def describe(self) -> Dict:
        """Inspection document (``anyopt snapshot --inspect``,
        ``/modelz``)."""
        return {
            "format": self.header["format"],
            "version": self.header["version"],
            "snapshot_version": self.version,
            "model_fingerprint": self.header["model_fingerprint"],
            "site_level_mode": self.site_level_mode,
            "counts": self.counts,
            "payload_bytes": self.header["payload_nbytes"],
            "path": self.path,
        }


def compile_snapshot(model) -> Snapshot:
    """Compile an :class:`~repro.core.anyopt.AnyOptModel` into a
    snapshot.

    The known-client set is :func:`repro.core.prediction.model_clients`
    — identical to what the live predictor uses — so snapshot-backed
    lookups and ``CatchmentPredictor.predict`` agree on which clients
    are ``unmapped``.
    """
    from repro.audit.repair import model_fingerprint

    twolevel = model.twolevel
    testbed = model.testbed
    rtt_matrix = model.rtt_matrix

    clients = sorted(model_clients(twolevel, rtt_matrix))
    sites = sorted(testbed.site_ids())
    providers = sorted(testbed.provider_asns())
    site_index = {sid: i for i, sid in enumerate(sites)}
    provider_index = {asn: i for i, asn in enumerate(providers)}

    C, S, P = len(clients), len(sites), len(providers)
    prov_w = twolevel.provider_matrix.winner_codes(clients, providers)
    site_w = np.full((C, S, S), -1, dtype=np.int8)

    for matrix in twolevel.site_matrices.values():
        # Each matrix holds one provider's sites: a diagonal block.
        members = sorted({s for pair in matrix.pairs() for s in pair if s in site_index})
        block = np.array([site_index[s] for s in members], dtype=np.intp)
        site_w[:, block[:, None], block] = matrix.winner_codes(clients, members)

    arrays = {
        "clients": np.asarray(clients, dtype=np.int64),
        "sites": np.asarray(sites, dtype=np.int64),
        "providers": np.asarray(providers, dtype=np.int64),
        "site_provider": np.asarray(
            [provider_index[testbed.provider_of(s)] for s in sites], dtype=np.int32
        ),
        "prov_w": prov_w,
        "site_w": site_w,
        "rtt": rtt_matrix.array(sites, clients),
    }
    header = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "site_level_mode": twolevel.site_level_mode.value,
        "model_fingerprint": model_fingerprint(model),
        "counts": {"clients": C, "sites": S, "providers": P},
    }
    _finish_header(header, arrays)
    return Snapshot(header=header, arrays=arrays)


def _payload_layout(arrays) -> Dict[str, Dict]:
    """The array table: dtype/shape plus 64-aligned payload offsets."""
    table: Dict[str, Dict] = {}
    offset = 0
    for name in _ARRAY_NAMES:
        arr = arrays[name]
        table[name] = {
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": int(arr.nbytes),
        }
        offset += arr.nbytes
        offset += (-offset) % _ALIGN
    return table


def _payload_bytes(arrays, table) -> bytes:
    buf = io.BytesIO()
    for name in _ARRAY_NAMES:
        entry = table[name]
        buf.seek(entry["offset"])
        buf.write(np.ascontiguousarray(arrays[name]).tobytes())
    payload = buf.getvalue()
    pad = (-len(payload)) % _ALIGN
    return payload + b"\x00" * pad


def _finish_header(header: Dict, arrays) -> None:
    table = _payload_layout(arrays)
    payload = _payload_bytes(arrays, table)
    header["arrays"] = table
    header["payload_nbytes"] = len(payload)
    header["payload_sha256"] = hashlib.sha256(payload).hexdigest()


def write_snapshot(snapshot: Snapshot, path: str) -> str:
    """Publish a snapshot atomically; returns ``path``.

    The temp-file + ``os.replace`` dance is what makes hot reload
    safe: a watcher polling ``path`` sees either the old complete file
    or the new complete file, never a partial write, and mappings of
    the replaced file stay valid until their readers drop them.
    """
    table = snapshot.header["arrays"]
    payload = _payload_bytes(snapshot.arrays, table)
    if hashlib.sha256(payload).hexdigest() != snapshot.header["payload_sha256"]:
        raise SnapshotError("snapshot arrays were mutated after compile")
    header_bytes = json.dumps(snapshot.header, sort_keys=True).encode("utf-8")
    prefix_len = len(_MAGIC) + 8 + len(header_bytes)
    pad = (-prefix_len) % _ALIGN

    tmp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(len(header_bytes).to_bytes(8, "little"))
        fh.write(header_bytes)
        fh.write(b"\x00" * pad)
        fh.write(payload)
    os.replace(tmp, path)
    return path


def read_header(path: str) -> Dict:
    """Just the envelope header of a snapshot file (cheap: no payload
    read), validated for format and version."""
    header, _ = _read_header_and_offset(path)
    return header


def _read_header_and_offset(path: str):
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise SnapshotError(f"{path}: not an anyopt snapshot (bad magic)")
        raw_len = fh.read(8)
        if len(raw_len) != 8:
            raise SnapshotError(f"{path}: truncated snapshot header")
        hlen = int.from_bytes(raw_len, "little")
        header_bytes = fh.read(hlen)
    if len(header_bytes) != hlen:
        raise SnapshotError(f"{path}: truncated snapshot header")
    try:
        header = json.loads(header_bytes)
    except ValueError as exc:
        raise SnapshotError(f"{path}: unreadable snapshot header: {exc}") from None
    if not isinstance(header, dict) or header.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotError(
            f"{path}: expected a {SNAPSHOT_FORMAT!r} file, got "
            f"{header.get('format') if isinstance(header, dict) else header!r}"
        )
    if header.get("version") != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"{path}: unsupported snapshot version {header.get('version')!r}; "
            f"this library reads version {SNAPSHOT_VERSION}"
        )
    prefix_len = len(_MAGIC) + 8 + hlen
    payload_start = prefix_len + ((-prefix_len) % _ALIGN)
    return header, payload_start


def load_snapshot(path: str, verify: bool = True) -> Snapshot:
    """Memory-map a snapshot; arrays are zero-copy views of the file.

    With ``verify=True`` (the default) the payload digest is checked —
    a corrupt or truncated file raises :class:`SnapshotError` rather
    than serving wrong predictions.  The read-only mapping is shared
    between every process that loads the same file.
    """
    header, payload_start = _read_header_and_offset(path)

    with open(path, "rb") as fh:
        mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
    try:
        if payload_start + header["payload_nbytes"] > len(mm):
            raise SnapshotError(f"{path}: truncated snapshot payload")
        if verify:
            digest = hashlib.sha256(
                mm[payload_start:payload_start + header["payload_nbytes"]]
            ).hexdigest()
            if digest != header["payload_sha256"]:
                raise SnapshotError(
                    f"{path}: payload checksum mismatch (file corrupt?)"
                )
        arrays: Dict[str, np.ndarray] = {}
        for name in _ARRAY_NAMES:
            entry = header["arrays"].get(name)
            if entry is None:
                raise SnapshotError(f"{path}: snapshot is missing array {name!r}")
            count = int(np.prod(entry["shape"], dtype=np.int64)) if entry["shape"] else 1
            arr = np.frombuffer(
                mm,
                dtype=np.dtype(entry["dtype"]),
                count=count,
                offset=payload_start + entry["offset"],
            ).reshape(entry["shape"])
            arrays[name] = arr
    except Exception:
        mm.close()
        raise
    return Snapshot(header=header, arrays=arrays, path=path, _mmap=mm)
