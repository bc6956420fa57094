"""Atomic file replacement for models, checkpoints and snapshots."""

import os
import threading


def atomic_write(path, data) -> None:
    """Replace ``path`` with ``data`` (``bytes``, ``str`` as UTF-8, or
    an iterable of ``bytes`` chunks): a reader sees the old file or the
    new one, never a torn one.  The data goes to a temp file beside
    ``path``, unique to this process and thread; if writing fails it is
    removed and ``path`` is untouched.  No fsync: this guards against
    torn reads and crashed writers, not power loss."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    if isinstance(data, bytes):
        data = (data,)
    tmp = f"{os.fspath(path)}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.writelines(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
