"""CSV/JSON output helpers: atomic writes, locale-free number formatting."""
from __future__ import annotations

import json
import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence


def fmt(value) -> str:
    """Stable text form: ints verbatim, floats with 6 decimals, blanks for None."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


@contextmanager
def _atomic_text(path: Path) -> Iterator[IO[str]]:
    """A text handle on a temporary file beside ``path``, with ``\\n`` line
    ends. The file replaces ``path`` when the block exits cleanly and is
    removed when it raises, so readers see the old file or the whole new one.
    It gets the mode a plain ``open`` would give, 0666 less the process
    umask, not ``mkstemp``'s 0600."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            yield handle
        umask = os.umask(0)  # the umask can only be read by setting it
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv_atomic(path: Path, header: Sequence[str],
                     rows: Iterable[Sequence]) -> None:
    with _atomic_text(path) as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(fmt(v) for v in row) + "\n")


def write_json_atomic(path: Path, payload: dict) -> None:
    with _atomic_text(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
