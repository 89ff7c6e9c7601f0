"""Small file helpers: atomic writes, JSON, UTF-8 checks, hashing."""

import codecs
import contextlib
import hashlib
import itertools
import json
import os
from typing import IO, Iterable, Iterator

from .errors import ConfigError

_UTF8_CHUNK = 1 << 16  # bytes check_utf8 decodes at a time


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w") -> Iterator[IO]:
    """A temp file opened for writing, in text (UTF-8, line endings kept)
    or binary mode, that is renamed over path when the block ends.  Readers
    never see partial output: if the block raises, the temp file is
    removed and path is left as it was."""
    tmp = path + ".tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def atomic_write_text(path: str, pieces: Iterable[str]) -> None:
    """Write the text pieces in order to path atomically.  Pieces may be
    produced while the file is written; if producing or writing one fails,
    path is left as it was."""
    with atomic_open(path) as fh:
        fh.writelines(pieces)


def check_utf8(path: str) -> None:
    """Raise ConfigError naming the path and the byte offset if the file is
    not UTF-8 text, reading it _UTF8_CHUNK bytes at a time."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    read = 0
    with open(path, "rb") as fh:
        for chunk in itertools.chain(iter(lambda: fh.read(_UTF8_CHUNK), b""), [b""]):
            # the decoder sees the bytes it kept from the last chunk, then this one
            start = read - len(decoder.getstate()[0])
            read += len(chunk)
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                raise _not_utf8(path, exc, start) from None


def _not_utf8(path: str, exc: UnicodeDecodeError, start: int) -> ConfigError:
    """The error for exc, raised decoding bytes that begin at file offset start."""
    return ConfigError(
        f"{path} is not UTF-8 text: byte {exc.object[exc.start]:#04x} "
        f"at offset {start + exc.start}"
    )


def read_json(path: str):
    """Parsed contents of a JSON file; malformed JSON or text that is not
    UTF-8 raises ConfigError."""
    check_utf8(path)
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return json.load(fh)
    except ValueError as exc:  # malformed, or an integer of more digits than int() reads
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc


def write_json(path: str, payload) -> None:
    atomic_write_text(path, [json.dumps(payload, indent=2, sort_keys=True), "\n"])


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()
