"""
On-disk cache of computed KL polynomials.

Versioned line-oriented text, one record per line:

    bruhat-forge-kl-cache 1 A2~
    <x word> <y word> <c0,c1,...>

Words are the canonical digit strings, with "-" standing in for the
identity; coefficients are listed ascending by exponent.  The file is
append-only, diff-able and mergeable: loading any subset of a larger
run gives a valid cache, and records are unique per (x, y).  An
unterminated last line, left by an interrupted append, is ignored on
load and cut off by the next append; any other bad line raises
CacheFormatError naming path:line.
"""

from __future__ import annotations

import os
from typing import Optional

from .laurent import QPoly

__all__ = ["KLCache", "CacheFormatError", "CACHE_ENV_VAR", "cache_from_env"]

CACHE_ENV_VAR = "BRUHAT_FORGE_CACHE"
_HEADER = "bruhat-forge-kl-cache 1 A2~"


class CacheFormatError(ValueError):
    """The cache file is not in the expected format."""


def _check_word(word: str) -> str:
    if word.strip("012"):
        raise ValueError(f"bad word {word!r}")
    return word


def _encode_word(word: str) -> str:
    return _check_word(word) or "-"


def _decode_word(token: str) -> str:
    return "" if token == "-" else _check_word(token)


class KLCache:
    """Append-only store of P_{x,y} records keyed by canonical words."""

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._records: dict[tuple[str, str], QPoly] = {}
        if path is not None and os.path.exists(path):
            self._load(path)

    def _load(self, path: str) -> None:
        with open(path, "rb") as fh:
            lines = fh.read().split(b"\n")
        lines.pop()  # empty, or a torn append that the next put cuts off
        if not lines:
            return
        header = lines[0].decode("ascii", "replace").rstrip("\r")
        if header != _HEADER:
            raise CacheFormatError(
                f"bad cache header {header!r}; expected {_HEADER!r}"
            )
        for lineno, line in enumerate(lines[1:], start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise CacheFormatError(f"{path}:{lineno}: malformed record")
            try:
                parts = [part.decode("ascii") for part in parts]
                key = (_decode_word(parts[0]), _decode_word(parts[1]))
                coeffs = [int(c) for c in parts[2].split(",")]
            except ValueError as exc:
                raise CacheFormatError(f"{path}:{lineno}: {exc}") from None
            poly = QPoly({e: c for e, c in enumerate(coeffs)})
            old = self._records.get(key)
            if old is not None and old != poly:
                raise CacheFormatError(
                    f"{path}:{lineno}: conflicting duplicate record for {key}"
                )
            self._records[key] = poly

    def __len__(self) -> int:
        return len(self._records)

    def get(self, x_word: str, y_word: str) -> Optional[QPoly]:
        return self._records.get((x_word, y_word))

    def put(self, x_word: str, y_word: str, poly: QPoly) -> None:
        """Record a polynomial, appending to the backing file if any."""
        key = (x_word, y_word)
        old = self._records.get(key)
        if old is not None:
            if old != poly:
                raise CacheFormatError(f"conflicting value for cached pair {key}")
            return
        coeffs = ",".join(str(c) for c in poly.coefficient_list())
        record = f"{_encode_word(x_word)} {_encode_word(y_word)} {coeffs}\n"
        self._records[key] = poly
        if self.path is not None:
            with open(self.path, "ab+") as fh:
                end = fh.seek(0, os.SEEK_END)
                fh.seek(max(end - 1, 0))
                if fh.read(1) not in (b"", b"\n"):
                    # a torn last line: cut it so the record starts a fresh one
                    fh.seek(0)
                    end = fh.read().rfind(b"\n") + 1
                    fh.truncate(end)
                if end == 0:
                    record = _HEADER + "\n" + record
                fh.write(record.encode("ascii"))


def cache_from_env() -> Optional[KLCache]:
    """The cache configured through the environment, if any."""
    path = os.environ.get(CACHE_ENV_VAR)
    return KLCache(path) if path else None
