"""Line-oriented section/key-value format shared by the server config, the
client profile, and the topology specs consumed by the forge, and the
readers for its values: each takes ``(text, *, where)`` and raises a
``ConfigError`` that starts with ``where``, the section and key read.

    # comment
    [section optional-argument]
    key = value
    bare line            (sections like [edges] hold bare lines)
"""

from __future__ import annotations

import string
import urllib.parse
from dataclasses import dataclass, field

from . import der
from .certs import Name


class ConfigError(Exception):
    pass


@dataclass
class Section:
    name: str
    arg: str
    lineno: int
    lines: list[tuple[int, str]] = field(default_factory=list)

    def pairs(self) -> list[tuple[str, str]]:
        """All ``key = value`` lines, in order; repeated keys are allowed."""
        out = []
        for lineno, text in self.lines:
            key, sep, value = text.partition("=")
            if not sep:
                raise ConfigError(f"line {lineno}: expected 'key = value': {text!r}")
            out.append((key.strip(), value.strip()))
        return out


def parse_sections(text: str) -> list[Section]:
    sections: list[Section] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: unterminated section header")
            header = line[1:-1].strip()
            if not header:
                raise ConfigError(f"line {lineno}: empty section header")
            name, _, arg = header.partition(" ")
            sections.append(Section(name, arg.strip(), lineno))
            continue
        if not sections:
            raise ConfigError(f"line {lineno}: content before any [section]")
        sections[-1].lines.append((lineno, line))
    return sections


def read(section: Section, readers: dict,
         prefix: str = "") -> list[tuple[str, object]]:
    """The section's ``(key, value)`` pairs in order, each value read by its
    key's reader with ``where = prefix + key``; ``usage <name>`` keys, the
    only ones with a word after the key, are read by ``usage``."""
    out = []
    for key, text in section.pairs():
        reader = readers.get("usage" if key.partition(" ")[0] == "usage"
                             else key)
        if reader is None:
            raise ConfigError(f"{prefix}unknown key {key!r}")
        out.append((key, reader(text, where=prefix + key)))
    return out


def _reader(convert, *errors):
    """A reader applying ``convert``; ``errors`` become ConfigErrors."""
    def read_value(value: str, *, where: str):
        try:
            return convert(value)
        except errors as exc:
            raise ConfigError(f"{where}: {exc}") from None
    return read_value


def parse_text(value: str, *, where: str) -> str:
    return value


def parse_bool(value: str, *, where: str) -> bool:
    v = value.strip().lower()
    if v in ("true", "yes", "on", "1"):
        return True
    if v in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{where}: not a boolean: {value!r}")


def parse_int(value: str, *, where: str, low: int | None = None,
              high: int | None = None) -> int:
    try:
        number = int(value)
        if (low is None or number >= low) and (high is None or number <= high):
            return number
    except ValueError:
        pass
    bound = ("" if low is None else f" >= {low}" if high is None
             else f" from {low} to {high}")
    raise ConfigError(f"{where}: not an integer{bound}: {value!r}")


def parse_oid(value: str, *, where: str) -> der.Oid:
    try:
        oid = der.Oid(value)
        der.encode(oid)  # arcs out of range or too few
    except (ValueError, der.InvalidValue):
        raise ConfigError(f"{where}: not an OID: {value!r}") from None
    return oid


parse_name = _reader(Name.from_string, ValueError)
parse_timestamp = _reader(der.parse_time, der.DerError)  # GeneralizedTime


def list_of(reader, separator: str = ","):
    """A reader for a list; empty items are skipped."""
    def read_list(value: str, *, where: str) -> tuple:
        return tuple(reader(item.strip(), where=where)
                     for item in value.split(separator) if item.strip())
    return read_list


parse_list = list_of(parse_text)
parse_oids = list_of(parse_oid)


def word_set(table: dict):
    """A reader for a comma-separated set of ``table``'s words."""
    def read_words(value: str, *, where: str) -> frozenset:
        words = parse_list(value, where=where)
        for word in words:
            if word not in table:
                raise ConfigError(f"{where}: unknown word {word!r} "
                                  f"(choose from {sorted(table)})")
        return frozenset(table[word] for word in words)
    return read_words


def one_of(*choices: str):
    def read_choice(value: str, *, where: str) -> str:
        if value not in choices:
            raise ConfigError(f"{where}: {value!r} is not one of "
                              f"{', '.join(choices)}")
        return value
    return read_choice


def parse_url(value: str, *, where: str) -> str:
    try:
        parts = urllib.parse.urlsplit(value)
        if parts.scheme in ("http", "https") and parts.hostname:
            parts.port  # raises ValueError for a port that is not a number
            return value
    except ValueError:
        pass
    raise ConfigError(f"{where}: not an http(s) URL: {value!r}")


def parse_fingerprint(value: str, *, where: str) -> bytes:
    if len(value) != 64 or not set(value) <= set(string.hexdigits):
        raise ConfigError(f"{where}: not a SHA-256 fingerprint "
                          f"(64 hex digits): {value!r}")
    return bytes.fromhex(value)
