"""Line-oriented section/key-value format shared by the server config, the
client profile, and the topology specs consumed by the forge.

    # comment
    [section optional-argument]
    key = value
    bare line            (sections like [edges] hold bare lines)
"""

from __future__ import annotations

from dataclasses import dataclass, field


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

    def get(self, key: str, default: str | None = None) -> str | None:
        found = default
        for k, v in self.pairs():
            if k == key:
                found = v
        return found

    def get_all(self, key: str) -> list[str]:
        return [v for k, v in self.pairs() if k == key]


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


def parse_bool(value: str, *, where: str = "") -> bool:
    v = value.strip().lower()
    if v in ("true", "yes", "on", "1"):
        return True
    if v in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{where}: not a boolean: {value!r}")


def parse_int(value: str, *, where: str, low: int,
              high: int | None = None) -> int:
    try:
        number = int(value)
        if number >= low and (high is None or number <= high):
            return number
    except ValueError:
        pass
    bound = f">= {low}" if high is None else f"from {low} to {high}"
    raise ConfigError(f"{where}: not an integer {bound}: {value!r}")


def split_list(value: str) -> list[str]:
    return [item.strip() for item in value.split(",") if item.strip()]
