"""Bundled templates, validity oracles, and the default IDAT codec."""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from pathlib import Path

from ..errors import TemplateError
from ..templatelang import TemplateUnit, parse_template
from .mini import verify_mini
from .pnglite import verify_pnglite
from .zstream import adler32

BUNDLED = ("mini", "pnglite", "magic16")


def template_text(name: str) -> str:
    ref = resources.files(__package__) / "templates" / f"{name}.bt"
    return ref.read_text()


def resolve_template(spec: str) -> tuple[str, str]:
    """Map a --template argument to (name, source text).

    Accepts a bundled template name or a path to a .bt file.
    """
    if spec in BUNDLED:
        return spec, template_text(spec)
    path = Path(spec)
    if path.is_file():
        try:
            return path.stem, path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise TemplateError(f"{spec}: not UTF-8 text (byte {exc.start})") from None
    raise FileNotFoundError(
        f"{spec!r} is neither a bundled template ({', '.join(BUNDLED)}) nor a file")


@lru_cache(maxsize=None)
def load_template(spec: str) -> TemplateUnit:
    name, text = resolve_template(spec)
    return parse_template(text, name)


def _mini_verdict(data: bytes) -> tuple[bool, list[str]]:
    ok, violation = verify_mini(data)
    return ok, [] if violation is None else [violation]


VERIFIERS = {
    "mini": _mini_verdict,
    "pnglite": verify_pnglite,
}


def verify(name: str, data: bytes) -> tuple[bool, list[str]]:
    """Uniform oracle entry point: (valid, violations)."""
    verifier = VERIFIERS.get(name)
    if verifier is None:
        raise KeyError(f"no oracle for format {name!r}; have {sorted(VERIFIERS)}")
    return verifier(data)


__all__ = [
    "BUNDLED",
    "VERIFIERS",
    "adler32",
    "load_template",
    "resolve_template",
    "template_text",
    "verify",
    "verify_mini",
    "verify_pnglite",
]
