"""Canonical report serialization for the CLI.

JSON is emitted with insertion-ordered keys and every float formatted with
17 significant digits, which round-trips doubles exactly: parsing the
output and re-serializing it reproduces the bytes.  Strings are escaped
as ``json.dumps(s, ensure_ascii=False)`` escapes them: only '"', '\\' and
the controls U+0000-U+001F, so any other character is written as itself.
CSV uses the same float formatting.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring
from typing import Any

from .expr import Refused

__all__ = ["format_float", "dumps_canonical"]


def format_float(x: float) -> str:
    if not math.isfinite(x):
        # Reports only ever carry finite numbers; fail loudly otherwise.
        raise Refused(f"refusing to serialize non-finite value {x!r}")
    return format(x, ".17g")


def dumps_canonical(obj: Any) -> str:
    """Serialize dicts/lists/strings/numbers/bools/None deterministically."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return encode_basestring(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, dict):
        items = ",".join(f"{dumps_canonical(str(k))}:{dumps_canonical(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps_canonical(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
