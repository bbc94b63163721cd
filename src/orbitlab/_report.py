"""report.json's text: ``json.dumps(report, sort_keys=True, indent=2)`` in one pass.

With ``indent`` set, ``json.dumps`` falls back to the pure-Python encoder,
which costs more than this walk.  The text is the same byte for byte: keys
sorted, two-space indent, ASCII escapes from ``json``'s own string encoder,
``repr`` for floats and ints.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _encode_str

# Recorded as ``backend`` in every report.json: the dense kernels'
# implementation, named here so that a sparse run need not load them.
BACKEND = "fallback"


def json_text(report: dict) -> str:
    """``json.dumps(report, sort_keys=True, indent=2)``, byte for byte.

    Keys must be strings (another key raises ``TypeError``).  A non-finite
    float, which strict JSON cannot spell, raises ``ArithmeticError``.
    """
    out: list[str] = []
    _emit(report, "", out)
    return "".join(out)


def _emit(obj, pad: str, out: list[str]) -> None:
    """Append ``obj``'s text to ``out``, testing types in ``json.dumps``'s order."""
    if isinstance(obj, str):
        out.append(_encode_str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ArithmeticError(f"{obj} has no JSON spelling")
        out.append(float.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for value in obj:
            out.append(sep)
            _emit(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(obj):
            out.append(sep)
            out.append(_encode_str(key))
            out.append(": ")
            _emit(obj[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
