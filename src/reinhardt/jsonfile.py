"""One file format for every serializable type: sorted keys, indent 2, final newline.

json_text writes the bytes of json.dumps(data, indent=2, sort_keys=True).
With an indent json has no C encoder, so a list of equal-length flat lists of
all int (not bool) or all finite float, as in a table, fills one %-template:
%r is the int.__repr__ or float.__repr__ json writes.  Strings, None, bools,
non-finite floats, numpy scalars and anything else go through json.dumps.
"""

import json
from itertools import chain
from math import isfinite


def _rows(data: list, pad: str):
    """data through one %-template when it is a list of number rows, else None."""
    widths = set(map(len, data)) if set(map(type, data)) <= {list, tuple} else ()
    if len(widths) != 1 or 0 in widths:
        return None
    flat = tuple(chain.from_iterable(data))
    kinds = set(map(type, flat))
    if kinds != {int} and (kinds != {float} or not all(map(isfinite, flat))):
        return None
    inner = pad + "  "
    row = inner + "[\n" + ",\n".join([inner + "  %r"] * len(data[0])) + "\n" + inner + "]"
    return ("[\n" + ",\n".join([row] * len(data)) + "\n" + pad + "]") % flat


def _encode(data, pad: str) -> str:
    inner = pad + "  "
    if type(data) is dict and data and all(type(k) is str for k in data):
        items = (f"{inner}{json.dumps(k)}: {_encode(data[k], inner)}" for k in sorted(data))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if type(data) in (list, tuple) and data:
        return _rows(data, pad) or (
            "[\n" + ",\n".join(inner + _encode(v, inner) for v in data) + "\n" + pad + "]"
        )
    if isinstance(data, (dict, list, tuple)):
        # json escapes every newline inside a string, so its lines can be re-indented
        return json.dumps(data, indent=2, sort_keys=True).replace("\n", "\n" + pad)
    return json.dumps(data)  # a scalar: the indent and key order change nothing


def json_text(data) -> str:
    """data as JSON text in the one file format."""
    return _encode(data, "") + "\n"


class JsonFile:
    """save and load on top of a class's to_json and from_json."""

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json_text(self.to_json()))

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))
