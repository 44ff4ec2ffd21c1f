"""The one decode and the one reader of every input document: cache
payloads (`persistence`) and tess instances (`tessellation`).  This
module imports nothing from the package.
"""

import json


def _unique(pairs):
    """The object of the decoded `pairs`, refused when a key repeats:
    `json.loads` alone would keep its last copy."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise ValueError(f"key {key!r} is repeated")
            seen.add(key)
    return obj


def loads(data):
    """The document of the JSON text or bytes `data`, decoded as by
    `json.loads` but with no key repeated in any object.  A defect
    raises ValueError, or RecursionError for nesting past the
    decoder's depth."""
    return json.loads(data, object_pairs_hook=_unique)


class Reader:
    """Typed reads from a decoded document.

    Every failure raises `error` with the message "<path> <problem>",
    the path of the field written after `root` (`payload.nodes[0].gram`
    after `"<file>: payload"`, `$.tiles[2].label` after `"$"`), so a
    malformed input never surfaces as a KeyError or TypeError.
    """

    def __init__(self, error, root):
        self.error = error
        self.root = root

    def fail(self, path, problem):
        where = "".join(f"[{part}]" if isinstance(part, int) else f".{part}"
                        for part in path)
        raise self.error(f"{self.root}{where} {problem}")

    def get(self, rec, path, key, *kinds):
        if type(rec) is not dict:
            self.fail(path, "is not an object")
        if key not in rec:
            self.fail(path + (key,), "is missing")
        value = rec[key]
        if type(value) not in kinds:
            self.fail(path + (key,), "has the wrong type")
        return value

    def fields(self, rec, path, keys):
        """Refuse an object `rec` with a field outside `keys`."""
        if type(rec) is not dict:
            self.fail(path, "is not an object")
        for key in rec:
            if key not in keys:
                self.fail(path + (key,), "is not a field of this record")
        return rec

    def records(self, rec, path, key, keys):
        """(path, record) for each object in the list rec[key], each
        with no field outside `keys`."""
        return [(path + (key, i), self.fields(item, path + (key, i), keys))
                for i, item in enumerate(self.get(rec, path, key, list))]
