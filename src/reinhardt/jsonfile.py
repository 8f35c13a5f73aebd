"""One file format for every serializable type: sorted keys, indent 2, final newline."""

import json


def json_text(data) -> str:
    """data as JSON text in the one file format."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


class JsonFile:
    """save and load on top of a class's to_json and from_json."""

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json_text(self.to_json()))

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))
