"""One file format for every serializable type: sorted keys, indent 2, final newline."""

import json


class JsonFile:
    """save and load on top of a class's to_json and from_json."""

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))
