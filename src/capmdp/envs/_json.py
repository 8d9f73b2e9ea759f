"""The JSON round trip shared by the environment config dataclasses."""

import json
import re
from dataclasses import asdict, fields


class JsonConfig:
    """to_json/from_json for a frozen config dataclass; JSON lists read back as tuples.

    Errors name the config after its class: FruitForageConfig reads as
    "fruit forage config".
    """

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str):
        label = re.sub(r"(?<=[a-z])(?=[A-Z])", " ", cls.__name__).lower()
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise ValueError(f"{label} must be a JSON object")
        unknown = sorted(set(doc) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown {label} fields: {', '.join(unknown)}")
        return cls(**{key: _nested_tuple(value) for key, value in doc.items()})


def _nested_tuple(value):
    if isinstance(value, list):
        return tuple(_nested_tuple(item) for item in value)
    return value
