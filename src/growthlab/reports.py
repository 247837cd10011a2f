"""Report serialization: deterministic JSON plus a CSV mirror for counts.

Identical inputs must produce byte-identical JSON apart from the
``timestamp`` field, so keys are sorted and floats use repr formatting.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import asdict, is_dataclass
from datetime import datetime, timezone

from .groups import Word


def jsonable(obj):
    """Recursively convert package objects to plain JSON-ready values."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(asdict(obj))
    if isinstance(obj, Word):
        return str(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, float):
        if math.isinf(obj):
            return "infinite"
        return obj
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    return str(obj)


def render_json(payload: dict, timestamp: bool = True) -> str:
    body = dict(jsonable(payload))
    if timestamp:
        body["timestamp"] = datetime.now(timezone.utc).isoformat()
    return json.dumps(body, sort_keys=True, indent=2) + "\n"


def growth_records(cumulative, rate: float) -> list[dict]:
    """Per-radius {radius, count, rate_estimate} records for ball sizes 0..r."""
    return [{"radius": r, "count": c, "rate_estimate": rate}
            for r, c in enumerate(cumulative)]


def render_csv(records: list[dict]) -> str:
    if not records:
        return ""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(records[0].keys()))
    writer.writeheader()
    for row in records:
        writer.writerow(row)
    return buf.getvalue()


def flatten_for_csv(payload: dict, prefix: str = "") -> list[dict]:
    """Fallback CSV shape: key,value rows from a nested report."""
    rows = []
    for k, v in sorted(jsonable(payload).items()):
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            rows.extend(flatten_for_csv(v, prefix=key + "."))
        else:
            rows.append({"key": key, "value": json.dumps(v)})
    return rows


def write_text(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")
