"""Output checks against certificates, not bits.

An operation passes when its invariant row (if any) passed, its values
are finite, its certificate does not exceed the accuracy the workload
requested, and every value lies within the sum of its own radius and the
reference's radius of the stored reference (plus a rounding slack).  The
series term count is not compared, so a solver that needs fewer terms but
stays inside its certificate passes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"
SLACK = 1e-9  # rounding: relative to max(1, |reference value|)


def load_reference(path=REFERENCE) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _problem(rec, ref):
    if rec is None:
        return "missing from the output"
    if not rec["passed"]:
        return "invariant row failed"
    if ref.get("value") is None:
        return None
    value = np.asarray(rec["value"], dtype=float)
    radius = np.asarray(rec["radius"], dtype=float)
    want = np.asarray(ref["value"], dtype=float)
    if value.shape != want.shape:
        return f"shape {value.shape} differs from the reference {want.shape}"
    if not (np.all(np.isfinite(value)) and np.all(np.isfinite(radius))):
        return "non-finite value or certificate"
    limit = ref.get("limit")
    if limit is not None and radius.max() > limit * (1.0 + 1e-12):
        return f"certificate {radius.max():.3e} exceeds the requested {limit:.1e}"
    tol = radius + np.asarray(ref["radius"]) + SLACK * np.maximum(1.0, np.abs(want))
    off = np.abs(value - want) - tol
    if np.any(off > 0.0):
        i = int(np.argmax(off))
        return (f"value {value[i]!r} is {abs(value[i] - want[i]):.3e} from the "
                f"reference {want[i]!r}; tolerance {tol[i]:.3e}")
    return None


def check(records, reference):
    """Return (attempted, failed, messages) for one workload's records."""
    by_id = {r["id"]: r for r in records}
    messages = [f"{op_id}: {why}" for op_id, ref in reference.items()
                if (why := _problem(by_id.get(op_id), ref))]
    messages += [f"{op_id}: not in the reference" for op_id in by_id
                 if op_id not in reference]
    attempted = len(reference) + sum(op_id not in reference for op_id in by_id)
    return attempted, len(messages), messages
