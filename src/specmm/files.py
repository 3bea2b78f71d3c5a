"""Instance and report files.

Instances are JSON objects with declared dimensions and row-major payoff
matrices; loading converts and checks the whole matrix list at once, walks
it matrix by matrix only to name the first offending field or to log an
asymmetry, and stores the family as one ``InstanceSet`` stack. Reports are
flat JSON objects written on one line, whose floats round-trip bit-exactly
(shortest exact decimal form, up to 17 significant digits); reports written
indented by earlier versions load the same way.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from itertools import chain

import numpy as np

from . import __version__
from .domains import InstanceSet
from .saddle import SaddleCertificate

__all__ = [
    "InstanceFormatError",
    "Report",
    "load_instance",
    "parse_instance",
    "report_from_certificate",
    "report_to_json",
    "report_from_json",
    "report_to_text",
]

logger = logging.getLogger(__name__)

# max |A - A^T| entry above which a matrix is logged, and rejected
_ASYMMETRY_WARN = 1e-9
_ASYMMETRY_ERROR = 1e-6


class InstanceFormatError(ValueError):
    """Malformed instance data; the message names the first bad field."""


def _numeric(raw) -> np.ndarray:
    # a product, not a cast: a cast would read the strings "1" and "0" as numbers
    arr = np.asarray(np.asarray(raw) * 1.0, dtype=float)
    # either would read JSON true and false as 1 and 0, so the entries' types are walked
    # where one could hide, at an exact 0 or 1
    if not ((arr == 0.0) | (arr == 1.0)).any():
        return arr
    entries = [raw]
    for _ in range(arr.ndim):
        entries = chain.from_iterable(entries)
    if bool in map(type, entries):
        raise TypeError("booleans are not numbers")
    return arr


def _matrix(i: int, raw, n: int) -> np.ndarray:
    """matrices[i] as an (n, n) float array, checked in the order parse_instance
    documents; raises naming matrices[i] at its first fault, and logs an asymmetry
    above the warning gate."""
    try:
        arr = _numeric(raw)
    except (TypeError, ValueError):
        raise InstanceFormatError(f"matrices[{i}] is not numeric") from None
    except OverflowError:  # an integer beyond the float range
        raise InstanceFormatError(f"matrices[{i}] is not finite") from None
    if arr.shape != (n, n):
        raise InstanceFormatError(
            f"matrices[{i}] has shape {'x'.join(map(str, arr.shape))}, expected {n}x{n}"
        )
    if not np.isfinite(arr + arr.T).all():
        raise InstanceFormatError(f"matrices[{i}] is not finite once symmetrised")
    asym = float(np.abs(arr - arr.T).max())
    if asym > _ASYMMETRY_ERROR:
        raise InstanceFormatError(
            f"matrices[{i}] asymmetry {asym:.3e} exceeds {_ASYMMETRY_ERROR:.0e}"
        )
    if asym > _ASYMMETRY_WARN:
        logger.warning("matrices[%d] asymmetry %.3e symmetrized away", i, asym)
    return arr


def parse_instance(doc: object) -> tuple[InstanceSet, list[str] | None]:
    """Validate a decoded instance document and build the matrix family.

    Expected shape: {"n": int, "m": int, "matrices": [[[row], ...], ...]}
    with an optional "labels" list. Entries must be JSON numbers; strings
    and booleans are not read as numbers. Matrices are symmetrized on
    ingestion, and one whose (A + A^T)/2 overflows is an error; asymmetry
    above 1e-6 (max absolute difference against the transpose) is an
    error, above 1e-9 a logged warning.
    """
    if not isinstance(doc, dict):
        raise InstanceFormatError("top level must be an object")
    for field in ("n", "m", "matrices"):
        if field not in doc:
            raise InstanceFormatError(f"missing field {field!r}")
    n, m = doc["n"], doc["m"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise InstanceFormatError(f"field 'n' must be a positive integer, got {n!r}")
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise InstanceFormatError(f"field 'm' must be a positive integer, got {m!r}")
    mats = doc["matrices"]
    if not isinstance(mats, list):
        raise InstanceFormatError("field 'matrices' must be a list")
    if len(mats) != m:
        raise InstanceFormatError(f"field 'matrices' has {len(mats)} entries, declared m={m}")
    # A - A^T and (A + A^T)/2 can overflow where A is finite; that shows as inf or NaN,
    # not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            stack = _numeric(mats)
            tidy = stack.shape == (m, n, n) and (
                np.abs(stack - stack.transpose(0, 2, 1)) <= _ASYMMETRY_WARN).all()
            # InstanceSet checks the symmetrised stack finite
            inst = InstanceSet(stack) if tidy else None
        except (TypeError, ValueError, OverflowError):
            inst = None
        if inst is None:
            # only the walk names the first bad matrix, and raises or logs there
            inst = InstanceSet(np.array([_matrix(i, raw, n) for i, raw in enumerate(mats)]))
    labels = doc.get("labels")
    if labels is not None:
        if not isinstance(labels, list) or len(labels) != m or not all(
            isinstance(s, str) for s in labels
        ):
            raise InstanceFormatError(f"field 'labels' must be a list of {m} strings")
    return inst, labels


def _read_json(path: str) -> object:
    """Decode a JSON file; malformed JSON is an InstanceFormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON: {exc}") from None


def load_instance(path: str) -> tuple[InstanceSet, list[str] | None]:
    """Read and validate an instance file."""
    return parse_instance(_read_json(path))


@dataclass(frozen=True)
class Report:
    """Flat result record for one solve, sufficient to recheck the bounds."""

    value: float
    upper: float
    lower: float
    gap: float
    converged: bool
    iterations: int
    x_bar: list
    y_bar: list
    tool_version: str


def report_from_certificate(cert: SaddleCertificate) -> Report:
    return Report(
        value=cert.midpoint,
        upper=cert.upper,
        lower=cert.lower,
        gap=cert.gap,
        converged=cert.converged,
        iterations=cert.iterations,
        x_bar=cert.x_bar.array.tolist(),
        y_bar=cert.y_bar.weights.tolist(),
        tool_version=__version__,
    )


def report_to_json(report: Report) -> str:
    """The report's own field dict as one line of JSON, by the standard library's C
    encoder, which leaves no reference cycles; floats use their shortest exact decimal
    form, so loading the text reproduces every scalar bit for bit."""
    return json.dumps(vars(report)) + "\n"


def report_from_json(text: str) -> Report:
    doc = json.loads(text)
    try:
        return Report(**doc)
    except TypeError as exc:
        raise InstanceFormatError(f"malformed report: {exc}") from None


def report_to_text(report: Report) -> str:
    """Human-oriented rendering; numbers are printed in the same exact
    form the JSON rendering uses."""
    lines = [
        f"value       {report.value!r}",
        f"upper       {report.upper!r}",
        f"lower       {report.lower!r}",
        f"gap         {report.gap!r}",
        f"converged   {report.converged}",
        f"iterations  {report.iterations}",
        f"y_bar       {' '.join(repr(v) for v in report.y_bar)}",
        "x_bar",
    ]
    for row in report.x_bar:
        lines.append("  " + " ".join(repr(v) for v in row))
    lines.append(f"tool        specmm {report.tool_version}")
    return "\n".join(lines) + "\n"
