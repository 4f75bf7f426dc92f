"""The package's one plain-text codec.

Every file sievesim writes is text with floats at 17 significant digits, so
reading a file back reproduces its numbers bit for bit:

* columnar files (test functions, datasets, fitted estimators): the exact
  line ``# sievesim <kind> v1``, one ``# key=value ...`` header line, a
  ``# columns: ...`` comment, then one whitespace-separated row per record; a
  header with a ``dim`` and a row count (``n`` or ``n_centers``) needs exactly
  that many rows of ``dim + 1`` columns to load, and a ``relu`` estimator
  needs one row of one column per parameter that its ``dim`` and ``hidden``
  give; every number in the header and the body must be finite, except a
  ``relu`` header's ``max_param=inf`` (no weight bound); a file that breaks
  these rules, or lacks a header key that a reader needs, raises ``ValueError``
  naming the file (and the key, or a non-finite number's 1-based line);
* result tables: comma-separated rows of a dataclass's fields under a header
  naming them, or a JSON document of them, with floats in shortest round-trip
  form and ``null`` for a non-finite one.

``None`` is written as ``-``, which :meth:`_Header.optional` reads back as None.
"""

from __future__ import annotations

import dataclasses
import io
import json
import math

import numpy as np

from .kernels import KernelSpec

# Result-table field types, keyed by annotation text: the result dataclasses
# use postponed annotations, so ``Field.type`` is a string.
_CSV_TYPES = {"str": str, "int": int, "float": float}


def fmt(x) -> str:
    """A float at 17 significant digits, which reads back as the same double."""
    return format(float(x), ".17g")


def _token(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, (float, np.floating)):
        return fmt(value)
    return str(value)


def kernel_fields(spec: KernelSpec) -> dict:
    """Header fields that identify a kernel."""
    return {"family": spec.family, "dim": spec.dim, "nu": spec.nu,
            "lengthscale": float(spec.lengthscale)}


def kernel_from_fields(fields: _Header) -> KernelSpec:
    return KernelSpec(fields["family"], int(fields["dim"]), nu=fields.optional("nu", float),
                      lengthscale=float(fields["lengthscale"]))


def write_table(path, kind: str, fields: dict, columns: str, table) -> None:
    """Write a columnar file; ``None`` header values are written as ``-``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# sievesim {kind} v1\n")
        fh.write("# " + " ".join(f"{k}={_token(v)}" for k, v in fields.items()) + "\n")
        fh.write(f"# columns: {columns}\n")
        for row in table:
            fh.write(" ".join(fmt(v) for v in row) + "\n")


class _Header(dict):
    """A columnar file's header fields; reading a key it lacks raises ``ValueError``."""

    def __missing__(self, key):
        raise ValueError(f"the header has no {key}= field")

    def optional(self, key: str, cast):
        """Field ``key`` through ``cast``, or None where it was written as ``-``."""
        return None if self[key] == "-" else cast(self[key])


def _check_finite(key: str, value: str) -> None:
    """Refuse a header value that reads as a float but is not finite.  ``max_param=inf``
    is the one exception: a ReLU sieve without a weight bound."""
    try:
        number = float(value)
    except ValueError:
        return
    if not math.isfinite(number) and not (key == "max_param" and number == math.inf):
        raise ValueError(f"the header's {key}={value} is not finite")


def _read_text(path) -> str:
    """The file at ``path`` decoded as UTF-8; a byte that is not UTF-8 text raises
    ``ValueError`` naming the file and the 1-based line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:  # a UnicodeDecodeError is a ValueError
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, line {line}: {exc}") from None


def read_table(path, kind: str, build):
    """``build(fields, rows)`` of the columnar file at ``path``: its header fields (as
    text) and its numeric rows.  A file that is not UTF-8 text, a header or body that
    breaks the rules in the module docstring (a non-finite body number is named by its
    1-based line), and a ``ValueError`` from ``build`` raise ``ValueError`` naming the
    file."""
    text = _read_text(path)
    try:
        with io.StringIO(text, newline=None) as fh:  # universal newlines, as open()
            first = fh.readline().rstrip("\n")
            if first != f"# sievesim {kind} v1":
                raise ValueError(f"not a sievesim {kind} v1 file: {first!r}")
            tokens = fh.readline().lstrip("#").split()
            fields = _Header(t.split("=", 1) for t in tokens if "=" in t)
            for key, value in fields.items():
                _check_finite(key, value)
            fh.readline()  # column comment
            body = [(number, line) for number, line in enumerate(fh, 4)
                    if line.split("#", 1)[0].strip()]
        if not body:  # no file kind loads one, and loadtxt warns on it
            raise ValueError("the body has 0 rows")
        data = np.loadtxt([line for _, line in body], ndmin=2)
        finite = np.isfinite(data).all(axis=1)
        if not finite.all():
            raise ValueError(f"line {body[np.argmin(finite)][0]}: a number that is not finite")
        rows = fields.get("n", fields.get("n_centers"))
        if rows is not None and "dim" in fields:
            shape = (int(rows), int(fields["dim"]) + 1)
            if data.shape != shape:
                raise ValueError(f"the header gives {shape[0]} rows of {shape[1]} columns, "
                                 f"the body has {data.shape[0]} rows of {data.shape[1]}")
        return build(fields, data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def csv_text(cls, rows) -> str:
    """A header naming the fields of dataclass ``cls``, then one line per row."""
    lines = [",".join(f.name for f in dataclasses.fields(cls))]
    lines += [",".join(_token(v) for v in dataclasses.astuple(row)) for row in rows]
    return "\n".join(lines) + "\n"


def json_text(**tables) -> str:
    """One JSON document mapping each keyword to its list of dataclass rows."""
    doc = {name: [{key: None if isinstance(value, float) and not math.isfinite(value) else value
                   for key, value in dataclasses.asdict(row).items()} for row in rows]
           for name, rows in tables.items()}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def read_csv(path, cls) -> list:
    """Rows written by :func:`csv_text`, parsed back into ``cls`` instances; a line that
    is not UTF-8 text or not such a row raises ``ValueError`` naming the file and line."""
    fields = dataclasses.fields(cls)
    rows = []
    for number, line in enumerate(_read_text(path).split("\n"), 1):
        line = line.strip()
        try:
            if number == 1 and line != ",".join(f.name for f in fields):
                raise ValueError(f"unexpected CSV header: {line!r}")
            if number > 1 and line:
                values = line.split(",")
                if len(values) != len(fields):
                    raise ValueError(f"{len(values)} fields, the header names {len(fields)}")
                rows.append(cls(*map(_csv_value, fields, values)))
        except ValueError as exc:
            raise ValueError(f"{path}, line {number}: {exc}") from None
    return rows


def _csv_value(field: dataclasses.Field, text: str):
    try:
        return _CSV_TYPES[field.type](text)
    except ValueError as exc:
        raise ValueError(f"field {field.name}: {exc}") from None
