"""The package's one plain-text codec.

Every file sievesim writes is text with floats at 17 significant digits, so
reading a file back reproduces its numbers bit for bit:

* columnar files (test functions, datasets, fitted estimators): a
  ``# sievesim <kind> v1`` line, one ``# key=value ...`` header line, a
  ``# columns: ...`` comment, then one whitespace-separated row per record;
* result tables: comma-separated rows of a dataclass's fields under a header
  naming them.
"""

from __future__ import annotations

import dataclasses

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


def kernel_from_fields(fields: dict[str, str]) -> KernelSpec:
    nu = None if fields["nu"] == "-" else float(fields["nu"])
    return KernelSpec(fields["family"], int(fields["dim"]), nu=nu,
                      lengthscale=float(fields["lengthscale"]))


def write_table(path, kind: str, fields: dict, columns: str, table) -> None:
    """Write a columnar file; ``None`` header values are written as ``-``."""
    with open(path, "w", newline="\n") as fh:
        fh.write(f"# sievesim {kind} v1\n")
        fh.write("# " + " ".join(f"{k}={_token(v)}" for k, v in fields.items()) + "\n")
        fh.write(f"# columns: {columns}\n")
        for row in table:
            fh.write(" ".join(fmt(v) for v in row) + "\n")


def read_table(path, kind: str) -> tuple[dict[str, str], np.ndarray]:
    """Header fields (as text) and the numeric rows of a columnar file."""
    with open(path) as fh:
        first = fh.readline()
        if f"{kind} v1" not in first:
            raise ValueError(f"not a sievesim {kind} file: {first.strip()!r}")
        tokens = fh.readline().lstrip("#").split()
        fh.readline()  # column comment
        fields = dict(t.split("=", 1) for t in tokens if "=" in t)
        return fields, np.loadtxt(fh, ndmin=2)


def csv_text(cls, rows) -> str:
    """A header naming the fields of dataclass ``cls``, then one line per row."""
    lines = [",".join(f.name for f in dataclasses.fields(cls))]
    lines += [",".join(_token(v) for v in dataclasses.astuple(row)) for row in rows]
    return "\n".join(lines) + "\n"


def read_csv(path, cls) -> list:
    """Rows written by :func:`csv_text`, parsed back into ``cls`` instances."""
    fields = dataclasses.fields(cls)
    with open(path) as fh:
        header = fh.readline().strip()
        if header != ",".join(f.name for f in fields):
            raise ValueError(f"unexpected CSV header: {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return [cls(*(_CSV_TYPES[f.type](v) for f, v in zip(fields, row, strict=True)))
            for row in rows]
