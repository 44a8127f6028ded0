"""JSON interchange format for complexes, covers, and cocycle data.

Top-level document, format_version 1:

    {"format_version": 1,
     "complex": {"vertex_count": V,
                 "simplices": {"0": [[0], [1], ...], "1": [[0, 1], ...], ...}},
     "cover": {"sets": [[...], ...]},
     "datum": {"level": n,
               "parts": [{"p": p, "n": n,
                          "components": [{"indices": [...],
                                          "entries": [{"simplex": [...],
                                                       "value": 0.5}, ...]}]}],
               "angle_part": [0, n + 2]}}

Floats are emitted as shortest round-trip decimals (Python repr), so
serialize/parse round-trips are bit-exact.  Witness files replace "datum"
with a "witness" object of the same parts shape plus a "degree" key.

Files are written as ``json.dump(doc, handle, indent=1)`` and a newline
would write them, byte for byte, but through the C encoder: the compact text
of each bulk array is laid out at its depth by string replacement
(``_laid_out``).  ``load_pair`` loads two files and puts the second datum on
the first file's cover when both files hold the same complex and cover.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any

from .bicomplex import BigradedCochain, GaugePotential, TotalCochain
from .cover import Cover
from .deligne import GerbeDatum
from .errors import FormatError
from .simplicial import Cochain, SimplicialComplex

FORMAT_VERSION = 1

__all__ = [
    "FORMAT_VERSION",
    "datum_to_dict",
    "datum_from_dict",
    "save_datum",
    "load_datum",
    "load_pair",
    "save_witness",
]


def _need(doc: Any, key: str, path: str) -> Any:
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected an object")
    if key not in doc:
        raise FormatError(f"{path}: missing key {key!r}")
    return doc[key]


_PLAIN_INTS = frozenset({int})  # the set of types in a list of plain ints


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _int(value: Any, path: str) -> int:
    if not _is_int(value):
        raise FormatError(f"{path}: expected an integer, got {value!r}")
    return value


def _int_list(value: Any, path: str) -> list[int]:
    if not isinstance(value, list):
        raise FormatError(f"{path}: expected a list")
    if not all(map(_is_int, value)):  # name the first bad entry; paths only on failure
        for i, v in enumerate(value):
            _int(v, f"{path}[{i}]")
    return list(value)


def complex_to_dict(complex: SimplicialComplex) -> dict:
    return {
        "vertex_count": complex.vertex_count,
        "simplices": {
            str(q): [list(s) for s in complex.cells(q)]
            for q in sorted(complex.simplices)
        },
    }


def complex_from_dict(doc: Any, path: str = "complex") -> SimplicialComplex:
    vertex_count = _int(_need(doc, "vertex_count", path), f"{path}.vertex_count")
    raw = _need(doc, "simplices", path)
    if not isinstance(raw, dict):
        raise FormatError(f"{path}.simplices: expected an object")
    table = {}
    for key, cells in raw.items():
        try:
            q = int(key)
        except ValueError:
            raise FormatError(f"{path}.simplices: bad dimension key {key!r}") from None
        if not isinstance(cells, list):
            raise FormatError(f"{path}.simplices.{key}: expected a list")
        table[q] = cells
    try:
        return SimplicialComplex.build(vertex_count, table)
    except Exception as exc:
        raise FormatError(f"{path}: {exc}") from exc


def cover_to_dict(cover: Cover) -> dict:
    return {"sets": [sorted(s) for s in cover.sets]}


def cover_from_dict(
    doc: Any, complex: SimplicialComplex, path: str = "cover"
) -> Cover:
    raw = _need(doc, "sets", path)
    if not isinstance(raw, list):
        raise FormatError(f"{path}.sets: expected a list")
    try:
        return Cover.build(complex, raw)
    except Exception as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _parts_to_list(total: TotalCochain) -> list[dict]:
    parts = []
    for (p, n) in sorted(total.parts):
        part = total.parts[(p, n)]
        components = []
        for t in sorted(part.components):
            comp = part.components[t]
            entries = [
                {"simplex": list(cell), "value": value}
                for cell, value in sorted(comp.values.items())
            ]
            components.append({"indices": list(t), "entries": entries})
        parts.append({"p": p, "n": n, "components": components})
    return parts


def _plain_entry(entry: Any) -> tuple[tuple[int, ...] | None, float]:
    """The simplex and value of an entry made of plain JSON ints and a finite
    float, or (None, 0.0) for any other entry; it builds no path."""
    if type(entry) is dict:
        cell, value = entry.get("simplex"), entry.get("value")
        if type(cell) is list and type(value) is float and math.isfinite(value):
            if {*map(type, cell)} == _PLAIN_INTS:
                return tuple(cell), value
    return None, 0.0


def _checked_entry(entry: Any, path: str) -> tuple[tuple[int, ...], float]:
    """The simplex and value of an entry, or the FormatError that names its fault."""
    cell = tuple(_int_list(_need(entry, "simplex", path), f"{path}.simplex"))
    value = _need(entry, "value", path)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"{path}.value: expected a number")
    try:
        value = float(value)
    except OverflowError:
        raise FormatError(f"{path}.value: too large for a float") from None
    if not math.isfinite(value):
        raise FormatError(f"{path}.value: must be finite")
    return cell, value


def _parts_from_list(raw: Any, degree: int, angle_part, path: str) -> TotalCochain:
    if not isinstance(raw, list):
        raise FormatError(f"{path}: expected a list")
    parts = {}
    for i, part_doc in enumerate(raw):
        ppath = f"{path}[{i}]"
        p = _int(_need(part_doc, "p", ppath), f"{ppath}.p")
        n = _int(_need(part_doc, "n", ppath), f"{ppath}.n")
        if (p, n) in parts:
            raise FormatError(f"{ppath}: duplicate bidegree ({p},{n})")
        components = {}
        raw_comps = _need(part_doc, "components", ppath)
        if not isinstance(raw_comps, list):
            raise FormatError(f"{ppath}.components: expected a list")
        for j, comp_doc in enumerate(raw_comps):
            cpath = f"{ppath}.components[{j}]"
            indices = tuple(_int_list(_need(comp_doc, "indices", cpath), f"{cpath}.indices"))
            if indices in components:
                raise FormatError(f"{cpath}: duplicate indices {indices}")
            values = {}
            raw_entries = _need(comp_doc, "entries", cpath)
            if not isinstance(raw_entries, list):
                raise FormatError(f"{cpath}.entries: expected a list")
            for k, entry in enumerate(raw_entries):
                cell, value = _plain_entry(entry)
                if cell is None:
                    cell, value = _checked_entry(entry, f"{cpath}.entries[{k}]")
                if cell in values:
                    raise FormatError(f"{cpath}.entries[{k}]: duplicate simplex {cell}")
                values[cell] = value
            try:
                components[indices] = Cochain(p, values)
            except Exception as exc:
                raise FormatError(f"{cpath}: {exc}") from exc
        angle = angle_part == [p, n] or angle_part == (p, n)
        try:
            parts[(p, n)] = BigradedCochain(p, n, components, angle_valued=angle)
        except Exception as exc:
            raise FormatError(f"{ppath}: {exc}") from exc
    try:
        return TotalCochain(degree, parts)
    except Exception as exc:
        raise FormatError(f"{path}: {exc}") from exc


def datum_to_dict(datum: GerbeDatum) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "complex": complex_to_dict(datum.cover.complex),
        "cover": cover_to_dict(datum.cover),
        "datum": {
            "level": datum.level,
            "parts": _parts_to_list(datum.data),
            "angle_part": [0, datum.level + 2],
        },
    }


def _check_version(doc: Any) -> None:
    version = _int(_need(doc, "format_version", "document"), "format_version")
    if version != FORMAT_VERSION:
        raise FormatError(f"unsupported format_version {version}")


def datum_from_dict(doc: Any) -> GerbeDatum:
    _check_version(doc)
    complex = complex_from_dict(_need(doc, "complex", "document"))
    cover = cover_from_dict(_need(doc, "cover", "document"), complex)
    return _datum_on(cover, doc)


def _datum_on(cover: Cover, doc: Any) -> GerbeDatum:
    datum_doc = _need(doc, "datum", "document")
    level = _int(_need(datum_doc, "level", "datum"), "datum.level")
    angle_part = datum_doc.get("angle_part")
    if angle_part is not None:
        angle_part = _int_list(angle_part, "datum.angle_part")
        if len(angle_part) != 2:
            raise FormatError("datum.angle_part: expected [p, n]")
    data = _parts_from_list(
        _need(datum_doc, "parts", "datum"), level + 2, angle_part, "datum.parts"
    )
    try:
        return GerbeDatum(level, data, cover)
    except Exception as exc:
        raise FormatError(f"datum: {exc}") from exc


_compact = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def _int_rows(rows: list, depth: int) -> str:
    """A non-empty list of int lists as indent=1 lays it out at ``depth``."""
    i1, i2 = "\n" + " " * (depth + 1), "\n" + " " * (depth + 2)
    return "[" + i1 + (  # "[]" is an empty row; "]," and "\0," end a row, other commas an id
        _compact(rows)[1:-1].replace("[]", "\0").replace(",", "," + i2)
        .replace("]," + i2, "]," + i1).replace("\0," + i2, "\0," + i1)
        .replace("[", "[" + i2).replace("]", i1 + "]").replace("\0", "[]")
    ) + i1[:-1] + "]"


def _entries(entries: list, depth: int) -> str:
    """A non-empty list of entries, each {"simplex": [ids...], "value": x}
    with at least one id, as indent=1 lays it out at ``depth``."""
    i1, i2, i3 = ("\n" + " " * (depth + k) for k in (1, 2, 3))
    return "[" + i1 + (  # "\0" parts two entries and "\1" a simplex from its value
        _compact(entries)[1:-1].replace("},{", "}\0{").replace('],"value":', "\1")
        .replace(",", "," + i3).replace('{"simplex":[', "{" + i2 + '"simplex": [' + i3)
        .replace("\1", i2 + "]," + i2 + '"value": ').replace("}", i1 + "}")
        .replace("\0", "," + i1)
    ) + i1[:-1] + "]"


def _laid_out(value: Any, depth: int) -> str:
    """``value`` as ``json.dumps(value, indent=1)`` lays it out at ``depth``.

    That encoder is pure Python.  Here the bulk arrays, the complex's cells,
    the cover's sets and each component's entries, are the C encoder's
    compact text laid out by string replacement, with no Python per element;
    only the small skeleton around them is walked.
    """
    if not value or not isinstance(value, (dict, list)):
        return json.dumps(value)
    if isinstance(value, list) and isinstance(value[0], list):
        return _int_rows(value, depth)
    if isinstance(value, list) and isinstance(value[0], dict) and "simplex" in value[0]:
        return _entries(value, depth)
    inner = "\n" + " " * (depth + 1)
    if isinstance(value, dict):
        items, ends = [json.dumps(k) + ": " + _laid_out(v, depth + 1) for k, v in value.items()], "{}"
    else:
        items, ends = [_laid_out(v, depth + 1) for v in value], "[]"
    return ends[0] + inner + ("," + inner).join(items) + inner[:-1] + ends[1]


def _write(path: str | os.PathLike, doc: dict) -> None:
    """Write ``doc`` byte for byte as ``json.dump(doc, handle, indent=1)`` and
    a newline would."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_laid_out(doc, 0) + "\n")


def save_datum(path: str | os.PathLike, datum: GerbeDatum) -> None:
    _write(path, datum_to_dict(datum))


def _read(path: str | os.PathLike) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def load_datum(path: str | os.PathLike) -> GerbeDatum:
    return datum_from_dict(_read(path))


def load_pair(first: str | os.PathLike, second: str | os.PathLike) -> tuple[GerbeDatum, GerbeDatum]:
    """``load_datum`` of each file, in order, with the same errors.  When the
    second file's "complex" and "cover" encode to the same JSON text as the
    first's (so 1, 1.0 and true differ), its datum goes on the first's Cover,
    and one complex, cover, basis and D serve both."""
    doc = _read(first)
    datum = datum_from_dict(doc)
    other = _read(second)
    if isinstance(other, dict) and all(
        key in other and _compact(other[key]) == _compact(doc[key])
        for key in ("complex", "cover")
    ):
        _check_version(other)
        return datum, _datum_on(datum.cover, other)
    return datum, datum_from_dict(other)


def save_witness(
    path: str | os.PathLike, cover: Cover, potential: GaugePotential
) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "complex": complex_to_dict(cover.complex),
        "cover": cover_to_dict(cover),
        "witness": {
            "degree": potential.data.total_degree,
            "parts": _parts_to_list(potential.data),
        },
    }
    _write(path, doc)
