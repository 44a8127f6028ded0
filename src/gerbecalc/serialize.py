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

A datum loads straight into coordinates: each part is read in one bulk pass
(``_read_part``) and placed with one ``_LayerBasis.find``, and its dict form is
decoded only when ``data`` is first read.
"""

from __future__ import annotations

import json
import math
import operator
import os
from itertools import accumulate, chain
from typing import Any, Iterable

import numpy as np

from .bicomplex import BigradedCochain, GaugePotential, TotalCochain
from .cover import Cover
from .deligne import GerbeDatum
from .errors import FormatError, GerbecalcError
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


def _named(path: str, build, *args):
    """``build(*args)``, its refusal named with the path; any other error passes."""
    try:
        return build(*args)
    except GerbecalcError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _of_type(values: Iterable, kinds) -> bool:
    """Whether each value is an instance of ``kinds`` and no bool: one test per type."""
    return all(issubclass(ty, kinds) and not issubclass(ty, bool) for ty in {*map(type, values)})


def _int(value: Any, path: str) -> int:
    if not _of_type([value], int):
        raise FormatError(f"{path}: expected an integer, got {value!r}")
    return value


def _int_list(value: Any, path: str) -> list[int]:
    if not isinstance(value, list):
        raise FormatError(f"{path}: expected a list")
    return [_int(v, f"{path}[{i}]") for i, v in enumerate(value)]


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
        except (TypeError, ValueError):
            q = None
        if key != str(q):  # int() also reads " 2", "+2", "02", "1_0" and other digits
            raise FormatError(f"{path}.simplices: bad dimension key {key!r}")
        if not isinstance(cells, list):
            raise FormatError(f"{path}.simplices.{key}: expected a list")
        table[q] = cells
    return _named(path, SimplicialComplex.build, vertex_count, table)


def cover_to_dict(cover: Cover) -> dict:
    return {"sets": [sorted(s) for s in cover.sets]}


def cover_from_dict(
    doc: Any, complex: SimplicialComplex, path: str = "cover"
) -> Cover:
    raw = _need(doc, "sets", path)
    if not isinstance(raw, list):
        raise FormatError(f"{path}.sets: expected a list")
    return _named(path, Cover.build, complex, raw)


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


def _column(docs: list, key: str, kinds) -> list | None:
    """``doc[key]`` of each of the objects ``docs``, if each has the key and each
    of those values is an instance of ``kinds``; otherwise None."""
    try:
        found = list(map(operator.itemgetter(key), docs))
    except KeyError:
        return None
    return found if _of_type(found, kinds) else None


def _read_part(p: int, n: int, angle: bool, comps: list, complex, path: str) -> tuple:
    """The part as ``_LayerBasis.place`` reads it, then its values, in file order.

    The checks run over whole lists and arrays, one type test per type of
    object.  When one fails, ``_first_fault`` walks the part to name the first
    fault in file order; a cell that the complex lacks is left for ``place``.
    """
    indices = lists = simplices = values = None
    if _of_type(comps, dict):
        indices, lists = _column(comps, "indices", list), _column(comps, "entries", list)
    entries = [] if lists is None else list(chain.from_iterable(lists))
    if lists is not None and _of_type(entries, dict):
        simplices, values = _column(entries, "simplex", list), _column(entries, "value", (int, float))
    try:
        values = None if values is None else np.array(values, float)
    except OverflowError:  # an int too large for a float
        values = None
    if not (
        indices is not None and simplices is not None and values is not None
        and np.isfinite(values).all() and _of_type(chain.from_iterable(indices + simplices), int)
        and p >= 0 and n >= 0 and not (angle and p)
    ):
        _first_fault(p, n, angle, comps, path)  # raises
    tuples, counts, cells = [*map(tuple, indices)], [*map(len, lists)], [*map(tuple, simplices)]
    ids = complex._cell_ids(p, cells)
    # cells of the complex are p-cells, and a component's cells in rising order, as
    # files are written, are distinct: each fall of the ids starts a component
    falls = np.flatnonzero(ids[1:] <= ids[:-1]) + 1
    if not (
        len(set(tuples)) == len(tuples)
        and all(len(t) == n and all(a < b for a, b in zip((-1, *t), t)) for t in tuples)
        and (ids < len(complex.cells(p))).all() and {*falls.tolist()} <= {*accumulate(counts)}
    ):
        _first_fault(p, n, angle, comps, path)  # passes cells in another order or not in the complex
    return tuples, counts, cells, ids, values


def _first_fault(p: int, n: int, angle: bool, comps: list, path: str) -> None:
    """Raise the refusal of the part's first fault in file order, if it has one
    other than a cell that the complex lacks.  The entries are checked one by
    one, and the cochain classes name the faults of the keys, on dicts of the
    cells with no values."""
    components = {}
    for j, comp_doc in enumerate(comps):
        cpath = f"{path}.components[{j}]"
        t = tuple(_int_list(_need(comp_doc, "indices", cpath), f"{cpath}.indices"))
        if t in components:
            raise FormatError(f"{cpath}: duplicate indices {t}")
        entries, cells = _need(comp_doc, "entries", cpath), {}
        if not isinstance(entries, list):
            raise FormatError(f"{cpath}.entries: expected a list")
        for k, entry in enumerate(entries):
            epath = f"{cpath}.entries[{k}]"
            cell = tuple(_int_list(_need(entry, "simplex", epath), f"{epath}.simplex"))
            value = _need(entry, "value", epath)
            if not _of_type([value], (int, float)):
                raise FormatError(f"{epath}.value: expected a number")
            try:
                value = float(value)
            except OverflowError:
                raise FormatError(f"{epath}.value: too large for a float") from None
            if not math.isfinite(value):
                raise FormatError(f"{epath}.value: must be finite")
            if cell in cells:
                raise FormatError(f"{epath}: duplicate simplex {cell}")
            cells[cell] = None
        components[t] = _named(cpath, Cochain, p, cells)
    _named(path, BigradedCochain, p, n, components, angle)


def _parts_from_list(raw: Any, degree: int, angle_part, complex, path: str) -> list:
    """Each part as ((p, n), angle_valued, ``_read_part`` of it), in file order."""
    if not isinstance(raw, list):
        raise FormatError(f"{path}: expected a list")
    parts = {}
    for i, part_doc in enumerate(raw):
        ppath = f"{path}[{i}]"
        p = _int(_need(part_doc, "p", ppath), f"{ppath}.p")
        n = _int(_need(part_doc, "n", ppath), f"{ppath}.n")
        if (p, n) in parts:
            raise FormatError(f"{ppath}: duplicate bidegree ({p},{n})")
        comps = _need(part_doc, "components", ppath)
        if not isinstance(comps, list):
            raise FormatError(f"{ppath}.components: expected a list")
        angle = angle_part == [p, n]
        parts[p, n] = (angle, *_read_part(p, n, angle, comps, complex, ppath))
    if any(p + n != degree for p, n in parts):  # the class names the first such part
        _named(path, TotalCochain, degree, {key: BigradedCochain.zero(*key) for key in parts})
    return [(key, *rest) for key, rest in parts.items()]


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
    parts = _parts_from_list(
        _need(datum_doc, "parts", "datum"), level + 2, angle_part, cover.complex, "datum.parts"
    )
    datum = object.__new__(GerbeDatum)  # its dict form is decoded from the parts when read
    _named("datum", datum._place, level, level + 2, cover, parts, parts)
    return datum


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
