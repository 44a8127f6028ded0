"""The file writer and reader: save_datum and save_witness write exactly the
bytes of ``json.dumps(doc, indent=1) + "\\n"`` of the document dict they
describe, and load_datum reads back the same data, value for value."""

import json
import math
import re

import numpy as np
import pytest

from gerbecalc import (
    BigradedCochain,
    Cochain,
    Cover,
    FormatError,
    GerbeDatum,
    GerbecalcError,
    TotalCochain,
    build_gerbopole,
    build_minus_one_gerbe,
    build_monopole,
    gauge_equivalent,
    gauge_shift,
)
from gerbecalc.randomdata import random_gauge_potential
from gerbecalc.rng import Lcg64
from gerbecalc.serialize import (
    FORMAT_VERSION,
    _parts_to_list,
    complex_to_dict,
    cover_to_dict,
    datum_from_dict,
    datum_to_dict,
    load_datum,
    save_datum,
    save_witness,
)

from conftest import closed_star_cover

BUILDERS = {"minus1": build_minus_one_gerbe, "monopole": build_monopole, "gerbopole": build_gerbopole}


def _written_datum(tmp_path, datum) -> str:
    path = tmp_path / "datum.json"
    save_datum(path, datum)
    text = path.read_bytes().decode("utf-8")
    assert text == json.dumps(datum_to_dict(datum), indent=1) + "\n"
    return text


def _perturbed(datum, seed):
    """The demo's --perturb-gauge shift."""
    potential = random_gauge_potential(datum.cover, datum.level + 1, Lcg64(seed), amplitude=0.5)
    return gauge_shift(datum, potential)


@pytest.mark.parametrize("winding", [1, -1, 2])
@pytest.mark.parametrize("name,m", [("minus1", 12), ("minus1", 24), ("monopole", 12), ("gerbopole", 12)])
def test_builders(tmp_path, name, m, winding):
    text = _written_datum(tmp_path, BUILDERS[name](m, winding))
    # a winding -1 builder stores -0.0, which the layout must keep
    assert ("-0.0" in text) == (winding == -1)


@pytest.mark.parametrize("name,m,seed", [("minus1", 24, 3), ("monopole", 24, 5), ("gerbopole", 12, 9)])
def test_perturbed_demos(tmp_path, name, m, seed):
    _written_datum(tmp_path, _perturbed(BUILDERS[name](m), seed))


def test_zero_datum_writes_empty_parts(tmp_path):
    text = _written_datum(tmp_path, GerbeDatum.zero(build_monopole(6).cover, 0))
    assert '"parts": []' in text


def _with_empty_component():
    datum = build_monopole(6)
    part = BigradedCochain(1, 1, {(0,): Cochain(1, {}), (1,): Cochain(1, {(0, 1): 0.25})})
    return GerbeDatum(0, TotalCochain(2, {**datum.data.parts, (1, 1): part}), datum.cover)


def test_numpy_integer_keys_save_and_load(tmp_path):
    # numpy integer keys are stored as Python ints, so the file is the plain datum's
    datum = build_monopole(12)
    parts = {
        tuple(map(np.int64, key)): BigradedCochain(
            *key, {tuple(map(np.int64, t)): c for t, c in part.components.items()}, part.angle_valued
        )
        for key, part in datum.data.parts.items()
    }
    keyed = GerbeDatum(0, TotalCochain(2, parts), datum.cover)
    save_datum(tmp_path / "keyed.json", keyed)
    save_datum(tmp_path / "plain.json", datum)
    assert (tmp_path / "keyed.json").read_bytes() == (tmp_path / "plain.json").read_bytes()
    assert load_datum(tmp_path / "keyed.json") == keyed == datum


def test_part_with_an_empty_component(tmp_path):
    text = _written_datum(tmp_path, _with_empty_component())
    assert '"entries": []' in text


def test_witness_of_gauge_equivalent(tmp_path):
    datum = build_monopole(12)
    result = gauge_equivalent(datum, _perturbed(datum, 4))
    assert result.equivalent
    path = tmp_path / "witness.json"
    save_witness(path, datum.cover, result.witness)
    doc = {
        "format_version": FORMAT_VERSION,
        "complex": complex_to_dict(datum.cover.complex),
        "cover": cover_to_dict(datum.cover),
        "witness": {
            "degree": result.witness.data.total_degree,
            "parts": _parts_to_list(result.witness.data),
        },
    }
    assert path.read_bytes().decode("utf-8") == json.dumps(doc, indent=1) + "\n"


def test_icosahedron_star_cover(tmp_path, icosahedron):
    zero = GerbeDatum.zero(closed_star_cover(icosahedron), 0)
    _written_datum(tmp_path, _perturbed(zero, 11))


def test_vertex_count_far_above_the_ids(tmp_path):
    doc = datum_to_dict(build_monopole(6))
    doc["complex"]["vertex_count"] = 10**13
    text = _written_datum(tmp_path, datum_from_dict(doc))
    assert '"vertex_count": 10000000000000,' in text


@pytest.mark.parametrize(
    "sets",
    [[[], "all", []], [[], "all"], ["all", []], [[], [], "all", [0, 1], [], []]],
    ids=["first-and-last", "first", "last", "runs"],
)
def test_cover_with_empty_sets(tmp_path, icosahedron, sets):
    cover = Cover.build(icosahedron, [range(12) if s == "all" else s for s in sets])
    text = _written_datum(tmp_path, _perturbed(GerbeDatum.zero(cover, 0), 2))
    assert text.count(" []") >= sets.count([])


def _broken(change):
    """The document of ``build_monopole(6)`` after ``change``.  Its parts are
    (0, 2) on (0, 1), (1, 1) on (1,) and (2, 0) on (), in that order."""
    doc = datum_to_dict(build_monopole(6))
    change(doc)
    return doc


def _components(doc, i):
    return doc["datum"]["parts"][i]["components"]


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda d: d["complex"].__setitem__("simplices", []), "complex.simplices: expected an object"),
        (
            lambda d: d["complex"]["simplices"].__setitem__("x", []),
            "complex.simplices: bad dimension key 'x'",
        ),
        # only the canonical decimal form: int() would read each of these as a dimension
        *(
            (
                lambda d, key=key: d["complex"]["simplices"].__setitem__(key, []),
                f"complex.simplices: bad dimension key {re.escape(repr(key))}",
            )
            for key in (" 2", "+2", "02", "\uff12", "1_0", "-0")
        ),
        # "01" would otherwise replace the cells of "1"
        (
            lambda d: d["complex"]["simplices"].__setitem__("01", d["complex"]["simplices"]["1"]),
            "complex.simplices: bad dimension key '01'",
        ),
        (
            lambda d: d["complex"]["simplices"].__setitem__("0", {}),
            "complex.simplices.0: expected a list",
        ),
        (lambda d: d["complex"]["simplices"]["0"].__setitem__(0, 5), "complex: cell 5: ids must be integers"),
        (lambda d: d["cover"].__setitem__("sets", {}), "cover.sets: expected a list"),
        (lambda d: d["datum"].__setitem__("parts", {}), "datum.parts: expected a list"),
        (
            lambda d: d["datum"]["parts"].append(d["datum"]["parts"][0]),
            r"datum.parts\[3\]: duplicate bidegree \(0,2\)",
        ),
        (
            lambda d: d["datum"]["parts"][1].__setitem__("components", {}),
            r"datum.parts\[1\].components: expected a list",
        ),
        (
            lambda d: _components(d, 1).append(_components(d, 1)[0]),
            r"datum.parts\[1\].components\[1\]: duplicate indices \(1,\)",
        ),
        (
            lambda d: _components(d, 1)[0].__setitem__("entries", {}),
            r"datum.parts\[1\].components\[0\].entries: expected a list",
        ),
        # the Cochain, BigradedCochain and TotalCochain refusals, each wrapped with its path
        (
            lambda d: _components(d, 1)[0]["entries"][0].__setitem__("simplex", [0]),
            r"datum.parts\[1\].components\[0\]: key \(0,\) is not a 1-cell",
        ),
        (
            lambda d: _components(d, 0)[0].__setitem__("indices", [1, 0]),
            r"datum.parts\[0\]: component key \(1, 0\) is not strictly increasing",
        ),
        (
            lambda d: d["datum"]["parts"].append({"p": 0, "n": 1, "components": []}),
            r"datum.parts: part at \(0,1\) does not match total degree 2",
        ),
        (
            lambda d: d["datum"].__setitem__("angle_part", [0, 2, 0]),
            r"datum.angle_part: expected \[p, n\]",
        ),
        (
            lambda d: d["datum"].__setitem__("angle_part", [1, 1]),
            r"datum.parts\[1\]: only 0-form layers can be angle-valued",
        ),
        # the GerbeDatum and support refusals, named for the datum
        (lambda d: d["datum"].pop("angle_part"), "datum: the transition layer must be angle-valued"),
        (
            lambda d: _components(d, 1)[0].__setitem__("indices", [7]),
            r"datum: part \(1,1\) component \(7,\) does not fit 2 sets",
        ),
        (
            lambda d: _components(d, 1)[0].__setitem__("indices", [-1]),
            r"datum.parts\[1\]: component key \(-1,\) is not strictly increasing",
        ),
        (
            lambda d: _components(d, 2)[0]["entries"][0].__setitem__("simplex", [0, 1, 99]),
            r"datum: part \(2,0\) component \(\) spills outside its overlap at \(0, 1, 99\)",
        ),
        # an unflagged transition layer listed after a part that spills: the angle
        # rule is checked on every part before any is placed
        (
            lambda d: (
                d["datum"].pop("angle_part"),
                _components(d, 2)[0]["entries"][0].__setitem__("simplex", [0, 1, 99]),
                d["datum"]["parts"].reverse(),
            ),
            "datum: the transition layer must be angle-valued",
        ),
    ],
    ids=[
        "simplices-not-object", "dimension-key", "dimension-key-space", "dimension-key-plus",
        "dimension-key-zero-padded", "dimension-key-fullwidth", "dimension-key-underscore",
        "dimension-key-minus-zero", "dimension-key-twice", "cells-not-list", "cell-not-a-list",
        "sets-not-list",
        "parts-not-list",
        "duplicate-bidegree", "components-not-list", "duplicate-indices", "entries-not-list",
        "simplex-length", "indices-order", "total-degree", "angle-part-length",
        "angle-part-not-a-0-form", "no-angle-part", "component-past-the-sets", "negative-index",
        "simplex-outside-the-complex", "unflagged-transition-after-a-spill",
    ],
)
def test_malformed_documents_are_refused_with_their_path(change, message):
    with pytest.raises(FormatError, match=f"^{message}$"):
        datum_from_dict(_broken(change))


# the values a mutation puts at a path of a document
MUTATION_ATOMS = [5, 0.5, True, None, "a", [], [[0]], {}, 10**30, 2**63, math.nan]


def _paths(value, path=()):
    """The path of the value and of everything inside it, in document order."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from _paths(inner, (*path, key))


def _changed(doc, path, change):
    """A copy of ``doc`` that shares all but the containers on ``path`` with it,
    and in which ``change(container, key)`` has acted on the last of them."""
    copy, (key, *rest) = doc.copy(), path
    if rest:
        copy[key] = _changed(doc[key], rest, change)
    else:
        change(copy, key)
    return copy


def _mutated(doc, paths, rng):
    """The document with one mutation at a random path: most often a value set
    to one of ``MUTATION_ATOMS``, otherwise a key or an item dropped, or a list
    item repeated."""
    path, kind = paths[rng.randint(0, len(paths) - 1)], rng.randint(0, 9)
    if not path:
        return MUTATION_ATOMS[rng.randint(0, len(MUTATION_ATOMS) - 1)]
    if kind < 7:
        atom = MUTATION_ATOMS[rng.randint(0, len(MUTATION_ATOMS) - 1)]
        return _changed(doc, path, lambda c, key: c.__setitem__(key, atom))
    if kind < 9:
        return _changed(doc, path, lambda c, key: c.pop(key))
    # on a dict, repeating an item would only set it again
    return _changed(doc, path, lambda c, key: c.insert(key, c[key]) if isinstance(c, list) else c.pop(key))


def test_mutated_documents_load_or_are_refused():
    docs = [datum_to_dict(build) for build in (build_monopole(6), build_gerbopole(6), build_minus_one_gerbe(12))]
    paths = [list(_paths(doc)) for doc in docs]
    rng, outcomes = Lcg64(2029), {"loaded": 0, "refused": 0}
    for _ in range(2000):
        i = rng.randint(0, len(docs) - 1)
        doc = _mutated(docs[i], paths[i], rng)
        try:
            datum_from_dict(doc)
        except GerbecalcError:
            outcomes["refused"] += 1
        else:
            outcomes["loaded"] += 1
    # both outcomes occur, so neither the loader nor the mutations are trivial
    assert min(outcomes.values()) > 50, outcomes


def _hexed(total):
    """Each part's flag and each value as float.hex, so -0.0 and 0.0 differ."""
    return {
        key: (part.angle_valued, {t: {cell: v.hex() for cell, v in comp.values.items()}
                                  for t, comp in part.components.items()})
        for key, part in total.parts.items()
    }


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_monopole(12), lambda: build_monopole(12, -1),
        lambda: build_gerbopole(12), lambda: build_gerbopole(12, -1),
        lambda: GerbeDatum.zero(build_monopole(6).cover, 0), _with_empty_component,
    ],
    ids=["monopole", "monopole-w-1", "gerbopole", "gerbopole-w-1", "zero", "empty-component"],
)
def test_loaded_data_are_the_written_data_bit_for_bit(tmp_path, build):
    # a loaded datum decodes its dict form from the file's arrays on first read
    datum, path = build(), tmp_path / "datum.json"
    save_datum(path, datum)
    loaded = load_datum(path)
    assert loaded.data == datum.data
    assert _hexed(loaded.data) == _hexed(datum.data)
    assert list(loaded.data.parts) == list(datum.data.parts)
    save_datum(tmp_path / "again.json", loaded)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()

