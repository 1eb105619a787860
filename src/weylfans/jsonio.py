"""Canonical JSON encoding shared by the library and the CLI.

Rationals serialize as "p/q" strings with positive denominator and the
fraction in lowest terms, vectors as arrays, matrices as row-major arrays
of arrays.  Field ordering is fixed by construction, so decoding an emitted
document and re-encoding it reproduces the bytes exactly.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction as Q
from typing import Mapping, Sequence

from .errors import BoundExceeded, InvalidInput
from .linalg import Vector, _dual_rows, qm, qv
from .polyhedra import Fan, cone, fan
from .rootsys import RootSystem, WeylElement, build_root_system


def digit_limit() -> int:
    """CPython's limit on the digits of an integer converted to or from a
    string (``sys.get_int_max_str_digits``); 0, no limit, on a Python
    without one."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def fraction_to_str(x) -> str:
    """"p/q"; an integer past the digit limit is refused with BoundExceeded."""
    x = Q(x)
    try:
        return f"{x.numerator}/{x.denominator}"
    except ValueError:
        bits = max(x.numerator.bit_length(), x.denominator.bit_length())
        raise BoundExceeded(
            f"an entry of {bits} bits is above the {digit_limit()}-digit limit for writing integers"
        ) from None


def str_to_fraction(s: str) -> Q:
    if not isinstance(s, str):
        raise InvalidInput(f"malformed rational {s!r}")
    try:
        if "/" in s:
            p, q = s.split("/")
            return Q(int(p), int(q))
        return Q(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        limit = digit_limit()
        if limit and len(s) > limit:
            # no string this long is short enough to echo
            raise BoundExceeded(
                f"an entry of {len(s)} characters is above the {limit}-digit limit for reading integers"
            ) from None
        raise InvalidInput(f"malformed rational {s!r}") from exc


def encode_vector(v: Sequence) -> list[str]:
    return [fraction_to_str(x) for x in v]


def decode_vector(data: Sequence[str], name: str) -> Vector:
    """The vector of a fan document's entry `name`, refused by that name
    unless it is an array."""
    return qv([str_to_fraction(x) for x in _array(data, name)])


def encode_matrix(m: Sequence[Sequence]) -> list[list[str]]:
    return [encode_vector(row) for row in m]


# the largest fan ambient dimension read: a zero cone's check alone
# eliminates the identity of this size, and A44, the largest type that
# rootsys.MAX_ROOTS admits, has ambient dimension 45
MAX_AMBIENT_DIM = 64


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def fan_to_json(f: Fan) -> dict:
    rays, keys = f._names
    return {
        "ambient_dim": f.ambient_dim,
        "lattice": "standard" if f.lattice is None else encode_matrix(f.lattice),
        "rays": [encode_vector(r) for r in rays],
        "maximal_cones": sorted(sorted(key) for key in keys),
    }


def _array(value, name: str) -> list:
    """The value, refused unless it is a JSON array, which a string or an
    object would pass for when iterated."""
    if not isinstance(value, list):
        raise InvalidInput(f"fan {name} must be an array, not {type(value).__name__}")
    return value


def fan_from_json(data: Mapping) -> Fan:
    try:
        dim = data["ambient_dim"]
        lattice = data["lattice"]
        if lattice == "standard":
            lattice = None
        else:
            rows = _array(lattice, "lattice")
            lattice = qm([decode_vector(row, f"lattice row {k}") for k, row in enumerate(rows)])
        rays = [decode_vector(r, f"rays entry {k}") for k, r in enumerate(_array(data["rays"], "rays"))]
        entries = _array(data["maximal_cones"], "maximal_cones")
        cone_indices = [_array(ids, f"maximal_cones entry {k}") for k, ids in enumerate(entries)]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed fan document: {exc}") from exc
    if type(dim) is not int or dim < 0:
        raise InvalidInput(f"fan ambient_dim must be a nonnegative integer, not {dim!r}")
    if dim > MAX_AMBIENT_DIM:
        raise BoundExceeded(f"fan ambient_dim {dim} is above the bound {MAX_AMBIENT_DIM}")
    # one solve of the lattice checks it and serves every cone
    lat = None
    if lattice is not None:
        if all(len(row) == dim for row in lattice):
            try:
                lat = _dual_rows(lattice, dim)
            except InvalidInput:
                pass
        if lat is None:
            raise InvalidInput(f"fan lattice rows must be {dim} long and linearly independent")
    for ids in cone_indices:
        if any(type(i) is not int or not 0 <= i < len(rays) for i in ids):
            raise InvalidInput(f"fan cone {ids} needs integer ray indices in 0..{len(rays) - 1}")
    cones = [cone([rays[i] for i in ids], lattice=lattice, ambient_dim=dim, _lat=lat) for ids in cone_indices]
    return fan(cones)


def weyl_element_to_json(w: WeylElement) -> dict:
    return {
        "matrix": encode_matrix(w.matrix),
        "word": list(w.word) if w.word is not None else None,
    }


def root_system_to_json(rs: RootSystem) -> dict:
    return {
        "type": rs.label,
        "rank": rs.rank,
        "ambient_dim": rs.ambient_dim,
        "simple_roots": encode_matrix(rs.simple_roots),
        "cartan_matrix": [[int(x) for x in row] for row in rs.cartan],
        "fundamental_weights": encode_matrix(rs.fundamental_weights),
        "fundamental_coweights": encode_matrix(rs.fundamental_coweights),
        "highest_root": encode_vector(rs.highest_root),
        "root_count": len(rs.roots),
    }


def root_system_from_json(data: Mapping) -> RootSystem:
    """Rebuild from the type label and cross-check every serialized field."""
    try:
        label = data["type"]
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed root system document: {exc}") from exc
    if not isinstance(label, str):
        raise InvalidInput(f"root system type {label!r} is not a string")
    rs = build_root_system(label)
    emitted = root_system_to_json(rs)
    for key, value in data.items():
        if key not in emitted or emitted[key] != value:
            raise InvalidInput(f"root system document field {key!r} is inconsistent")
    return rs


def colored_fan_to_json(f) -> dict:
    # index tuples into the sorted rays order as the generator tuples
    rays, keys = f._names
    cones = sorted((key, sorted(cc.colors)) for key, cc in zip(keys, f.cones))
    return {
        "rank": f.rank,
        "rays": [encode_vector(r) for r in rays],
        "cones": [{"rays": sorted(key), "colors": colors} for key, colors in cones],
        "valuation_cone": encode_matrix(f.valuation_cone.gens),
        "rho_table": {k: encode_vector(v) for k, v in sorted(f.rho_table.items())},
        "boundary_divisors": [
            {"name": name, "ray": encode_vector(ray)} for name, ray in f.boundary_divisors()
        ],
    }
