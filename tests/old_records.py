"""The value classes as they were declared before `weylfans._record`, with
`@dataclass(frozen=True)`: the oracle for equality, hashing, repr and the
refusal of assignment.  Each keeps its fields, their order and options, and
its `__post_init__` checks; methods that compute are left out.  The one
hash changed on purpose, `RootSystem`'s, is declared as the package's."""

from dataclasses import dataclass, field
from typing import Mapping, Optional

from weylfans.errors import InvalidInput
from weylfans.lattice import BASIS_TAGS
from weylfans.linalg import Matrix, Vector, qv


@dataclass(frozen=True)
class RootSystem:
    label: str
    family: str
    rank: int
    ambient_dim: int
    simple_roots: Matrix
    roots: tuple
    cartan: Matrix
    cartan_inverse: Matrix
    fundamental_weights: Matrix
    simple_coroots: Matrix
    fundamental_coweights: Matrix
    highest_root: Vector
    rho: Vector
    _simple_coords: tuple = field(repr=False, hash=False, compare=False)
    _coords_by_root: Optional[dict] = field(default=None, init=False, repr=False, compare=False)
    _basis_changes: dict = field(default_factory=dict, repr=False, hash=False, compare=False)

    # the one hash changed since: a root system hashes its label, which
    # determines it, instead of every root and weight
    def __hash__(self):
        return hash(self.label)


@dataclass(frozen=True)
class LatticeVector:
    rs: RootSystem
    basis: str
    coords: Vector
    _ints: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.basis not in BASIS_TAGS:
            raise InvalidInput(f"unknown basis tag {self.basis!r}")
        expected = self.rs.ambient_dim if self.basis == "ambient" else self.rs.rank
        if len(self.coords) != expected:
            raise InvalidInput(
                f"{self.basis} coordinates for {self.rs.label} must have length {expected}"
            )
        object.__setattr__(self, "coords", qv(self.coords))


@dataclass(frozen=True)
class RationalCone:
    ambient_dim: int
    gens: Matrix
    lattice: Optional[Matrix] = None
    _dual: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _ints: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _lat: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class Fan:
    ambient_dim: int
    maximal_cones: tuple
    lattice: Optional[Matrix] = None
    _names: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class ToricSurface:
    fan: Fan
    boundary_divisors: tuple


@dataclass(frozen=True)
class SurfaceBlowupLedger:
    components: tuple
    history: tuple = ()


@dataclass(frozen=True)
class CoefficientSpectrum:
    counts: tuple
    violations: tuple


@dataclass(frozen=True)
class ColoredCone:
    cone: RationalCone
    colors: frozenset


@dataclass(frozen=True)
class ColoredFan:
    rank: int
    cones: tuple
    valuation_cone: RationalCone
    rho_table: Mapping
    colors: tuple
    boundary_names: Mapping
    _names: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class OrbitPoset:
    nodes: tuple
    less_equal: tuple


@dataclass(frozen=True)
class DivisorLedger:
    symbols: tuple
    relations: tuple

    def __post_init__(self):
        for row in self.relations:
            if len(row) != len(self.symbols):
                raise InvalidInput("relation length must match the symbol count")


@dataclass(frozen=True)
class PicardPresentation:
    free_rank: int
    torsion: tuple
    classes: Mapping


@dataclass(frozen=True)
class FormalDivisor:
    terms: tuple


@dataclass(frozen=True)
class DoubledSpace:
    half_rank: int
    kind: str


@dataclass(frozen=True)
class IsotropicSubspace:
    space: DoubledSpace
    basis: Matrix
    _num: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _ints: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    _ech: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class SampleReport:
    lemma: str
    samples: int
    violations: int
    seed: int


@dataclass(frozen=True)
class OrbitData:
    total_dim: int
    orbit_dim: int
    codim: int
    base_dim: int
    fiber_dim: int


@dataclass(frozen=True)
class Expected:
    value: object
    provenance: str


@dataclass(frozen=True)
class CaseReport:
    case_id: str
    claim: str
    inputs: Mapping
    computed: Mapping
    expected: Mapping
    verdict: str
