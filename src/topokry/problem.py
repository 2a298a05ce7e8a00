"""Problem configuration: a strict flat key-value format with dotted
sections, validated into a :class:`ProblemSpec`.

Example::

    domain.width = 10
    domain.height = 20
    mesh.nx = 20
    mesh.ny = 40
    material.young_modulus = 2.1e5
    material.poisson_ratio = 0.3
    supports.edges = left
    loads.0.x = 10
    loads.0.y = 10
    loads.0.fy = -105

``_SCHEMA`` is the one description of the format: it gives each key's
kind and the :class:`ProblemSpec` field it sets, and parsing and
``dump_problem`` each loop over it alone.  A key under ``material.``,
``solver.`` or ``optimizer.`` names a field of the ``ProblemSpec``
attribute of that name, and an omitted key takes ``ProblemSpec``'s
default.  Unknown keys are rejected.  ``dump_problem`` writes a spec back
out with every default materialized except an unset
``solver.max_iterations`` or ``solver.preconditioning``, which
``optimize`` resolves per run, and floats as Python float reprs, numpy scalars included;
reloading that text reproduces the spec exactly.  A string the line
format cannot hold (empty, blank-padded, or with ``#`` or a line break)
raises ``ValueError`` naming its key.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .fem import BoundaryConditions, Material, Mesh, build_load
from .krylov import SolverConfig
from .linalg import is_integer
from .optimizer import OptimizerConfig

EDGES = ("left", "right", "top", "bottom")


class ConfigError(ValueError):
    """Configuration file could not be parsed or validated."""


@dataclass(frozen=True)
class PointLoad:
    """Concentrated force at a domain position, snapped to the nearest node."""

    x: float
    y: float
    fx: float = 0.0
    fy: float = 0.0


@dataclass
class ProblemSpec:
    """Complete description of one optimization run."""

    domain_width: float
    domain_height: float
    nx: int
    ny: int
    material: Material
    support_edges: tuple[str, ...] = ()
    support_nodes: tuple[tuple[float, float], ...] = ()
    loads: tuple[PointLoad, ...] = ()
    solver: SolverConfig = field(
        default_factory=lambda: SolverConfig(preconditioning=None)
    )
    optimizer: OptimizerConfig = field(
        default_factory=lambda: OptimizerConfig(volume_fraction=0.375)
    )
    output_dir: str | None = None

    def __post_init__(self):
        if not (is_integer(self.nx) and is_integer(self.ny)):
            raise ConfigError("mesh.nx and mesh.ny must be integers")
        if self.nx < 1 or self.ny < 1:
            raise ConfigError("mesh.nx and mesh.ny must be >= 1")
        if not (0 < self.domain_width < np.inf and 0 < self.domain_height < np.inf):
            raise ConfigError("domain dimensions must be positive and finite")
        for edge in self.support_edges:
            if edge not in EDGES:
                raise ConfigError(f"unknown support edge {edge!r}")
        for i, (x, y) in enumerate(self.support_nodes):
            if not (0 <= x <= self.domain_width and 0 <= y <= self.domain_height):
                raise ConfigError(f"supports.nodes[{i}] lies outside the domain")
        for i, load in enumerate(self.loads):
            if not (
                0 <= load.x <= self.domain_width
                and 0 <= load.y <= self.domain_height
            ):
                raise ConfigError(f"loads[{i}] lies outside the domain")
            if not (math.isfinite(load.fx) and math.isfinite(load.fy)):
                raise ConfigError(f"loads[{i}] needs finite force components")

    def build_mesh(self) -> Mesh:
        return Mesh(self.nx, self.ny, self.domain_width, self.domain_height)

    def build_boundary_conditions(self, mesh: Mesh) -> BoundaryConditions:
        """Supports and loads snapped to nodes; a load component on a
        supported DOF, or a load vector that is zero after snapping
        (cancelling loads included), is a :class:`ConfigError`."""
        fixed = [mesh.edge_dofs(edge) for edge in self.support_edges]
        for x, y in self.support_nodes:
            fixed.append(np.asarray(mesh.node_dofs(mesh.node_near(x, y))))
        fixed_dofs = (
            np.unique(np.concatenate(fixed)) if fixed else np.zeros(0, np.int64)
        )
        supported = set(fixed_dofs.tolist())
        point_loads = []
        for i, load in enumerate(self.loads):
            dx, dy = mesh.node_dofs(mesh.node_near(load.x, load.y))
            for dof, force in ((dx, load.fx), (dy, load.fy)):
                if force == 0.0:
                    continue
                if dof in supported:
                    raise ConfigError(f"loads[{i}] acts on a supported node")
                point_loads.append((dof, force))
        bc = BoundaryConditions(
            n_dofs=mesh.n_dofs,
            fixed_dofs=fixed_dofs,
            point_loads=tuple(point_loads),
        )
        if not build_load(mesh, bc).any():
            raise ConfigError("the load vector is zero: no loads, or they cancel")
        return bc


def _parse_value(kind: str, text: str, key: str, line_no: int):
    """Parse one value of a ``_SCHEMA`` kind; errors name the line and key."""
    if kind == "str":
        return text
    if kind == "names":
        return tuple(part.strip() for part in text.split(",") if part.strip())
    if kind == "points":
        points = []
        for chunk in filter(str.strip, text.split(";")):
            parts = chunk.split(",")
            if len(parts) != 2:
                raise ConfigError(
                    f"line {line_no}: {key} entry {chunk.strip()!r} is not 'x, y'"
                )
            points.append(
                tuple(_parse_value("float", p.strip(), key, line_no) for p in parts)
            )
        return tuple(points)
    try:
        value = int(text) if kind == "int" else float(text)
    except ValueError:
        expected = "an int" if kind == "int" else "a float"
        raise ConfigError(f"line {line_no}: {key} expects {expected}, got {text!r}")
    if not math.isfinite(value):
        raise ConfigError(f"line {line_no}: {key} must be finite, got {text!r}")
    return value


# key -> (kind, ProblemSpec field), in dump order; loads.* handled separately.
# A _SECTIONS key has no field: its name is a field of the section's dataclass.
_SCHEMA = {
    "domain.width": ("float", "domain_width"),
    "domain.height": ("float", "domain_height"),
    "mesh.nx": ("int", "nx"),
    "mesh.ny": ("int", "ny"),
    "material.young_modulus": ("float", None),
    "material.poisson_ratio": ("float", None),
    "material.penal": ("float", None),
    "material.thickness": ("float", None),
    "supports.edges": ("names", "support_edges"),
    "supports.nodes": ("points", "support_nodes"),
    "solver.method": ("str", None),
    "solver.rel_tolerance": ("float", None),
    "solver.max_iterations": ("int", None),
    "solver.preconditioning": ("str", None),
    "optimizer.update_rule": ("str", None),
    "optimizer.volume_fraction": ("float", None),
    "optimizer.threshold_cutoff": ("float", None),
    "optimizer.max_outer_iterations": ("int", None),
    "optimizer.move_limit": ("float", None),
    "output.directory": ("str", "output_dir"),
}
# sections whose keys are the field names of the ProblemSpec attribute
_SECTIONS = ("material", "solver", "optimizer")
_LOAD_FIELDS = ("x", "y", "fx", "fy")
# a load index is a plain decimal numeral: no sign, no leading zero
_LOAD_INDEX = re.compile(r"0|[1-9][0-9]*")
_REQUIRED = (
    "mesh.nx",
    "mesh.ny",
    "material.young_modulus",
    "material.poisson_ratio",
)


def _parse_lines(text: str) -> dict[str, tuple[str, int]]:
    entries: dict[str, tuple[str, int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ConfigError(f"line {line_no}: empty key or value")
        if key in entries:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        entries[key] = (value, line_no)
    return entries


def _pop_load_keys(entries) -> tuple[PointLoad, ...]:
    """Pop the ``loads.<i>.*`` keys; i runs 0, 1, ..., so load i is ``loads[i]``."""
    indexed: dict[int, dict[str, float]] = {}
    for key in [k for k in entries if k.startswith("loads.")]:
        parts = key.split(".")
        value, line_no = entries.pop(key)
        if len(parts) != 3 or parts[2] not in _LOAD_FIELDS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if not _LOAD_INDEX.fullmatch(parts[1]):
            raise ConfigError(f"line {line_no}: bad load index in {key!r}")
        indexed.setdefault(int(parts[1]), {})[parts[2]] = _parse_value(
            "float", value, key, line_no
        )
    loads = []
    for i in range(len(indexed)):
        if i not in indexed:
            raise ConfigError(f"load index {i} is missing: indices run 0, 1, 2, ...")
        entry = indexed[i]
        if "x" not in entry or "y" not in entry:
            raise ConfigError(f"loads[{i}] needs both loads.{i}.x and loads.{i}.y")
        loads.append(PointLoad(**entry))
    return tuple(loads)


def loads_problem_text(text: str) -> ProblemSpec:
    """Parse configuration text into a validated ProblemSpec."""
    entries = _parse_lines(text)
    kwargs: dict[str, object] = {"loads": _pop_load_keys(entries)}
    given: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    for key, (value, line_no) in entries.items():
        if key not in _SCHEMA:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        kind, spec_field = _SCHEMA[key]
        parsed = _parse_value(kind, value, key, line_no)
        if spec_field is None:
            section, _, name = key.partition(".")
            given[section][name] = parsed
        else:
            kwargs[spec_field] = parsed
    for key in _REQUIRED:
        if key not in entries:
            raise ConfigError(f"missing required key {key!r}")
    kwargs.setdefault("domain_width", float(kwargs["nx"]))
    kwargs.setdefault("domain_height", float(kwargs["ny"]))

    defaults = {f.name: f.default_factory for f in fields(ProblemSpec)}
    try:
        return ProblemSpec(
            **kwargs,
            material=Material(**given["material"]),
            solver=replace(defaults["solver"](), **given["solver"]),
            optimizer=replace(defaults["optimizer"](), **given["optimizer"]),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def load_problem(path) -> ProblemSpec:
    """Load and validate a problem configuration file."""
    with open(path, "r", encoding="utf-8") as handle:
        return loads_problem_text(handle.read())


def _format_value(kind: str, value) -> str:
    """Write one value of a ``_SCHEMA`` kind; the inverse of ``_parse_value``."""
    if kind == "float":
        return repr(float(value))
    if kind == "int":
        return str(int(value))
    if kind == "names":
        return ", ".join(value)
    if kind == "points":
        return "; ".join(f"{float(x)!r}, {float(y)!r}" for x, y in value)
    return value


def dump_problem(spec: ProblemSpec) -> str:
    """Serialize a spec with every default materialized but unset ones."""
    lines = []
    for key, (kind, spec_field) in _SCHEMA.items():
        if key == "solver.method":  # the loads go between supports and solver
            lines += [
                f"loads.{i}.{part} = {_format_value('float', getattr(load, part))}"
                for i, load in enumerate(spec.loads)
                for part in _LOAD_FIELDS
            ]
        section, _, name = key.partition(".")
        value = getattr(spec, spec_field or section)
        if spec_field is None:
            value = getattr(value, name)
        if value is None or (kind in ("names", "points") and len(value) == 0):
            continue
        text = _format_value(kind, value)
        if "#" in text or text.strip() != text or len(text.splitlines()) != 1:
            raise ValueError(f"{key} = {value!r} cannot be written as a config line")
        lines.append(f"{key} = {text}")
    return "\n".join(lines) + "\n"
