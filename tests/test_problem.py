import os
import re
from dataclasses import fields, replace

import numpy as np
import pytest

from topokry import ConfigError, Material, PointLoad, ProblemSpec, load_problem
from topokry.krylov import SolverConfig
from topokry.optimizer import OptimizerConfig
from topokry.problem import _SCHEMA, _SECTIONS, dump_problem, loads_problem_text

from util import BAD_LOAD_CONFIGS

TESTS = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(os.path.dirname(TESTS), "configs")

MINIMAL = """
mesh.nx = 4
mesh.ny = 8
material.young_modulus = 2.1e5
material.poisson_ratio = 0.3
supports.edges = left
loads.0.x = 4
loads.0.y = 4
loads.0.fy = -10
"""


class TestLoadProblem:
    def test_minimal_defaults(self):
        spec = loads_problem_text(MINIMAL)
        assert spec.solver.rel_tolerance == 1e-8
        assert spec.solver.max_iterations is None  # optimize uses the node count
        assert spec.solver.preconditioning is None  # optimize resolves it
        assert spec.solver.method == "cg"
        assert spec.optimizer.threshold_cutoff == 1e-3
        assert spec.optimizer.max_outer_iterations == 100
        assert spec.optimizer.volume_fraction == 0.375
        assert spec.material.penal == 3.0
        assert spec.material.thickness == 1.0
        assert spec.domain_width == 4.0 and spec.domain_height == 8.0

    def test_mg_with_cr_rejected(self):
        with pytest.raises(ConfigError, match="'mg' needs method 'cg'"):
            loads_problem_text(
                MINIMAL + "solver.method = cr\nsolver.preconditioning = mg\n"
            )

    def test_zero_volume_fraction_rejected(self):
        with pytest.raises(ConfigError, match="volume_fraction"):
            loads_problem_text(MINIMAL + "optimizer.volume_fraction = 0\n")

    def test_load_outside_domain_names_the_load(self):
        text = MINIMAL.replace("loads.0.x = 4", "loads.0.x = 11")
        with pytest.raises(ConfigError, match=r"loads\[0\]"):
            loads_problem_text(text)

    def test_unknown_key_rejected_with_line(self):
        with pytest.raises(ConfigError, match="line .*mesh.nz"):
            loads_problem_text(MINIMAL + "mesh.nz = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            loads_problem_text(MINIMAL + "mesh.nx = 5\n")

    def test_parse_error_carries_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            loads_problem_text("mesh.nx = 4\nnot a key value pair\n")

    def test_bad_number_reported(self):
        with pytest.raises(ConfigError, match="expects an int"):
            loads_problem_text(MINIMAL.replace("mesh.nx = 4", "mesh.nx = four"))

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="mesh.ny"):
            loads_problem_text("mesh.nx = 4\nmaterial.young_modulus = 1\n"
                               "material.poisson_ratio = 0.3\n")

    def test_load_needs_position(self):
        with pytest.raises(ConfigError, match=r"loads\[0\]"):
            loads_problem_text(
                "mesh.nx = 2\nmesh.ny = 2\n"
                "material.young_modulus = 1\n"
                "material.poisson_ratio = 0.3\n"
                "loads.0.fy = -1\n"
            )

    @pytest.mark.parametrize("index", ["01", "-2", "+1", "1_0", "\u0663"])
    def test_load_index_must_be_a_plain_numeral(self, index):
        # int() accepts each of these; "01" would alias 1
        text = MINIMAL.replace("loads.0.", f"loads.{index}.")
        key = re.escape(f"'loads.{index}.x'")
        with pytest.raises(ConfigError, match=f"line 7: bad load index in {key}"):
            loads_problem_text(text)

    def test_zero_padded_index_does_not_alias(self):
        with pytest.raises(ConfigError, match=r"line 10: bad load index in 'loads\.00"):
            loads_problem_text(MINIMAL + "loads.00.fy = -5\n")

    @pytest.mark.parametrize(
        "extra,message",
        [
            ("loads.2.x = 4\nloads.2.y = 4\n", "load index 1 is missing"),
            ("loads.7.y = 4\nloads.3.x = 4\n", "load index 1 is missing"),
            ("loads.1.x = 4\nloads.1.y = 4\nloads.3.x = 4\n", "load index 2 is missing"),
        ],
    )
    def test_load_indices_run_without_a_gap(self, extra, message):
        with pytest.raises(ConfigError, match=message):
            loads_problem_text(MINIMAL + extra)

    def test_unknown_edge(self):
        with pytest.raises(ConfigError, match="edge"):
            loads_problem_text(MINIMAL.replace("left", "diagonal"))

    def test_comments_and_blanks_ignored(self):
        spec = loads_problem_text("# header\n\n" + MINIMAL + "\n# trailing\n")
        assert spec.nx == 4

    def test_support_nodes_parsed(self):
        spec = loads_problem_text(MINIMAL + "supports.nodes = 0,0; 4, 8\n")
        assert spec.support_nodes == ((0.0, 0.0), (4.0, 8.0))

    def test_shipped_configs_load(self):
        import os

        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = load_problem(os.path.join(here, "configs", "two_bar_truss.cfg"))
        assert (spec.nx, spec.ny) == (20, 40)
        assert spec.material.young_modulus == 2.1e5
        assert spec.optimizer.volume_fraction == 0.375
        smoke = load_problem(os.path.join(here, "configs", "smoke_2x2.cfg"))
        assert (smoke.nx, smoke.ny) == (2, 2)

    def test_missing_file(self):
        with pytest.raises(FileNotFoundError):
            load_problem("/nonexistent/path.cfg")

    @pytest.mark.parametrize(
        "line,message",
        [
            ("loads.0.fx = nan", r"line 10: loads.0.fx must be finite"),
            ("material.penal = inf", r"line 10: material.penal must be finite"),
            ("domain.width = inf", r"line 10: domain.width must be finite"),
            ("supports.nodes = a,b", r"line 10: supports.nodes expects a float, got 'a'"),
            ("supports.nodes = 1,2,3", r"line 10: supports.nodes entry '1,2,3'"),
        ],
    )
    def test_bad_value_named_with_line_and_key(self, line, message):
        with pytest.raises(ConfigError, match=message):
            loads_problem_text(MINIMAL + line + "\n")

    def test_zero_mesh_size_diagnosed_before_domain(self):
        with pytest.raises(ConfigError, match="mesh.nx and mesh.ny must be >= 1"):
            loads_problem_text(MINIMAL.replace("mesh.nx = 4", "mesh.nx = 0"))

    def test_seed_is_an_unknown_key(self):
        with pytest.raises(ConfigError, match="line 10: unknown key 'seed'"):
            loads_problem_text(MINIMAL + "seed = 1\n")

    @pytest.mark.parametrize(
        "key",
        [
            "solver.breakdown_tolerance",
            "optimizer.oc_exponent",
            "optimizer.lagrangian_tolerance",
            "optimizer.bisection_tolerance",
        ],
    )
    def test_removed_keys_are_unknown(self, key):
        with pytest.raises(ConfigError, match=f"line 10: unknown key '{key}'"):
            loads_problem_text(MINIMAL + f"{key} = 1e-9\n")


# one valid value per config key, each different from MINIMAL's
NON_DEFAULT = {
    "domain.width": "5",
    "domain.height": "9",
    "mesh.nx": "5",
    "mesh.ny": "9",
    "material.young_modulus": "1e5",
    "material.poisson_ratio": "0.25",
    "material.penal": "2",
    "material.thickness": "3",
    "supports.edges": "left, bottom",
    "supports.nodes": "1, 2; 3, 4",
    "solver.method": "cr",
    "solver.rel_tolerance": "1e-6",
    "solver.max_iterations": "77",
    "solver.preconditioning": "none",
    "optimizer.update_rule": "conlin",
    "optimizer.volume_fraction": "0.5",
    "optimizer.threshold_cutoff": "0.01",
    "optimizer.max_outer_iterations": "7",
    "optimizer.move_limit": "0.3",
    "output.directory": "out",
}
# the line dump_problem writes for each NON_DEFAULT value
DUMPED = {
    "domain.width": "5.0",
    "domain.height": "9.0",
    "mesh.nx": "5",
    "mesh.ny": "9",
    "material.young_modulus": "100000.0",
    "material.poisson_ratio": "0.25",
    "material.penal": "2.0",
    "material.thickness": "3.0",
    "supports.edges": "left, bottom",
    "supports.nodes": "1.0, 2.0; 3.0, 4.0",
    "solver.method": "cr",
    "solver.rel_tolerance": "1e-06",
    "solver.max_iterations": "77",
    "solver.preconditioning": "none",
    "optimizer.update_rule": "conlin",
    "optimizer.volume_fraction": "0.5",
    "optimizer.threshold_cutoff": "0.01",
    "optimizer.max_outer_iterations": "7",
    "optimizer.move_limit": "0.3",
    "output.directory": "out",
}


class TestSchema:
    def test_every_key_has_a_test_value(self):
        assert set(NON_DEFAULT) == set(_SCHEMA)
        assert set(DUMPED) == set(_SCHEMA)

    def test_section_rows_match_dataclass_fields(self):
        # record_iterates is a library-only switch with no config key
        classes = {
            "material": Material,
            "solver": SolverConfig,
            "optimizer": OptimizerConfig,
        }
        assert set(classes) == set(_SECTIONS)
        for section, cls in classes.items():
            names = {f.name for f in fields(cls)} - {"record_iterates"}
            rows = {
                key.partition(".")[2]
                for key in _SCHEMA
                if key.partition(".")[0] == section
            }
            assert rows == names, section

    @pytest.mark.parametrize("key", list(_SCHEMA))
    def test_key_changes_spec_and_round_trips(self, key):
        lines = [
            line for line in MINIMAL.strip().splitlines()
            if not line.startswith(key + " ")
        ]
        text = "\n".join(lines + [f"{key} = {NON_DEFAULT[key]}"]) + "\n"
        spec = loads_problem_text(text)
        assert spec != loads_problem_text(MINIMAL)
        dumped = dump_problem(spec)
        assert f"{key} = {DUMPED[key]}\n" in dumped
        assert loads_problem_text(dumped) == spec
        assert dump_problem(loads_problem_text(dumped)) == dumped

    def test_python_spec_defaults_match_config_defaults(self):
        spec = ProblemSpec(
            domain_width=4.0,
            domain_height=8.0,
            nx=4,
            ny=8,
            material=Material(2.1e5, 0.3),
            support_edges=("left",),
            loads=(PointLoad(4.0, 4.0, 0.0, -10.0),),
        )
        assert spec == loads_problem_text(MINIMAL)

    def test_shipped_truss_dump_is_unchanged(self):
        spec = load_problem(os.path.join(CONFIGS, "two_bar_truss.cfg"))
        with open(os.path.join(TESTS, "golden", "two_bar_truss_dump.cfg")) as handle:
            assert dump_problem(spec) == handle.read()


class TestRoundTrip:
    def test_dump_then_load_is_identity(self):
        spec = loads_problem_text(MINIMAL)
        text = dump_problem(spec)
        again = loads_problem_text(text)
        assert again == spec
        # and a second round trip is byte-stable
        assert dump_problem(again) == text

    def test_cap_is_written_only_when_set(self):
        # both specs' round trips are checked above
        assert "solver.max_iterations" not in dump_problem(loads_problem_text(MINIMAL))
        capped = loads_problem_text(MINIMAL + "solver.max_iterations = 77\n")
        assert "solver.max_iterations = 77\n" in dump_problem(capped)

    def test_round_trip_with_everything_set(self):
        text = MINIMAL + (
            "domain.width = 4\n"
            "domain.height = 8\n"
            "material.penal = 2\n"
            "material.thickness = 10\n"
            "supports.nodes = 1,2\n"
            "solver.method = cr\n"
            "solver.rel_tolerance = 1e-6\n"
            "solver.max_iterations = 77\n"
            "solver.preconditioning = none\n"
            "optimizer.update_rule = conlin\n"
            "optimizer.volume_fraction = 0.4\n"
            "optimizer.move_limit = 1.0\n"
            "output.directory = /tmp/somewhere\n"
        )
        spec = loads_problem_text(text)
        assert loads_problem_text(dump_problem(spec)) == spec

    def test_numpy_scalars_round_trip(self):
        spec = loads_problem_text(MINIMAL)
        spec = replace(
            spec,
            domain_width=np.float64(4.0),
            domain_height=8,
            material=replace(spec.material, penal=np.float64(2.5)),
            support_nodes=((np.float64(1.0), 2.0),),
            loads=(PointLoad(np.float64(4.0), 4.0, 0.0, np.float64(-10.0)),),
            solver=replace(spec.solver, max_iterations=np.int64(77)),
        )
        text = dump_problem(spec)
        for line in (
            "domain.width = 4.0",
            "domain.height = 8.0",
            "material.penal = 2.5",
            "supports.nodes = 1.0, 2.0",
            "loads.0.x = 4.0",
            "loads.0.fy = -10.0",
            "solver.max_iterations = 77",
        ):
            assert line + "\n" in text
        assert loads_problem_text(text) == spec

    @pytest.mark.parametrize(
        "directory",
        ["/tmp/a#b", "", " out", "a\nb"],
        ids=["hash", "empty", "padded", "line-break"],
    )
    def test_unwritable_string_raises(self, directory):
        spec = replace(loads_problem_text(MINIMAL), output_dir=directory)
        with pytest.raises(ValueError, match="output.directory"):
            dump_problem(spec)


class TestBoundaryConditionConstruction:
    def test_left_edge_and_snapped_load(self):
        spec = loads_problem_text(MINIMAL)
        mesh = spec.build_mesh()
        bc = spec.build_boundary_conditions(mesh)
        left = set(mesh.edge_dofs("left").tolist())
        assert set(bc.fixed_dofs.tolist()) == left
        node = mesh.node_near(4.0, 4.0)
        assert bc.point_loads == ((2 * node + 1, -10.0),)

    @pytest.mark.parametrize("name", list(BAD_LOAD_CONFIGS))
    def test_unusable_loads_are_config_errors(self, name):
        text, message = BAD_LOAD_CONFIGS[name]
        spec = loads_problem_text(text)
        with pytest.raises(ConfigError, match=message):
            spec.build_boundary_conditions(spec.build_mesh())

    def test_partly_cancelling_loads_are_kept(self):
        text = MINIMAL + "loads.1.x = 4\nloads.1.y = 4\nloads.1.fy = 10\n"
        text += "loads.2.x = 4\nloads.2.y = 8\nloads.2.fx = 1\n"
        spec = loads_problem_text(text)
        bc = spec.build_boundary_conditions(spec.build_mesh())
        assert len(bc.point_loads) == 3

    def test_zero_force_components_dropped(self):
        spec = loads_problem_text(MINIMAL + "loads.1.x = 0\nloads.1.y = 8\nloads.1.fx = 0\n")
        mesh = spec.build_mesh()
        bc = spec.build_boundary_conditions(mesh)
        # the all-zero load contributes no entries at all
        assert len(bc.point_loads) == 1
