"""Time one cold set-up in this fresh process and print the seconds.

Set-up is what every command-line run pays before its first outer
iteration: importing topokry, parsing the config file and building the
mesh, the boundary conditions and the load vector.

    python3 bench/setup_probe.py CONFIG
"""
import sys
import time

start = time.perf_counter()

import checkout  # noqa: E402

checkout.prepare()
topokry = checkout.import_topokry()

spec = topokry.load_problem(sys.argv[1])
mesh = spec.build_mesh()
bc = spec.build_boundary_conditions(mesh)
topokry.build_load(mesh, bc)
print(repr(time.perf_counter() - start))
