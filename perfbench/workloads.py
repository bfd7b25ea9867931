"""The benchmark's workloads: seeded inputs, the work of one case, its gate.

Each workload is a closed loop driven by one client: the next case starts
when the previous one has finished.  Inputs are plain numbers drawn from
the seed; the library only ever sees those inputs.  Library functions are
called through their modules (``whsolver.solve_scalar``), so the span
recorder sees every call.

Why these two: every optimisation planned for the library does most of
its work in one of them and almost none in the other, which then serves
as its "no change" control.  See README.md for the map.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from latticewh import branches, fields, kernels, oracle, series, whsolver
from latticewh.errors import LatticeWHError

# Acceptance-suite bounds (tests/test_acceptance.py), one gate per case.
FACTOR_RESIDUAL_MAX = 1e-8   # criterion 3: reconstruction (and WH equation) residual
LEAKAGE_MAX = 1e-9           # criterion 3: wrong-side coefficient leakage
REL_L2_MAX = 5e-2            # criterion 4: WH field vs oracle field
REL_L2_MAX_HEX = 7e-2        # criterion 5: honeycomb
MATRIX_RESIDUAL_MAX = 5e-2   # criterion 10: wh_residual with the true kernel
SENSITIVITY_MIN = 10.0       # criterion 10: perturbed / true residual
DET_ERR_MAX = 1e-10          # criterion 7: det(K) against the closed form

# Below this damping the fixed nq = 4096 circle does not resolve the
# kernel; wh_sweep failures there are the known baseline (README.md).
WEAK_DAMPING = 0.01

LATTICE = {"sq_crack": "square", "sq_constraint": "square",
           "tri_dirichlet": "triangular", "hex_crack": "honeycomb"}
FAMILIES = tuple(LATTICE)
# Upper edge of each lattice's (acoustic) pass band in Re(omega).
BAND_TOP = {"square": 2.0 * math.sqrt(2.0), "triangular": math.sqrt(6.0),
            "honeycomb": 2.0}


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; ``TINY`` keeps the smoke test fast."""

    window: int            # reconstruction / comparison half width
    half_width: int        # oracle truncation L
    nodes: int             # oracle_verify matrix kernel sampling nodes
    setup_repeats: int     # set-ups per run; setup_s is their median


FULL = Sizes(window=20, half_width=100, nodes=4096, setup_repeats=3)
TINY = Sizes(window=6, half_width=60, nodes=256, setup_repeats=1)


def digest(items) -> str:
    """sha256 of the JSON form of an input list (floats written exactly)."""
    return hashlib.sha256(json.dumps(items).encode()).hexdigest()


def raised_in(error: BaseException) -> str:
    """Name of the function whose frame raised the error."""
    tb = error.__traceback__
    while tb is not None and tb.tb_next is not None:
        tb = tb.tb_next
    return "unknown" if tb is None else tb.tb_frame.f_code.co_name


def _wh_case(family: str, omega: complex, theta: float, half: int):
    """dispersion_solve -> ScalarWHProblem -> solve_scalar -> reconstruct_field."""
    inc = branches.dispersion_solve(LATTICE[family], branches.Frequency(omega), theta)
    problem = whsolver.ScalarWHProblem.for_family(family, inc)
    sol = whsolver.solve_scalar(problem)
    window = ((-half, half), (-half, half))
    field = whsolver.reconstruct_field(problem, sol, window)
    rep = sol.factorization
    leak = max(rep.leakage_plus, rep.leakage_minus)
    residual = max(sol.residual, rep.reconstruction_residual)
    gate = None
    if not residual <= FACTOR_RESIDUAL_MAX:
        gate = "gate:factorization_residual"
    elif not leak <= LEAKAGE_MAX:
        gate = "gate:leakage"
    return inc, problem, field, window, max(residual, leak), gate


class WhSweep:
    """WH path only, each case of the counted pass at a fresh omega: omega caches miss."""

    name = "wh_sweep"
    block = 4            # one case per family, in seeded order
    tail_percentile = 95.0  # 1400 to 2500 passing cases a run
    pass_rate = 32.0     # cases/s in the counted pass: 1600 distinct omegas at 50 s
    input_count = 20_000  # the counted pass takes a prefix

    def generate(self, seed: int):
        rng = np.random.default_rng(seed)
        n = self.input_count
        order = rng.permuted(np.tile(np.arange(4), (n // 4, 1)), axis=1).ravel()
        frac = rng.uniform(0.01, 0.99, n)
        damping = np.exp(rng.uniform(math.log(0.003), math.log(0.3), n))
        theta = rng.uniform(-1.2, 1.2, n)
        cases = []
        for k, f, im, th in zip(order.tolist(), frac.tolist(), damping.tolist(),
                                theta.tolist()):
            family = FAMILIES[k]
            cases.append((family, f * BAND_TOP[LATTICE[family]], im, th))
        return cases

    def prepare(self, cases, sizes: Sizes):
        return {"sizes": sizes}

    def warm_up(self, state, cases):
        for family, re, im, theta in cases[:self.block]:
            try:
                _wh_case(family, complex(re, im), theta, state["sizes"].window)
            except Exception:  # a failing warm-up draw is timed and counted later
                pass

    def run(self, state, case):
        family, re, im, theta = case
        *_, acc, gate = _wh_case(family, complex(re, im), theta, state["sizes"].window)
        return {"acc_wh_residual_max": acc}, gate

    def expected_failure(self, case, error) -> bool:
        """Failures the seed code is known to have (README.md, "Known failures").

        The library may refuse a draw with a typed error.  Below
        WEAK_DAMPING it degrades silently.  Near a band edge
        dispersion_solve can return a non-decaying root, which
        annulus_bounds then rejects with a plain ValueError.
        """
        if isinstance(error, LatticeWHError) or case[2] < WEAK_DAMPING:
            return True
        return isinstance(error, ValueError) and raised_in(error) == "annulus_bounds"


class OracleVerify:
    """WH solutions checked against the finite-lattice oracle.

    A block is an angle sweep step: the four scalar families at one
    (omega, theta), each WH field compared with the oracle field, and two
    of the eight matrix layouts of acceptance criterion 10, each checked
    against its own oracle solve.
    """

    name = "oracle_verify"
    block = 6            # four scalar families at one (omega, theta), two matrix layouts
    tail_percentile = 60.0  # 24 to 36 cases a run: at least ten beyond
    pass_rate = 0.42     # cases/s in the counted pass: 4 blocks, all 8 layouts, at 50 s
    omegas = 3
    thetas = 6

    def generate(self, seed: int):
        rng = np.random.default_rng(seed)
        re = rng.uniform(0.6, 1.6, self.omegas)
        im = rng.uniform(0.1, 0.25, self.omegas)
        thetas = [np.sort(rng.uniform(-1.0, 1.0, self.thetas)).tolist() for _ in re]
        # each matrix layout at its own omega and angle, square lattice
        layouts = list(zip(rng.uniform(0.8, 1.2, 8).tolist(), rng.uniform(0.1, 0.2, 8).tolist(),
                           rng.uniform(0.2, 0.9, 8).tolist()))
        # theta repeats at a fixed (omega, geometry): an angle sweep
        steps = [(w_re, w_im, theta) for w_re, w_im, sweep in zip(re.tolist(), im.tolist(), thetas)
                 for theta in sweep]
        cases = []
        for b, (w_re, w_im, theta) in enumerate(steps):
            cases.extend((family, w_re, w_im, theta) for family in FAMILIES)
            # two layouts a block, in turn: any four blocks in a row hold all eight
            cases.extend(("matrix", k % 8, *layouts[k % 8]) for k in (2 * b, 2 * b + 1))
        return cases

    def prepare(self, cases, sizes: Sizes):
        return {"sizes": sizes, "nodes": series.CircleGrid(1.0, sizes.nodes).nodes}

    def warm_up(self, state, cases):
        # first-call costs of every family and of two layouts, on a small lattice
        for case in cases[:self.block]:
            if case[0] == "matrix":
                _matrix_case(case, state["nodes"][:16], 20)
            else:
                family, re, im, theta = case
                inc, problem, *_ = _wh_case(family, complex(re, im), theta, 2)
                oracle.solve_direct(oracle.assemble(oracle.problem_for(problem.kernel, inc), 20))

    def run(self, state, case):
        sizes = state["sizes"]
        if case[0] == "matrix":
            return _matrix_case(case, state["nodes"], sizes.half_width)
        family, re, im, theta = case
        inc, problem, field, window, acc, gate = _wh_case(
            family, complex(re, im), theta, sizes.window)
        system = oracle.assemble(oracle.problem_for(problem.kernel, inc), sizes.half_width)
        reference = oracle.solve_direct(system)
        rel = fields.compare_fields(field, reference, window).rel_l2
        bound = REL_L2_MAX_HEX if family == "hex_crack" else REL_L2_MAX
        if gate is None and not rel <= bound:
            gate = "gate:rel_l2"
        return {"acc_wh_residual_max": acc, "acc_field_rel_l2_max": rel}, gate

    def expected_failure(self, case, error) -> bool:
        return False


def _matrix_specs(omega: complex, inc):
    """The eight layouts of acceptance criterion 10."""
    psi = complex(np.exp(-1j * inc.kappa_y * 3))
    spec = kernels.MatrixKernelSpec
    return (
        spec("array_cracks", omega, count=2, sep=3, offsets=(0, 2)),
        spec("array_cracks", omega, count=3, sep=2, offsets=(0, 2, 5)),
        spec("array_constraints", omega, count=2, sep=3, offsets=(0, 2)),
        spec("pair_crack_constraint", omega, sep=3),
        spec("opposing_cracks", omega, sep=3, offsets=(3,)),
        spec("opposing_constraints", omega, sep=3, offsets=(3,)),
        spec("opposing_mixed", omega, sep=3, offsets=(3,)),
        spec("mixed_array", omega, sep=3, psi=psi),
    )


def _on_nodes(fn, spec, nodes) -> np.ndarray:
    """fn(spec, z) at every node: one array call if fn takes arrays, else one call per node."""
    try:
        probe = np.asarray(fn(spec, nodes[:2]))
    except (TypeError, ValueError):
        probe = None
    if probe is not None and probe.shape[:1] == (2,):
        return np.asarray(fn(spec, nodes))
    return np.array([fn(spec, z) for z in nodes])


def _matrix_case(case, nodes, half_width: int):
    """Criterion 10 for one layout: kernel on the circle, det check, wh_residual.

    The layout's oracle field is solved in the case.  wh_residual runs
    with the true kernel and with criterion 10's wrong one, which must
    give a residual at least SENSITIVITY_MIN times larger.
    """
    _, index, re, im, theta = case
    omega = complex(re, im)
    inc = branches.dispersion_solve("square", branches.Frequency(omega), theta)
    spec = _matrix_specs(omega, inc)[index]
    problem = oracle.problem_for(spec, inc)
    field = oracle.solve_direct(oracle.assemble(problem, half_width))

    def perturbed(z):
        # criterion 10's wrong kernel: lam^N -> lam^(N+1) in entry (0, 1)
        k = np.array(kernels.eval_matrix_kernel(spec, z))
        k[..., 0, 1] *= branches.square_branches(z, omega).lam
        return k

    k = _on_nodes(kernels.eval_matrix_kernel, spec, nodes)
    ref = _on_nodes(kernels.det_closed_form, spec, nodes)
    det_err = float(np.max(np.abs(np.linalg.det(k) - ref) / np.maximum(1.0, np.abs(ref))))
    res = oracle.wh_residual(problem, spec, field)
    res_pert = oracle.wh_residual(problem, spec, field, kernel_eval=perturbed)
    gate = None
    if not det_err <= DET_ERR_MAX:
        gate = "gate:det_closed_form"
    elif not res <= MATRIX_RESIDUAL_MAX:
        gate = "gate:wh_residual"
    elif not res_pert >= SENSITIVITY_MIN * res:
        gate = "gate:sensitivity"
    return {"acc_matrix_residual_max": res}, gate


WORKLOADS = {w.name: w for w in (WhSweep(), OracleVerify())}
