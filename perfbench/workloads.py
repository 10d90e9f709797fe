"""The benchmark's workloads: the operations of one pass and their seeded inputs.

Every operation is one fresh process.  ``argv`` is either a ``steerkit`` CLI
command line (without ``--out``) or ``SWEEP`` for the library sweep in
``sweep.py``.  The witness inputs are generated here from the workload seed
and written as JSON; the program only ever sees those files.  Every pass of a
run repeats the same operations on the same inputs, so that each operation
can be timed at its fastest repetition (see ``run.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

SWEEP = ("sweep",)


@dataclass(frozen=True)
class Op:
    """One operation of a pass: what to run, where it writes, how to check it.

    ``parts``, where given, reads from the output the (wall, CPU) seconds of
    the parts of the operation that the program timed itself.
    """

    name: str
    argv: tuple[str, ...]
    out: Path
    check: Callable[[str], list[str]]
    parts: Callable[[str], dict[str, tuple[float, float]]] | None = None


def paper_tables(seed: int, work: Path) -> list[Op]:
    """The eight paper-scale tables, in the order a user reproduces them."""
    table = checks.reference_columns
    specs = [
        ("ghz", ("ghz", "--n", "1:10"), lambda t: table(t, 1e-9)),
        ("ghz_noise", ("ghz-noise", "--n", "2:8", "--noise", "0.1:0.9:0.1"), lambda t: table(t, 1e-8)),
        ("split_dicke", ("split-dicke", "--n", "200", "--k", "100"), lambda t: table(t, 1e-9)),
        ("split_dicke_partition", ("split-dicke-partition", "--n", "100"), lambda t: table(t, 1e-9)),
        ("cat", ("cat", "--alpha", "0:2:0.05"), lambda t: table(t, 1e-7)),
        ("quantify", ("quantify", "--step", "0.01"), checks.quantify_table),
        ("multigen", ("multigen", "--d", "2:8"), lambda t: table(t, 1e-8)),
        ("estimate", ("estimate", "--seed", str(seed)), checks.estimate_table),
    ]
    return [Op(name, argv, work / f"{name}.csv", check) for name, argv, check in specs]


def sweep_parts(text: str) -> dict[str, tuple[float, float]]:
    """(wall, CPU) seconds of every n of the sweep, as ``sweep.py`` timed them."""
    return {f"n={r['n']}": (r["wall_s"], r["cpu_s"]) for r in json.loads(text)}


def twin_fock_sweep(seed: int, work: Path) -> list[Op]:
    """Acceptance criterion 3's loop in one library process (fixed input)."""
    return [Op("twin_fock_sweep", SWEEP, work / "twin_fock_sweep.json", checks.twin_fock_sweep, sweep_parts)]


# (d_A, d_B, number of Alice's settings) of the mixed-state assemblages, and
# the dims of the pure-state inputs.  Bob holds a qubit in every mixed case:
# on d_B = 3 the sampler behind ``--quantify`` needs from 6,600 to over 30,000
# objective evaluations depending on the draw, so run times would follow the
# seed more than the program; on d_B = 2 it needs 2,700 to 3,400.
MIXED_CASES = ((2, 2, 3), (3, 2, 2), (4, 2, 4))
PURE_DIMS = ((4, 4), (16, 16), (64, 64))


def _pairs(a: np.ndarray) -> list:
    """Complex array as nested [re, im] pairs, the package's JSON encoding."""
    if a.ndim == 1:
        return [[float(z.real), float(z.imag)] for z in a]
    return [_pairs(row) for row in a]


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _observable(rng: np.random.Generator, d: int) -> np.ndarray:
    g = _ginibre(rng, d, d)
    return (g + g.conj().T) / 2.0


def mixed_assemblage(rng: np.random.Generator, d_a: int, d_b: int, n_settings: int) -> dict:
    """Assemblage of an entangled pure state mixed with a random density matrix.

    Alice measures ``n_settings`` random orthonormal bases; the conditional
    states are computed from one global state, so the settings share Bob's
    marginal up to roundoff.
    """
    psi = _ginibre(rng, d_a * d_b, 1)[:, 0]
    psi /= np.linalg.norm(psi)
    g = _ginibre(rng, d_a * d_b, d_a * d_b)
    noise = g @ g.conj().T
    rho = 0.8 * np.outer(psi, psi.conj()) + 0.2 * noise / np.trace(noise).real
    four = rho.reshape(d_a, d_b, d_a, d_b)
    settings = []
    for x in range(n_settings):
        basis, _ = np.linalg.qr(_ginibre(rng, d_a, d_a))
        outcomes = []
        for a in range(d_a):
            v = basis[:, a]
            block = np.einsum("i,ibjc,j->bc", v.conj(), four, v)
            block = (block + block.conj().T) / 2.0
            p = float(np.trace(block).real)
            outcomes.append({"p": p, "rho": _pairs(block / p)})
        settings.append({"label": f"X{x}", "outcomes": outcomes})
    return {"type": "assemblage", "d_b": d_b, "settings": settings}


def pure_state(rng: np.random.Generator, d_a: int, d_b: int) -> dict:
    psi = _ginibre(rng, d_a * d_b, 1)[:, 0]
    psi /= np.linalg.norm(psi)
    return {"type": "bipartite_pure_state", "dims": [d_a, d_b], "amplitudes": _pairs(psi)}


def witness_inputs(seed: int) -> list[tuple[str, dict, dict]]:
    """(name, input document, observable document) of every witness operation."""
    docs = []
    for i, (d_a, d_b, n_settings) in enumerate(MIXED_CASES):
        rng = np.random.default_rng([seed, 0, i])
        doc = mixed_assemblage(rng, d_a, d_b, n_settings)
        docs.append((f"mixed_a{d_a}_b{d_b}_x{n_settings}", doc, {"matrix": _pairs(_observable(rng, d_b))}))
    for i, (d_a, d_b) in enumerate(PURE_DIMS):
        rng = np.random.default_rng([seed, 1, i])
        doc = pure_state(rng, d_a, d_b)
        docs.append((f"pure_{d_a}x{d_b}", doc, {"matrix": _pairs(_observable(rng, d_b))}))
    return docs


def witness_quantify(seed: int, work: Path) -> list[Op]:
    """``witness --format json`` on seeded inputs; ``--quantify`` on assemblages."""
    ops = []
    for name, doc, obs in witness_inputs(seed):
        state_path, obs_path = work / f"{name}.in.json", work / f"{name}.obs.json"
        state_path.write_text(json.dumps(doc), encoding="utf-8")
        obs_path.write_text(json.dumps(obs), encoding="utf-8")
        argv = ("witness", str(state_path), "--observable", str(obs_path), "--format", "json")
        if doc["type"] == "assemblage":
            argv += ("--quantify",)
            check = checks.mixed_witness_check(doc, obs)
        else:
            check = checks.pure_witness_check(doc, obs)
        ops.append(Op(name, argv, work / f"{name}.out.json", check))
    return ops


WORKLOADS = {
    "paper_tables": paper_tables,
    "twin_fock_sweep": twin_fock_sweep,
    "witness_quantify": witness_quantify,
}

# Fewest passes per run: an operation's fastest repetition needs more than one.
MIN_PASSES = {"paper_tables": 2, "twin_fock_sweep": 3, "witness_quantify": 2}

# Environment added to the children of a workload.  The twin Fock sweep runs
# with one BLAS thread: with the vendor default (one per core) its BLAS threads
# contend with each other on a small machine, and on a 2-vCPU host the run
# times then spread by about 20% from run to run instead of about 9%.  The sweep
# is there to load the rotation and POVM layers; the default threads stay in
# force on the other workloads, where ``cpu_s`` shows the oversubscription.
ENV = {"twin_fock_sweep": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}}
