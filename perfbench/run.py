"""End-to-end and per-layer benchmark of steerkit.

Run from the root of a checkout (``src/steerkit`` must exist)::

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 60 --trace 0

Load model: a closed loop with one client.  Each operation of a workload is a
fresh process, started only after the previous one exits, because a user pays
process start and cold in-process caches on every run.  The program runs with
its defaults (``STEERKIT_THREADS`` and BLAS threads as inherited), except
where ``workloads.ENV`` pins a workload's BLAS threads; the run records them.

``--trace 0`` repeats the same pass as often as fits in ``--seconds``.  The
host's speed changes by up to a factor of two for seconds to minutes at a time,
so a pass is timed part by part: ``pass_s`` and ``cpu_s`` add up each part's
fastest repetition in the run (a part is one operation's process, or one n of
the twin Fock sweep, which ``sweep.py`` times itself).  ``setup_s`` is the
median of fresh starts spread over the run.  ``--trace 1`` runs one untraced
and one traced pass and reports the per-layer metrics from spans (see
``spans.py``).
Every pass's outputs are checked (``checks.py``).  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PY = sys.executable

SETUP_PER_ROUND = 2  # fresh `--help` runs that open each round; setup_s is their median
IMPORTTIME_REPS = 3
RUN_LIMIT_S = 165.0  # children still running this long after a workload run starts are killed

END_TO_END = {"setup_s": "s", "pass_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Sample:
    """One finished child process."""

    wall: float
    cpu: float
    rss_mb: float
    code: int


class Children:
    """Starts the child processes of one workload run in its work directory."""

    def __init__(self, work: Path, env: dict[str, str]):
        self.work = work
        self.kill_at = time.perf_counter() + RUN_LIMIT_S
        self.env = {**os.environ, **env}
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), self.env.get("PYTHONPATH")]))

    def run(self, cmd: list[str], log: str) -> Sample:
        """Run ``cmd`` to completion; wall clock from spawn to reap, rusage from wait4."""
        with open(self.work / log, "ab") as sink:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                cmd, cwd=self.work, env=self.env, stdout=sink, stderr=sink, stdin=subprocess.DEVNULL
            )
            timer = threading.Timer(max(1.0, self.kill_at - time.perf_counter()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted (SIGTERM, Ctrl-C): leave no child behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def op_command(op: workloads.Op, spans_path: Path | None) -> list[str]:
    if spans_path is not None:
        prefix = [PY, str(HERE / "child.py"), str(spans_path)]
        return prefix + (["sweep", str(op.out)] if op.argv == workloads.SWEEP else ["cli", *op.argv, "--out", str(op.out)])
    if op.argv == workloads.SWEEP:
        return [PY, str(HERE / "sweep.py"), str(op.out)]
    return [PY, "-m", "steerkit.cli", *op.argv, "--out", str(op.out)]


def check_output(op: workloads.Op, sample: Sample) -> list[str]:
    if sample.code != 0:
        return [f"exit code {sample.code}"]
    try:
        return op.check(op.out.read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


@dataclass(frozen=True)
class Run:
    """One checked run of one operation."""

    sample: Sample
    failed: bool
    parts: dict[str, tuple[float, float]]  # (wall, CPU) seconds of each part of the run


def run_op(op: workloads.Op, children: Children, traced: bool = False) -> Run:
    """Run one operation in a fresh process, check its output and split its time into parts."""
    op.out.unlink(missing_ok=True)
    spans_path = children.work / f"{op.name}.spans.npz" if traced else None
    sample = children.run(op_command(op, spans_path), "children.log")
    problems = check_output(op, sample)
    if problems:
        print(f"FAIL {op.name}: {'; '.join(problems[:5])}", file=sys.stderr)
    inner = op.parts(op.out.read_text(encoding="utf-8")) if op.parts and not problems else {}
    parts = {f"{op.name}/{key}": value for key, value in inner.items()}
    # The rest of the process: start-up, imports, output and whatever it did not time.
    parts[op.name] = (sample.wall - sum(w for w, _ in inner.values()), sample.cpu - sum(c for _, c in inner.values()))
    return Run(sample, bool(problems), parts)


@dataclass(frozen=True)
class Pass:
    wall: float
    failed: int


def run_pass(ops: list[workloads.Op], children: Children, traced: bool = False) -> Pass:
    """Run every operation once, in order."""
    runs = [run_op(op, children, traced) for op in ops]
    return Pass(wall=sum(r.sample.wall for r in runs), failed=sum(r.failed for r in runs))


def _bump(value: float) -> float:
    return value * (1.0 + 1e-6) + 1e-6


def corruptions(text: str) -> list[str]:
    """Copies of an output, each with one deliberately wrong value."""
    if not text.lstrip().startswith(("{", "[")):
        lines = text.split("\n")
        header = lines[0].split(",")
        col = next(i for i, c in enumerate(header) if f"{c}_ref" in header)
        cells = lines[2].split(",")
        cells[col] = repr(_bump(float(cells[col])))
        lines[2] = ",".join(cells)
        return ["\n".join(lines)]
    doc = json.loads(text)
    if isinstance(doc, list):
        doc[len(doc) // 2]["cond_qfi"] = _bump(doc[len(doc) // 2]["cond_qfi"])
        return [json.dumps(doc)]
    out = [json.dumps({**doc, "cond_qfi": _bump(doc["cond_qfi"])})]
    if "s_lower_bound" in doc:
        out.append(json.dumps({**doc, "s_lower_bound": doc["s_lower_bound"] + 1.0}))
    return out


def checker_rejects_corruption(op: workloads.Op) -> bool:
    """The output checker must reject every corrupted copy of a correct output."""
    text = op.out.read_text(encoding="utf-8")
    return all(op.check(bad) for bad in corruptions(text))


def measure_setup(children: Children, reps: int) -> list[float]:
    """Wall times of ``reps`` fresh ``steerkit.cli --help`` processes."""
    walls = []
    for _ in range(reps):
        sample = children.run([PY, "-m", "steerkit.cli", "--help"], "setup.log")
        if sample.code != 0:
            raise RuntimeError(f"`steerkit.cli --help` exited with {sample.code}")
        walls.append(sample.wall)
    return walls


def import_times(children: Children) -> dict[str, float]:
    """Import cost of numpy, scipy, mpmath and steerkit itself, from ``-X importtime``."""
    runs = []
    log = children.work / "importtime.log"
    for _ in range(IMPORTTIME_REPS):
        log.unlink(missing_ok=True)
        children.run([PY, "-X", "importtime", "-c", "import steerkit.cli"], log.name)
        runs.append(parse_importtime(log.read_text(encoding="utf-8")))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def parse_importtime(text: str) -> dict[str, float]:
    """Import seconds owned by each package.

    A module's own import time goes to the outermost numpy, scipy or mpmath
    import that encloses it (or is it), else to steerkit.  So a package is
    charged for every module that importing it pulled in, as removing it
    would save.
    """
    totals = {"numpy": 0.0, "scipy": 0.0, "mpmath": 0.0, "steerkit": 0.0}
    entries = []
    for line in text.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|( *)(\S+)", line)
        if m:
            entries.append((len(m.group(2)), int(m.group(1)), m.group(3).split(".")[0]))
    stack: list[tuple[int, str | None]] = []  # (depth, owning package) of enclosing imports
    # importtime prints a module after the modules it imports; reversed, parents come first.
    for depth, self_us, package in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        parent = stack[-1][1] if stack else None
        owner = package if parent in (None, "steerkit") and package in totals else parent
        if owner is not None:
            totals[owner] += self_us / 1e6
        stack.append((depth, owner))
    return {f"setup.{k}_import_s": v for k, v in totals.items()}


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------

def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + name):
            return line.split()[0]
    return None


def blas() -> dict:
    """BLAS vendor and thread count of the numpy this interpreter loads."""
    import numpy

    info = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def provenance(workload: str, seed: int) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "blas": blas(),
        "nproc": len(os.sched_getaffinity(0)),
        "steerkit_threads_set": "STEERKIT_THREADS" in os.environ,
        "child_env_pinned": workloads.ENV.get(workload, {}),
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


# ---------------------------------------------------------------------------
# Workload runs
# ---------------------------------------------------------------------------

def fastest(runs: list[Run]) -> tuple[float, float]:
    """(wall, CPU) seconds of one operation with every part as fast as its fastest repetition."""
    runs = [r for r in runs if not r.failed] or runs
    keys = set.intersection(*(set(r.parts) for r in runs))
    wall = sum(min(r.parts[k][0] for r in runs) for k in keys)
    cpu = sum(min(r.parts[k][1] for r in runs) for k in keys)
    return wall, cpu


def end_to_end(name: str, seed: int, children: Children, seconds: float) -> tuple[dict, int, int, bool]:
    """Rounds over the operations until ``seconds`` are used up; each part timed at its fastest.

    A round starts with fresh ``--help`` starts for ``setup_s`` and then runs
    each operation once, in order.  The first ``MIN_PASSES`` rounds are full
    passes; after them an operation is skipped when its median duration no
    longer fits before the deadline, so the smaller ones fill the rest.
    """
    deadline = time.perf_counter() + seconds
    ops = workloads.WORKLOADS[name](seed, children.work)
    measure_setup(children, 1)  # warm-up: bytecode caches are not a per-run cost
    setup: list[float] = []
    runs: dict[str, list[Run]] = {op.name: [] for op in ops}
    sound, rounds = True, 0

    def fits(op: workloads.Op, ahead: float = 0.0) -> bool:
        return time.perf_counter() + ahead + statistics.median(r.sample.wall for r in runs[op.name]) < deadline

    while True:
        full = rounds < workloads.MIN_PASSES[name]
        if not full and not any(fits(op, SETUP_PER_ROUND * statistics.median(setup)) for op in ops):
            break
        # Setup samples are spread over the run, so one burst of load cannot skew them all.
        setup += measure_setup(children, SETUP_PER_ROUND)
        for op in ops:
            if full or fits(op):
                runs[op.name].append(run_op(op, children))
        if rounds == 0 and not any(r[0].failed for r in runs.values()):
            sound = checker_rejects_corruption(ops[0])
        rounds += 1
        if any(r.failed for rs in runs.values() for r in rs):
            break
    best = [fastest(rs) for rs in runs.values()]
    metrics = {
        "setup_s": statistics.median(setup),
        "pass_s": sum(w for w, _ in best),
        "cpu_s": sum(c for _, c in best),
        "peak_rss_mb": max(statistics.median(r.sample.rss_mb for r in rs) for rs in runs.values()),
    }
    attempted = sum(len(rs) for rs in runs.values())
    failed = sum(r.failed for rs in runs.values() for r in rs)
    print(f"rounds: {rounds}, setup samples: {len(setup)}")
    for op_name, rs in runs.items():
        print(f"  {op_name}: walls {[round(r.sample.wall, 3) for r in rs]}")
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}, attempted, failed, sound


def per_layer(ops: list[workloads.Op], children: Children) -> tuple[dict, int, int, bool]:
    """One untraced and one traced pass over ``ops``; per-layer numbers from the traced one."""
    layer = dict(import_times(children))
    plain = run_pass(ops, children)
    sound = checker_rejects_corruption(ops[0]) if plain.failed == 0 else True
    traced = run_pass(ops, children, traced=True)
    totals: dict[str, float] = {}
    for op in ops:
        try:
            trace = spans.load(children.work / f"{op.name}.spans.npz")
        except OSError:
            sound = False
            print(f"TRACE {op.name}: no spans written", file=sys.stderr)
            continue
        self_t = spans.self_times(trace)
        problems = spans.integrity(trace, self_t)
        if problems:
            sound = False
            print(f"TRACE {op.name}: {'; '.join(problems)}", file=sys.stderr)
        for key, value in spans.summarize(trace, self_t).items():
            totals[key] = totals.get(key, 0) + value
    layer.update(totals)
    calls = totals.get("states.wigner_rotation_matrix.calls", 0)
    hits = totals.get("states.wigner_rotation_matrix.cache_hits", 0)
    layer["states.wigner_rotation_matrix.cache_hit_ratio"] = hits / calls if calls else 0.0
    layer["trace.overhead_s"] = traced.wall - plain.wall
    print(f"untraced pass: {plain.wall:.4f} s, traced pass: {traced.wall:.4f} s")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    metrics = {e["name"]: {"value": layer.get(e["name"], 0), "unit": e["unit"]} for e in declared}
    return metrics, 2 * len(ops), plain.failed + traced.failed, sound


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int, bool]:
    work = ROOT / ".perfbench_work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        print("provenance: " + json.dumps(provenance(name, seed), sort_keys=True))
        children = Children(work, workloads.ENV.get(name, {}))
        if trace:
            return per_layer(workloads.WORKLOADS[name](seed, work), children)
        return end_to_end(name, seed, children, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))  # unwinds through Children.run
    if not (SRC / "steerkit" / "__init__.py").is_file():
        print(f"error: no steerkit sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed, sound = {}, 0, 0, True
    for name in names:
        result, n_attempted, n_failed, n_sound = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for key, entry in result.items():
            print(f"{name:18s} {key:48s} {entry['value']:.6g} {entry['unit']}")
        print(f"{name:18s} {'fail_frac':48s} {n_failed / n_attempted:.6g} ratio")
        if not n_sound:
            print(f"{name}: the self-checks of the benchmark failed", file=sys.stderr)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in result.items()})
        attempted += n_attempted
        failed += n_failed
        sound = sound and n_sound
    print(json.dumps({"correct": failed == 0 and sound, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
