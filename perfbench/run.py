"""FinePack reproduction benchmark: one workload, measured and checked.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep-irregular-cold --seed 7 \\
        --seconds 20 --trace 0

Each repetition of the workload runs in a fresh Python process with
fresh temporary cache directories (under ``.perfbench_tmp/`` in the
checkout), so every repetition pays the same imports and starts with
empty analytical memos.  Repetitions continue while the next one is
expected to end within ``--seconds``; at least one always runs.  The
reference kernel (``kernel.py``) is timed inside the processes doing
the work, and host times are reported in reference seconds
(``ref-s``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced repetitions, prints the per-layer metrics of the
traced ones, plus what tracing cost, and writes their spans to
``.perfbench_spans/<workload>.jsonl``.  The metrics, their units and
the workloads are read from ``BENCHMARK.json``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics``.  A failed output check makes the exit code 1.

``--write-goldens`` runs every workload once at the default seed and
rewrites ``goldens.json`` with the fingerprints of its cells.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from kernel import reference_kernel_ms, to_ref_seconds  # noqa: E402
from workloads import DEFAULT_SEED  # noqa: E402

#: Setups timed per run (repetitions plus setup-only ones), and the
#: most time setup-only repetitions may add to a run.
SETUP_SAMPLES = 5
SETUP_EXTRA_S = 4.0

#: Every repetition of a run must end this long after the run starts
#: (a hung one is killed, with its pool workers, and the run fails).
DEADLINE_S = 165.0

#: The metrics, their units and the workloads are those listed in
#: ``BENCHMARK.json``.  ``ref-s`` values (and ``setup_s``, whose unit
#: there is ``s``) are reference seconds.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

#: Where a ``--trace 1`` run writes the spans of its traced
#: repetitions (JSON lines, one file per workload, replaced each run).
SPANS_DIR = ROOT / ".perfbench_spans"


class BenchError(Exception):
    pass


def run_rep(workload: str, seed: int, tmp: Path, env: dict, deadline: float, *,
            trace: bool = False, post: bool = False, setup_only: bool = False) -> dict:
    """One repetition in a fresh process (and process group, so that a
    repetition killed at ``deadline`` takes its pool workers with it)."""
    tmp.mkdir(parents=True)
    out = tmp / "rep.json"
    cmd = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload,
        "--seed", str(seed), "--tmp", str(tmp), "--trace", str(int(trace)),
        "--post", str(int(post)), "--setup-only", str(int(setup_only)),
        "--out", str(out),
    ]
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [*cmd, "--t0", repr(t0)], env=env, cwd=ROOT, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        _, stderr = proc.communicate(timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{workload} repetition did not finish in time") from None
    duration = time.monotonic() - t0
    if proc.returncode != 0 or not out.exists():
        raise BenchError(
            f"{workload} repetition exited {proc.returncode}:\n{stderr[-4000:]}"
        )
    record = json.loads(out.read_text())
    # Time spent measuring, without the accuracy pass.
    record["measure_s"] = duration - record.get("accuracy_s", 0.0)
    record["traced"] = trace
    if trace:
        record["spans"] = (tmp / "spans" / "all.jsonl").read_text()
    shutil.rmtree(tmp, ignore_errors=True)
    return record


def measure(args, tmp_root: Path, env: dict, deadline: float) -> tuple[list[dict], list[dict]]:
    """Repetitions while the next is expected to end within
    ``--seconds`` (at least one; with ``--trace 1`` at least one
    untraced and one traced), then setup-only repetitions until
    ``SETUP_SAMPLES`` setups are timed or ``SETUP_EXTRA_S`` is spent."""
    reps: list[dict] = []
    spent = 0.0
    while True:
        i = len(reps)
        rep = run_rep(
            args.workload, args.seed, tmp_root / f"rep{i}", env, deadline,
            trace=bool(args.trace) and i % 2 == 1,
            post=(i == 0 and not args.trace),
        )
        reps.append(rep)
        spent += rep["measure_s"]
        expected = statistics.median(r["measure_s"] for r in reps)
        if args.trace and len(reps) < 2:
            continue
        if spent + expected > args.seconds:
            break
    setups = [r for r in reps if not r["traced"]]
    spent = 0.0
    while len(setups) < SETUP_SAMPLES and spent < SETUP_EXTRA_S:
        rep = run_rep(
            args.workload, args.seed, tmp_root / f"setup{len(setups)}", env,
            deadline, setup_only=True,
        )
        setups.append(rep)
        spent += rep["measure_s"]
    return reps, setups


def summarize(args, reps: list[dict], setups: list[dict]) -> dict:
    ref_ms = reference_kernel_ms()
    for r in reps:
        r["wall_ref_s"] = to_ref_seconds(r["wall_raw_s"], r["kernel_ms"], ref_ms)
    for r in setups:
        r["setup_ref_s"] = to_ref_seconds(r["setup_raw_s"], r["setup_kernel_ms"], ref_ms)

    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    attempted = sum(len(r["checks"]) for r in reps)
    failed_cells = [
        (i, label, errs)
        for i, r in enumerate(reps)
        for label, errs in r["checks"].items()
        if errs
    ]
    problems = [f"rep {i} {label}: {'; '.join(errs)}" for i, label, errs in failed_cells]
    first = reps[0]
    for i, r in enumerate(reps[1:], 1):
        if r["fingerprints"] != first["fingerprints"]:
            problems.append(f"rep {i} fingerprints differ from rep 0")
        if r["stores"] != first["stores"]:
            problems.append(f"rep {i} store count {r['stores']} != {first['stores']}")
    failed = min(len(problems), attempted)

    def med(rs, key):
        return statistics.median(r[key] for r in rs)

    if args.trace:
        for r in traced:
            r["layers"] = {
                name: to_ref_seconds(v, r["kernel_ms"], ref_ms)
                if PER_LAYER[name] == "ref-s" else v
                for name, v in r["layers"].items()
            }
        metrics = {name: med([r["layers"] for r in traced], name) for name in traced[0]["layers"]}
        metrics["host.raw_wall_s"] = med(plain, "wall_raw_s")
        metrics["host.raw_setup_s"] = med(setups, "setup_raw_s")
        metrics["host.ref_kernel_ms"] = med(plain, "kernel_ms")
        metrics["bench.span_overhead_x"] = med(traced, "wall_ref_s") / med(plain, "wall_ref_s")
        units = PER_LAYER
    else:
        wall = med(plain, "wall_ref_s")
        metrics = {
            "setup_s": med(setups, "setup_ref_s"),
            "wall_s": wall,
            "stores_per_s": first["stores"] / wall,
            "peak_rss_mb": med(plain, "peak_rss_mib"),
            "passed_frac": (attempted - failed) / attempted,
            **first["accuracy"],
        }
        units = END_TO_END
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "diagnostics": {
            "reps": len(reps),
            "stores": first["stores"],
            "ref_kernel_ms": ref_ms,
            **{key: [r[key] for r in reps] for key in ("kernel_ms", "wall_raw_s", "wall_ref_s")},
            **{key: [r[key] for r in setups] for key in (
                "setup_kernel_ms", "setup_raw_s", "setup_ref_s",
            )},
        },
    }


def write_goldens(tmp_root: Path, env: dict) -> None:
    from checks import GOLDENS_FILE

    goldens = {}
    for name in WORKLOADS:
        rep = run_rep(
            name, DEFAULT_SEED, tmp_root / name, env,
            time.monotonic() + DEADLINE_S, post=True,
        )
        cells = {**rep["fingerprints"], **rep.get("post_fingerprints", {})}
        goldens[name] = dict(sorted(cells.items()))
        print(f"{name}: {len(goldens[name])} cells")
    GOLDENS_FILE.write_text(json.dumps(goldens, indent=1) + "\n")
    print(f"wrote {GOLDENS_FILE}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-goldens", action="store_true")
    args = ap.parse_args(argv)
    if not args.write_goldens and args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    tmp_root = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp_root.mkdir(parents=True)
    env = {
        **os.environ,
        "TMPDIR": str(tmp_root),
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": str(ROOT / "src"),
    }
    # Bytecode is cached beside the sources whatever the caller's
    # settings, so every setup imports as an installed copy does.
    for var in ("REPRO_TRACE_CACHE", "REPRO_OUTCOME_STORE",
                "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(var, None)
    try:
        # Compile and page in the sources once, outside every clock.
        for cmd in (
            ["-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
            ["-c", "import repro.cli, repro.analytical, repro.perf.harness"],
        ):
            subprocess.run(
                [sys.executable, *cmd], env=env, cwd=ROOT, check=True,
                stdout=subprocess.DEVNULL, timeout=deadline - time.monotonic(),
            )
        if args.write_goldens:
            write_goldens(tmp_root, env)
            return 0
        reps, setups = measure(args, tmp_root, env, deadline)
        result = summarize(args, reps, setups)
    except (BenchError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
        try:
            tmp_root.parent.rmdir()
        except OSError:
            pass

    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans_file = SPANS_DIR / f"{args.workload}.jsonl"
        spans_file.write_text("".join(r["spans"] for r in reps if r["traced"]))
        print(f"spans of the traced repetitions: {spans_file}")
    diag = result["diagnostics"]
    print(f"workload {args.workload}  seed {args.seed}  repetitions {diag['reps']}")
    print(f"input size: {diag['stores']} simulated remote stores per repetition")
    for key in ("kernel_ms", "wall_raw_s", "wall_ref_s",
                "setup_kernel_ms", "setup_raw_s", "setup_ref_s"):
        print(f"{key} per repetition: " + " ".join(f"{x:.4g}" for x in diag[key]))
    for name, m in result["metrics"].items():
        print(f"  {name:<32} {m['value']:>16.6g} {m['unit']}")
    for p in result["problems"]:
        print(f"FAILED {p}")
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
