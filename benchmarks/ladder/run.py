"""Run the layer-ladder benchmark.

``python3 benchmarks/ladder/run.py --seed 13`` runs every workload — an
untraced run for the gated end-to-end metrics, then a traced run for the
per-layer ones — checks every answer, prints one line per (workload,
metric) and writes one JSON document under ``out/``.  With ``--workload``
it runs that workload once and ends with the one-line JSON result the
``BENCHMARK.json`` contract asks for.  Every measured process is a fresh
subprocess of this one, so ``ru_maxrss``, plan caches and kernel counters
never leak between workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
from statistics import median
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from stats import quartile_spread  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [entry["name"] for entry in CONTRACT["workloads"]]
END_TO_END = {entry["name"]: entry for entry in CONTRACT["end_to_end"]}
PER_LAYER = {entry["name"]: entry for entry in CONTRACT["per_layer"]}
EXTRA_SETUPS = 2
#: Hash randomisation off in every measured process, so spill partition
#: routing and set iteration order — and with them the counts — repeat.
CHILD_ENV = {"PYTHONHASHSEED": "0"}
CHILD_TIMEOUT = 170


# -- the orchestrating parent ------------------------------------------------


def spawn(args: argparse.Namespace, workload: str, seed: int, role: str, ladder: bool) -> dict:
    """Run one measured child in its own temp dir; return its record."""
    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT)
    command = [
        sys.executable, str(HERE / "run.py"), "--role", role,
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--spawned-at", repr(time.time()),
    ]
    command += ["--ladder"] if ladder else []
    command += ["--smoke"] if args.smoke else []
    # Its own process group, so that whatever happens to the child no server
    # worker of its outlives this call.
    process = subprocess.Popen(
        command, env={**os.environ, **CHILD_ENV, "TMPDIR": scratch},
        stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        output, _ = process.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{workload} ({role}) ran past {CHILD_TIMEOUT} s") from None
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the usual case: the child and its workers have all ended
        process.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    if process.returncode != 0:
        raise SystemExit(f"{workload} ({role}) exited with code {process.returncode}")
    return json.loads(output.splitlines()[-1])


def run_once(args: argparse.Namespace, workload: str, seed: int, trace: bool) -> dict:
    """One run of one workload: the measured child plus repeated set-ups."""
    record = spawn(args, workload, seed, "main", ladder=trace)
    if not trace and not args.smoke:
        setups = [record["end_to_end"]["setup_s"]]
        setups += [
            spawn(args, workload, seed, "setup", ladder=False)["setup_s"]
            for _ in range(EXTRA_SETUPS)
        ]
        record["end_to_end"]["setup_s"] = median(setups)
    return record


def show(workload: str, values: Dict[str, float], table: Dict[str, dict]) -> None:
    """One line per (workload, metric), with its unit."""
    for name, spec in table.items():
        value = values[name]["value"] if isinstance(values[name], dict) else values[name]
        text = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"{workload:18s} {name:32s} {text:>14s} {spec['unit']}")


def cells(runs: List[Dict[str, float]], table: Dict[str, dict]) -> Dict[str, dict]:
    """Median, quartile spread and raw values of every listed metric."""
    summary = {}
    for name, spec in table.items():
        values = [run[name] for run in runs]
        summary[name] = {
            "median": median(values),
            "spread": quartile_spread(values),
            "unit": spec["unit"],
            "values": values,
        }
    return summary


def run_sets(args: argparse.Namespace, names: List[str]) -> Tuple[dict, dict]:
    """Run ``--repeat`` sets of the named workloads; returns the document.

    Each set uses the next seed.  A set runs every workload untraced (the
    gated end-to-end metrics) and then traced (the per-layer metrics), or
    only one of the two when ``--trace`` says so.
    """
    began = time.time()
    seeds = [args.seed + k for k in range(args.repeat)]
    passes = [False, True] if args.trace is None else [bool(args.trace)]
    runs: Dict[str, Dict[bool, List[dict]]] = {
        name: {False: [], True: []} for name in names
    }
    for seed in seeds:
        for name in names:
            for trace in passes:
                record = run_once(args, name, seed, trace)
                runs[name][trace].append(record)
                if trace:
                    show(name, record["per_layer"], PER_LAYER)
                    show(name, record["extra"], record["extra"])
                else:
                    show(name, record["end_to_end"], END_TO_END)
                for problem in record["problems"]:
                    print(f"{name:18s} PROBLEM {problem}")
    workloads = {}
    for name in names:
        untraced, traced = runs[name][False], runs[name][True]
        entry = {
            "ops": (untraced + traced)[0]["ops"],
            "attempted": sum(r["attempted"] for r in untraced + traced),
            "failed": sum(r["failed"] for r in untraced + traced),
            "problems": [p for r in untraced + traced for p in r["problems"]],
        }
        entry["calibration_ms"] = [r["calibration_ms"] for r in untraced + traced]
        if untraced:
            entry["end_to_end"] = cells([r["end_to_end"] for r in untraced], END_TO_END)
        if traced:
            entry["per_layer"] = cells([r["per_layer"] for r in traced], PER_LAYER)
            entry["extra"] = traced[0]["extra"]  # diagnostics, first seed only
        workloads[name] = entry
    document = {
        **environment(),
        "seeds": seeds,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "load": "closed loop: 1 caller in-process, 2 keep-alive clients served",
        "wall_total_s": time.time() - began,
        "workloads": workloads,
    }
    with open(OUT / "history.jsonl", "a", encoding="utf-8") as handle:
        line = {k: v for k, v in document.items() if k != "workloads"}
        line["ops"] = {name: entry["ops"] for name, entry in workloads.items()}
        line["correct"] = not any(entry["problems"] for entry in workloads.values())
        handle.write(json.dumps(line) + "\n")
    return document, runs


def environment() -> dict:
    """What a number must be recorded with to be comparable later."""
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        commit = done.stdout.strip() or commit
    return {
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }


def main(argv: Optional[List[str]] = None) -> int:
    """Parse arguments and run; returns the exit code."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="run only this workload")
    parser.add_argument("--seed", type=int, default=13)
    parser.add_argument("--seconds", type=float, default=float(CONTRACT["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only, 1: per-layer only (default: both)")
    parser.add_argument("--smoke", action="store_true",
                        help="a few operations per workload, no repeated set-ups")
    parser.add_argument("--repeat", type=int, default=1, metavar="K",
                        help="run K sets on seeds SEED..SEED+K-1 and print spreads")
    parser.add_argument("--out", help="where to write the JSON document")
    parser.add_argument("--role", choices=("main", "setup"), help=argparse.SUPPRESS)
    parser.add_argument("--ladder", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.role:
        sys.path.insert(0, str(ROOT / "src"))
        from child import measure

        print(json.dumps(measure(args, OUT)))
        return 0
    if args.smoke and args.trace is None:
        args.trace = 0
    names = [args.workload] if args.workload else WORKLOADS
    document, runs = run_sets(args, names)
    if args.repeat > 1:
        for name, entry in document["workloads"].items():
            for section in ("end_to_end", "per_layer"):
                for metric, cell in entry.get(section, {}).items():
                    print(f"{name:18s} {metric:32s} median {cell['median']:14.4f} "
                          f"{cell['unit']:6s} spread {100 * cell['spread']:5.1f}%")
    target = Path(args.out) if args.out else OUT / f"ladder-{int(time.time())}.json"
    target.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {target}")

    correct = not any(entry["problems"] for entry in document["workloads"].values())
    if args.workload and args.trace is not None and args.repeat == 1:
        # The contract's result line; correctness travels in it, not in the
        # exit code.
        record = runs[args.workload][bool(args.trace)][0]
        table = PER_LAYER if args.trace else END_TO_END
        values = record["per_layer" if args.trace else "end_to_end"]
        print(json.dumps({
            "correct": correct,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": values[name], "unit": spec["unit"]}
                for name, spec in table.items()
            },
        }))
        return 0
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
