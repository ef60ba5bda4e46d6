"""The syncprim benchmark: the library calls of the `classify`, `search` and
`syn-dfa` commands on seeded inputs, with every output validated.

    python3 perfbench/run.py --workload classify-idem --seed 1 --seconds 28 --trace 0

Run from a checkout of the repository; the library is imported from its
`src/` tree.  A pass runs every item of the workload once; passes repeat
while another one fits in --seconds (the first always runs).

--trace 0 reports the end-to-end metrics: setup_s (median over several
fresh processes of importing syncprim, making the inputs and one warm-up
call), wall_s (seconds to run every item once, tracing off: the sum of
each item's median time over the passes, calibrated by the speed probe
below) and peak_rss_mb (this process).  The uncalibrated time and the
probe's median are printed beside them.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of spans.py plus the tracing overhead.

Human-readable lines come first: every metric with its unit, the share of
items whose output failed validation, the sha256 digest of one pass's
serialised outputs, and the environment.  The last line is one JSON object
with the keys correct, attempted, failed and metrics.  Exit code 2, with no
result, when the library sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 20

# wall_s is calibrated by a speed probe run between items.  On a shared
# host the same pass can take 4 or 8 seconds minutes apart; scaling each
# pass by the probe's median over that pass follows those swings, and
# narrowed the spread of wall_s over ten seeds on three of the four
# workloads.  The probe spends about PROBE_SHARE of the run, and
# NOMINAL_PROBE_S is its median time on the 2-vCPU Xeon VM the first
# baseline was recorded on, so that wall_s reads as seconds on that
# machine at its typical speed.
PROBE_SHARE = 0.03
NOMINAL_PROBE_S = 0.0029
_PROBE_PERM = (5, 3, 9, 0, 7, 1, 10, 2, 8, 4, 6)

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


def setup(workload: str, seed: int, params=None):
    """Import the library, make the inputs and warm up; returns
    (seconds, lib, tracer, items)."""
    start = time.perf_counter()
    lib = workloads.load_library()
    tracer = spans.Tracer()
    items = workloads.make_items(lib, workload, seed, tracer, params)
    # one small call down each path, so any JIT compilation happens here
    lib.classify.classify(lib.catalog.cyclic(3))
    A = lib.automaton.cerny_automaton(3)
    lib.automaton.minimal_syn_dfa(A)
    lib.automaton.shortest_reset_word(A)
    return time.perf_counter() - start, lib, tracer, items


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-probe"],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])["setup_s"]


def speed_probe() -> float:
    """Seconds of a fixed computation that does not touch the library: the
    images of all 11-point subsets under one permutation, bit by bit, as in
    the inner loop of the pure-Python subset BFS."""
    start = time.perf_counter()
    images = {}
    for mask in range(1, 1 << 11):
        image, m, i = 0, mask, 0
        while m:
            if m & 1:
                image |= 1 << _PROBE_PERM[i]
            m >>= 1
            i += 1
        images[image] = mask
    return time.perf_counter() - start


def run_pass(lib, items, tracer, traced: bool, reference=None, speed=None):
    """Run every item once.  Returns (seconds of each item's library calls
    and serialisation, outputs, failures); validation is not timed or traced.
    With a speed list, speed probes run after each item, for about
    PROBE_SHARE of its time, and append to it."""
    times, outputs, failures = [], [], []
    for k, item in enumerate(items):
        gc.collect()  # free the previous item's garbage outside the timed region
        tracer.active = traced
        start = time.perf_counter()
        try:
            text = item.run()
        except Exception:  # a crash is a failed item, not a failed benchmark
            text, reasons = "", [traceback.format_exc(limit=3)]
        else:
            reasons = None
        times.append(time.perf_counter() - start)
        tracer.active = False
        if speed is not None:
            for _ in range(max(1, round(PROBE_SHARE * times[-1] / NOMINAL_PROBE_S))):
                speed.append(speed_probe())
        if reasons is None:
            try:
                reasons = item.check(lib, item, json.loads(text))
            except Exception:
                reasons = [traceback.format_exc(limit=3)]
        if reference is not None and text != reference[k]:
            reasons.append("output differs from the first pass")
        outputs.append(text)
        failures += [(item.name, r) for r in reasons]
    return times, outputs, failures


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[tuple[str, str]] = []
        self.reference = None

    def add(self, items, outputs, failures):
        self.attempted += len(items)
        self.failed += len({name for name, _ in failures})
        self.reasons += failures
        if self.reference is None:
            self.reference = outputs


def item_medians(passes: list[list[float]]) -> float:
    """Seconds to run every item once: the sum over items of each item's
    median time across passes, so a pass slowed by a stall or by cold
    allocation does not move the figure."""
    return sum(median(times) for times in zip(*passes))


def another_fits(start: float, passes: list[list[float]], seconds: float) -> bool:
    """Whether one more pass, as long as the median one so far, ends
    within seconds of start.  The first pass always runs."""
    if not passes:
        return True
    return time.perf_counter() - start + median(map(sum, passes)) <= seconds


def calibrate(times: list[float], speed: list[float]) -> list[float]:
    return [t * NOMINAL_PROBE_S / median(speed) for t in times]


def measure(lib, items, tracer, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics.  Each pass's item times are scaled by the
    nominal over the median probe time of that pass, which follows the
    host's speed more closely than one factor for the whole run."""
    passes, calibrated, probes = [], [], []
    start = time.perf_counter()
    while another_fits(start, passes, seconds):
        speed = []
        times, outputs, failures = run_pass(lib, items, tracer, False, tally.reference, speed)
        tally.add(items, outputs, failures)
        passes.append(times)
        calibrated.append(calibrate(times, speed))
        probes += speed
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_s": item_medians(calibrated),
        "wall_raw_s": item_medians(passes),
        "probe_s": median(probes),
        "peak_rss_mb": rss_kb / 1024.0,
        "passes": len(passes),
    }


def measure_traced(lib, items, tracer, seconds: float, tally: Tally) -> dict:
    plain, traced, layers, pairs = [], [], [], []
    start = time.perf_counter()
    while another_fits(start, pairs, seconds):
        speed = []
        times, outputs, failures = run_pass(lib, items, tracer, False, tally.reference, speed)
        tally.add(items, outputs, failures)
        plain.append(calibrate(times, speed))
        pairs.append(list(times))
        undo = spans.instrument(lib, tracer)
        tracer.reset()
        speed = []
        try:
            times, outputs, failures = run_pass(lib, items, tracer, True, tally.reference, speed)
        finally:
            undo()
        tally.add(items, outputs, failures)
        traced.append(calibrate(times, speed))
        pairs[-1] += times
        layers.append(spans.layer_metrics(tracer, sum(times)))
        tracer.reset()
    out = {key: median(layer[key] for layer in layers) for key in layers[0]}
    out["trace.overhead_frac"] = item_medians(traced) / item_medians(plain) - 1.0
    out["passes"] = len(traced)
    return out


def _git_commit() -> str:
    git = workloads.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(lib) -> dict:
    return {
        "backend": "numba" if lib.kernels.USE_NUMBA else "fallback",
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "threads": 1,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup(args.workload, args.seed)[0]}))
            return 0
        seconds, lib, tracer, items = setup(args.workload, args.seed)
        samples = [seconds]
        if not args.trace:
            samples += [probe_setup(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
    except workloads.LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except subprocess.SubprocessError as exc:
        print(f"error: set-up probe failed: {exc}", file=sys.stderr)
        return 2

    tally = Tally()
    if args.trace:
        result = measure_traced(lib, items, tracer, args.seconds, tally)
        units = {name: unit for name, (unit, _) in spans.PER_LAYER.items()}
    else:
        result = measure(lib, items, tracer, args.seconds, tally)
        result["setup_s"] = median(samples)
        units = END_TO_END
    metrics = {name: {"value": result[name], "unit": unit} for name, unit in units.items()}

    print(f"workload {args.workload}  seed {args.seed}  items {len(items)}  "
          f"passes {result['passes']}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<56} {m['value']:>14.6g} {m['unit']}")
    for name in ("wall_raw_s", "probe_s"):
        if name in result:
            print(f"  {name:<56} {result[name]:>14.6g} s (not a metric)")
    print(f"  {'check_fail_frac':<56} {tally.failed / tally.attempted:>14.6g} "
          f"({tally.failed} of {tally.attempted} items)")
    print(f"  sha256 {workloads.digest(tally.reference)}")
    print(f"  env {json.dumps(environment(lib), sort_keys=True)}")
    for name, reason in tally.reasons[:10]:
        print(f"FAILED {name}: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
