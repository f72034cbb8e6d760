"""Offline live-path benchmark of the kgverify CLI.

    python3 perfbench/run.py --workload websearch --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both passes

Each timed run is one CLI command in a fresh child process (a closed loop
with one client), in the live code path, with every HTTP request answered by
a seeded fake remote side that sleeps for a modelled latency (see fake.py).
A run first executes the command once at zero latency as the output
reference, then measures set-up with short probe children, then runs timed
children until ``--seconds`` are used up. Every child's outputs must match the
generator's ground truth and the reference, byte for byte after
normalisation, or the benchmark fails without reporting.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced children and reports the per-layer metrics, including the
tracing overhead (traced minus untraced wall). The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import corpus as corpus_mod  # noqa: E402
import fake  # noqa: E402
import gate  # noqa: E402
import layers  # noqa: E402

# A second seed, kept out of tuning, on which later claims are re-checked.
VALIDATION_SEED = 7919
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150
ITEM_FUNCTION = {
    "websearch": "verifier:Verifier.verify_via_web_search",
    "wikipedia": "verifier:Verifier.verify_via_wikipedia",
    "evaluate-triples": "llm:LlmGateway.complete",
}
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_latency_p50_s": "s",
    "item_latency_p90_s": "s",
    "llm_calls_per_item": "count",
    "http_requests_per_item": "count",
    "cpu_s_per_item": "s",
    "peak_rss_mb": "MB",
    "completed_item_ratio": "ratio",
}


class BenchmarkError(Exception):
    """The run cannot produce trustworthy numbers."""


def pinned_env(work: Path, root: Path) -> dict[str, str]:
    """The child's whole environment; nothing is inherited from the caller.

    requests scans os.environ on every request (proxies, CA bundles, netrc),
    and the config resolver reads KGVERIFY_* variables, so an inherited
    environment would change both behaviour and CPU per request.
    """
    return {
        "PATH": "/usr/local/bin:/usr/bin:/bin",
        "HOME": str(work),
        "LANG": "C.UTF-8",
        "LC_ALL": "C.UTF-8",
        "TZ": "UTC",
        "PYTHONHASHSEED": "0",
        "PYTHONPATH": str(root / "src"),
        "KGVERIFY_LLM_TOKEN": "bench-llm-token",
        "KGVERIFY_SEARCH_KEY": "bench-search-key",
        "KGVERIFY_SEARCH_CX": "bench-search-cx",
    }


@dataclass
class ChildRun:
    setup_s: float
    post_wall_s: float
    cpu_after_setup_s: float
    peak_rss_mb: float
    stats: dict
    normalised: dict
    completed: int


class Bench:
    """One workload's generated corpus and work directory."""

    def __init__(self, root: Path, workload: str, seed: int, scale: float = 1.0):
        root = root.resolve()
        self.workload = workload
        self.corpus = corpus_mod.generate(workload, seed, scale)
        self.digest = self.corpus.digest()
        work_parent = root / ".perfbench_work"
        work_parent.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_parent))
        (self.work / "corpus.json").write_text(json.dumps(self.corpus.remote), encoding="utf-8")
        for name, text in self.corpus.files.items():
            path = self.work / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        self.env = pinned_env(self.work, root)
        self.attempted = len(self.corpus.expected.get("sessions", [])) or sum(
            sum(cell.values()) for table in self.corpus.expected.get("tables", {}).values()
            for cell in table.values())
        self.reference: dict | None = None
        self._n = 0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            self.work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    def argv(self) -> list[str]:
        return self.corpus.argv + ["--live", "--out", "out", "--fixed-clock", corpus_mod.FIXED_CLOCK]

    def run_child(self, latency_scale: float = 1.0, tail_salt: int = 0, trace: bool = False,
                  probe: bool = False, bypass_fake: bool = False) -> ChildRun:
        """Run the command once; tail_salt picks the child's own heavy-tail draw."""
        self._n += 1
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        spec_path = self.work / f"spec-{self._n}.json"
        stats_path = self.work / f"stats-{self._n}.jsonl"
        spec = {
            "corpus_path": str(self.work / "corpus.json"),
            "tail_key": f"{self.corpus.seed}:{tail_salt}",
            "latency_scale": latency_scale, "argv": self.argv(),
            "item_function": ITEM_FUNCTION[self.workload], "trace": trace, "probe": probe,
            "bypass_fake": bypass_fake, "stats_path": str(stats_path),
        }
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        with open(self.work / "stderr.txt", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), str(spec_path)],
                cwd=self.work, env=self.env, stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            exited = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        lines = stats_path.read_text(encoding="utf-8").splitlines() if stats_path.exists() else []
        if len(lines) != 2:
            raise BenchmarkError(f"child exited with {proc.returncode} without stats; stderr:\n"
                                 + self.stderr_tail())
        stats, tail = json.loads(lines[0]), json.loads(lines[1])
        if stats["violations"]:
            raise BenchmarkError("hook guard: " + "; ".join(stats["violations"][:3]))
        if stats["first_request"] is None:
            raise BenchmarkError("hook guard: the fake adapter saw zero requests")
        setup = stats["first_request"] - spawned - stats["overhead_before_s"]
        if probe:
            return ChildRun(setup, 0.0, 0.0, 0.0, stats, {}, 0)
        if proc.returncode != 0:
            raise BenchmarkError(f"command exited with {proc.returncode}; stderr:\n"
                                 + self.stderr_tail())
        if not stats["item_calls"].get(ITEM_FUNCTION[self.workload]):
            raise BenchmarkError(f"hook guard: {ITEM_FUNCTION[self.workload]} was never called")
        if trace:
            missing = layers.missing_layers(self.workload, stats)
            if missing:
                raise BenchmarkError(f"hook guard: no spans for {', '.join(missing)}")
        outputs = gate.read_outputs(out_dir)
        normalised = gate.normalise(outputs)
        if self.reference is None:
            gate.check_ground_truth(self.workload, self.corpus.expected, outputs)
            self.reference = normalised
        elif normalised != self.reference:
            raise gate.GateFailure("output differs from the zero-latency reference: "
                                   + gate.first_difference(self.reference, normalised))
        cpu_total = usage.ru_utime + usage.ru_stime
        return ChildRun(
            setup_s=setup,
            post_wall_s=exited - stats["first_request"] - tail["overhead_after_s"],
            cpu_after_setup_s=(cpu_total - stats["cpu_at_first"] - stats["adapter_cpu_s"]
                               - tail["cpu_after_s"]),
            peak_rss_mb=usage.ru_maxrss / 1024,
            stats=stats,
            normalised=normalised,
            completed=gate.completed_items(self.workload, outputs),
        )

    def stderr_tail(self) -> str:
        path = self.work / "stderr.txt"
        text = path.read_text(encoding="utf-8", errors="replace") if path.exists() else ""
        return "\n".join(text.splitlines()[-15:])


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(bench: Bench, children: list[ChildRun], setups: list[float]) -> dict:
    items = [t for c in children for t in c.stats["items"]]
    per_child = []
    for c in children:
        kinds = c.stats["kinds"]
        llm = kinds.get("llm", {}).get("requests", 0)
        requests = sum(v["requests"] for v in kinds.values())
        per_child.append({
            "items_per_s": c.completed / c.post_wall_s,
            "llm_calls_per_item": llm / bench.attempted,
            "http_requests_per_item": requests / bench.attempted,
            "cpu_s_per_item": c.cpu_after_setup_s / bench.attempted,
            "peak_rss_mb": c.peak_rss_mb,
        })
    values = {
        "setup_s": _median(setups),
        "items_per_s": _median([p["items_per_s"] for p in per_child]),
        "item_latency_p50_s": _percentile(items, 50),
        "item_latency_p90_s": _percentile(items, 90),
    }
    for key in ("llm_calls_per_item", "http_requests_per_item", "cpu_s_per_item", "peak_rss_mb"):
        values[key] = _median([p[key] for p in per_child])
    values["completed_item_ratio"] = (sum(c.completed for c in children)
                                      / (bench.attempted * len(children)))
    samples = {"setup_s": len(setups), "item_latency_p50_s": len(items),
               "item_latency_p90_s": len(items)}
    return {"values": values, "samples": samples, "children": len(children)}


def _timed_loop(seconds: float, step) -> None:
    """Call step() at least once, and again while another call fits the time budget."""
    began = time.monotonic()
    longest = 0.0
    while True:
        t0 = time.monotonic()
        step()
        longest = max(longest, time.monotonic() - t0)
        if time.monotonic() + longest > began + seconds:
            return


def log(line: str) -> None:
    print(line, flush=True)


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    bench = Bench(root, workload, seed)
    try:
        log(f"# {workload}: seed {seed}, corpus sha256 {bench.digest}")
        log(f"# input properties: {json.dumps(bench.corpus.properties, sort_keys=True)}")
        reference = bench.run_child(latency_scale=0.0)
        zero_cpu_per_call = reference.cpu_after_setup_s / max(1, sum(
            v["requests"] for v in reference.stats["kinds"].values()))
        log(f"# zero-latency reference: {reference.post_wall_s:.3f} s after set-up, "
            f"program CPU {1000 * zero_cpu_per_call:.3f} ms per HTTP request, "
            f"output digest {gate.digest(reference.normalised)[:16]}")
        kinds = reference.stats["kinds"]
        remote = [v for k, v in kinds.items() if k != "llm"]
        llm = kinds.get("llm", {"requests": 0, "repeats": 0})
        log(f"# measured shares: net.repeat_share "
            f"{sum(v['repeats'] for v in remote) / max(1, sum(v['requests'] for v in remote)):.4f}, "
            f"llm.duplicate_share {llm['repeats'] / max(1, llm['requests']):.4f}, "
            f"skip kinds {json.dumps(gate.skip_kinds(reference.normalised), sort_keys=True)}")
        if not trace:
            setups = [bench.run_child(probe=True).setup_s for _ in range(SETUP_PROBES)]
            children: list[ChildRun] = []
            _timed_loop(seconds, lambda: children.append(
                bench.run_child(tail_salt=len(children) + 1)))
            setups += [c.setup_s for c in children]
            result = end_to_end(bench, children, setups)
            wait = _median([sum(v["wait_s"] for v in c.stats["kinds"].values()) / c.post_wall_s
                            for c in children])
            log(f"# {result['children']} timed children; injected wait is {100 * wait:.1f}% "
                f"of post-set-up wall")
            metrics = {name: {"value": result["values"][name], "unit": unit}
                       for name, unit in END_TO_END.items()}
            for name, unit in END_TO_END.items():
                n = result["samples"].get(name, result["children"])
                log(f"{workload:17s} {name:24s} {result['values'][name]:14.6f} {unit:6s} n={n}")
            attempted = bench.attempted * len(children)
            failed = attempted - sum(c.completed for c in children)
        else:
            pairs: list[tuple[ChildRun, ChildRun]] = []
            _timed_loop(seconds, lambda: pairs.append(
                (bench.run_child(tail_salt=len(pairs) + 1),
                 bench.run_child(tail_salt=len(pairs) + 1, trace=True))))
            per_child = []
            for plain, traced in pairs:
                values = layers.aggregate(traced.stats)
                values["trace.overhead_s"] = traced.post_wall_s - plain.post_wall_s
                per_child.append(values)
            metrics = {}
            for name, (unit, _) in layers.METRICS.items():
                value = _median([v[name] for v in per_child])
                metrics[name] = {"value": value, "unit": unit}
                log(f"{workload:17s} {name:34s} {value:14.6f} {unit:6s} n={len(per_child)}")
            attempted = bench.attempted * 2 * len(pairs)
            failed = attempted - sum(p.completed + t.completed for p, t in pairs)
        return {"correct": True, "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        bench.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(corpus_mod.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = HERE.parent
    if not (root / "src" / "kgverify" / "cli.py").is_file():
        print(f"error: kgverify sources not found under {root / 'src'}", file=sys.stderr)
        return 2
    log(f"# latency model: {json.dumps(fake.latency_model(), sort_keys=True)}")
    env = pinned_env(Path("<work>"), Path("<checkout>"))
    log(f"# child environment: {json.dumps(env, sort_keys=True)}")
    log(f"# validation seed for later claims: {VALIDATION_SEED}")
    workloads = corpus_mod.WORKLOADS if args.workload == "all" else (args.workload,)
    passes = (0, 1) if args.workload == "all" else (args.trace,)
    try:
        for workload in workloads:
            for trace in passes:
                result = run_workload(root, workload, args.seed, args.seconds, bool(trace))
    except (BenchmarkError, gate.GateFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload != "all":
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
