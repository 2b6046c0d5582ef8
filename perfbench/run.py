"""End-to-end benchmark of the ddrcomplex CLI, with a traced per-layer mode.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload verify_k1_graded --seed 3 --seconds 40 --trace 0

Each workload (see ``workloads.py``) builds a mesh from ``--seed`` and sends
CLI requests on it, one after another, each in a fresh process (a closed
loop with one client).  Every request's answer is checked by ``gate.py``.

``--trace 0`` times the requests from outside and prints the end-to-end
metrics: ``setup_s`` (median wall time of a fresh process that imports
ddrcomplex, loads the mesh and computes its orientation), ``request_ref.p50``
and ``request_ref.max`` (launch to exit), ``cpu_ref.p50`` (user + system CPU
of the request process, from ``wait4``) and ``peak_rss_mb``.  The ``_ref``
metrics divide each request's seconds by the time of a fixed pure-Python
reference loop run just before and just after it in this process, so that
the speed drift of a shared machine cancels; the plain seconds
(``request_s.p50``, ``request_s.max``, ``cpu_s.p50``) are printed above the
result line and kept in the details file.  It also runs two
negative controls of the gate: a fault-injected request and a report
checked against a wrong Betti vector must both count as failed, or the
run is not ``correct``.

``--trace 1`` alternates untraced requests with requests run through
``traced.py`` and prints the per-layer metrics (self time per span name,
exact counts, tracing overhead), plus growth exponents from one traced
request on a smaller mesh of the same family.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (run
environment, every sample, exact counts, drift) go to
``.perfbench/<workload>-seed<seed>-trace<t>.json``.  Exact counts are also
kept per source digest in ``.perfbench/exact-<digest>.json``; a later run of
the same source that reads different counts is flagged as drift.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from gate import gate  # noqa: E402
from meshgen import distinct_shape_ratio  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# One BLAS thread: steadier than nproc (2) on a shared 2-CPU machine, and the
# requests' dense work is too small to gain from a second thread.
BLAS_THREADS = 1
MIN_REQUESTS = 3
MIN_SETUPS = 5
REFERENCE_LOOP = 500_000   # iterations of the reference loop (about 0.05 s)
REQUEST_TIMEOUT_S = 120.0

SETUP_CODE = ("import sys, ddrcomplex as d; "
              "d.compute_orientation(d.load_mesh(sys.argv[1]))")
ENV_CODE = """import json, platform, numpy, scipy
blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}))"""

# Exact counts that depend on the mesh's coordinates, so on the seed.
SEED_DEPENDENT_COUNTS = ("verification.rank.min_gap", "vtkio.bytes")

LAYER_GROUPS = ("quadrature", "layouts", "operators.local", "operators.global",
                "operators.low", "homology", "lifting", "verification.rank",
                "verification.family")


class Checkout:
    """The checkout the benchmark runs in: paths, a scratch directory for this
    process under ``.perfbench``, and the environment of child processes."""

    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        self.state = os.path.join(root, ".perfbench")
        self.work = os.path.join(self.state, f"work-{os.getpid()}")
        os.makedirs(self.work)
        self.env = {k: v for k, v in os.environ.items() if k != "DDR_THREADS"}
        self.env["PYTHONPATH"] = self.src
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def run(self, argv: list[str], tag: str) -> dict:
        """Run one child to completion; wall time, CPU time and peak RSS from outside."""
        out, err = self.path(f"{tag}.out"), self.path(f"{tag}.err")
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env, stdout=fo, stderr=fe)
            timer = threading.Timer(REQUEST_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {"rc": proc.returncode, "wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0, "out": out, "err": err}


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def _remove(*paths: str) -> None:
    for p in paths:
        if os.path.exists(p):
            os.remove(p)


def tree_digest(*dirs: str) -> str:
    """SHA-256 over the names and contents of the Python files in ``dirs``."""
    h = hashlib.sha256()
    for d in dirs:
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                h.update(name.encode())
                with open(os.path.join(d, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def git_commit(root: str) -> str | None:
    head = _read(os.path.join(root, ".git", "HEAD"))
    if head is None:
        return None
    head = head.strip()
    if head.startswith("ref: "):
        ref = _read(os.path.join(root, ".git", head[5:]))
        return ref.strip() if ref else head
    return head


class Session:
    """One benchmark run: a workload, its mesh, and the requests sent on it."""

    def __init__(self, co: Checkout, workload, seed: int):
        self.co = co
        self.w = workload
        rng = random.Random(seed)
        self.block = workload.make(rng)
        self.probe = workload.probe(rng)
        self.mesh = self._write_mesh("mesh.json", self.block)
        self.n = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.reports: list[dict] = []

    def _write_mesh(self, name, block) -> str:
        path = self.co.path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(block.doc, fh)
        return path

    def cli_args(self, mesh: str, report: str, vtk: str) -> list[str]:
        args = [*self.w.args, "--mesh", mesh, "--out", report, "--no-timestamp"]
        if self.w.generators:
            args += ["--generators", vtk]
        return args

    def request(self, traced: bool = False, block=None, mesh: str | None = None) -> dict:
        """One gated request; counted in attempted/failed unless it is the probe."""
        block, mesh = block or self.block, mesh or self.mesh
        self.n += 1
        tag = f"req{self.n}"
        report, vtk, spans = (self.co.path(f"{tag}.{ext}") for ext in ("report.json", "vtk", "spans.json"))
        args = self.cli_args(mesh, report, vtk)
        if traced:
            argv = [sys.executable, os.path.join(HERE, "traced.py"), "--spans", spans, "--", *args]
        else:
            argv = [sys.executable, "-m", "ddrcomplex.cli", *args]
        res = self.co.run(argv, tag)
        text = _read(report)
        try:
            doc = json.loads(text) if text else None
        except json.JSONDecodeError:
            doc = None
        vtk_text = _read(vtk) if self.w.generators else None
        problems = gate(res["rc"], doc, block.betti, vtk_text, self.w.generators)
        res.update(report=doc, problems=problems,
                   digest=hashlib.sha256(text.encode()).hexdigest() if text else None,
                   vtk_bytes=len(vtk_text.encode()) if vtk_text else 0)
        if traced:
            res["spans"] = json.loads(_read(spans) or "null")
        if block is self.block:
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{tag}: {'; '.join(problems)} :: "
                                     f"{(_read(res['err']) or '')[-400:]}")
            if res["digest"]:
                self.digests.add(res["digest"])
            if doc:
                self.reports.append(doc)
        _remove(report, vtk, spans, res["out"], res["err"])
        return res

    def wrong_betti_control(self) -> list[str]:
        """The gate must reject a passing report checked against a wrong Betti vector."""
        b = list(self.block.betti)
        wrong = [b[0], b[1] + 1, b[2], b[3]]
        if self.reports and not gate(0, self.reports[0], wrong):
            return ["gate accepted a report against a wrong Betti vector"]
        return []

    def fault_control(self) -> list[str]:
        """The gate must reject a verify request with an injected orientation fault."""
        report = self.co.path("fault.report.json")
        res = self.co.run([sys.executable, "-m", "ddrcomplex.cli", "verify", "--degree", "0",
                           "--checks", "complex", "--mesh", self.mesh, "--out", report,
                           "--no-timestamp", "--inject-fault", "omega_tf"], "fault")
        text = _read(report)
        passed = not gate(res["rc"], json.loads(text) if text else None, self.block.betti)
        _remove(report, res["out"], res["err"])
        return ["gate accepted a verify --inject-fault omega_tf request"] if passed else []

    def exact_counts(self) -> dict:
        doc = self.reports[0] if self.reports else {}
        return {"mesh": doc.get("mesh"), "dims": doc.get("dims"),
                "ranks": {k: v["rank"] for k, v in (doc.get("ranks") or {}).items()},
                "betti_cw": doc.get("betti_cw"), "cohomology_ddr": doc.get("cohomology_ddr")}


def reference_s() -> float:
    """Median time of a fixed pure-Python loop: how fast the machine runs now."""
    def once() -> float:
        t, x = time.perf_counter(), 0
        for i in range(REFERENCE_LOOP):
            x += i * i % 7
        return time.perf_counter() - t
    return statistics.median(once() for _ in range(3))


def run_environment(co: Checkout) -> dict:
    res = co.run([sys.executable, "-c", ENV_CODE], "env")
    env = json.loads(_read(res["out"]) or "{}")
    _remove(res["out"], res["err"])
    env.update(nproc=len(os.sched_getaffinity(0)), loadavg_start=list(os.getloadavg()),
               blas_threads=BLAS_THREADS, ddr_threads="unset",
               commit=git_commit(co.root),
               src_sha256=tree_digest(os.path.join(co.src, "ddrcomplex")),
               bench_sha256=tree_digest(HERE),
               bench_python=sys.version.split()[0])
    return env


def setup_once(co: Checkout, mesh: str) -> float:
    res = co.run([sys.executable, "-c", SETUP_CODE, mesh], "setup")
    if res["rc"] != 0:
        raise RuntimeError(f"set-up child failed: {_read(res['err'])}")
    return res["wall"]


def self_times(spans: list) -> tuple[dict[str, float], dict[str, int], float]:
    """Self seconds and calls per span name, and the summed root-span seconds."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    selfs: dict[str, float] = {}
    calls: dict[str, int] = {}
    for (name, _, _, _), s in zip(spans, own):
        selfs[name] = selfs.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
    roots = sum(end - start for _, start, end, parent in spans if parent is None)
    return selfs, calls, roots


def group_seconds(selfs: dict[str, float], group: str) -> float:
    return sum(v for k, v in selfs.items() if k == group or k.startswith(group + "."))


class ExactState:
    """Exact counts per workload, kept across runs of one program and benchmark."""

    def __init__(self, co: Checkout, env: dict):
        digest = hashlib.sha256((env["src_sha256"] + env["bench_sha256"]).encode()).hexdigest()
        self.path = os.path.join(co.state, f"exact-{digest[:16]}.json")
        self.data = json.loads(_read(self.path) or "{}")

    def check(self, key: str, value) -> list[str]:
        """Record ``value`` under ``key`` the first time; report drift afterwards."""
        if key not in self.data:
            self.data[key] = value
            return []
        if self.data[key] != value:
            return [f"drift in {key}: was {self.data[key]}, now {value}"]
        return []

    def save(self) -> None:
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh, indent=1, sort_keys=True)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_timed(s: Session, seconds: float, start: float) -> tuple[dict, dict, list[str]]:
    # Set-ups are interleaved with the requests (one before every second
    # request), so that both sample the whole run window; the first set-up
    # warms the file and bytecode caches and is not timed.
    setup_once(s.co, s.mesh)
    failures = s.fault_control()
    setup, samples, refs = [], [], [reference_s()]
    while True:
        elapsed = time.perf_counter() - start
        estimate = (statistics.median(setup) + statistics.median(r["wall"] for r in samples)
                    if samples else 0.0)
        if len(samples) >= MIN_REQUESTS and elapsed + estimate > seconds:
            break
        if len(samples) % 2 == 0:
            setup.append(setup_once(s.co, s.mesh))
        samples.append(s.request())
        refs.append(reference_s())
    while len(setup) < MIN_SETUPS:
        setup.append(setup_once(s.co, s.mesh))
    failures += s.wrong_betti_control()

    # Each request in units of the reference loop timed just before and just
    # after it, which cancels most of a shared machine's speed drift.
    for r, before, after in zip(samples, refs, refs[1:]):
        r["ref"] = (before + after) / 2
    walls = [r["wall"] / r["ref"] for r in samples]
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "request_ref.p50": _metric(statistics.median(walls), "ref"),
        "request_ref.max": _metric(max(walls), "ref"),
        "cpu_ref.p50": _metric(statistics.median(r["cpu"] / r["ref"] for r in samples), "ref"),
        "peak_rss_mb": _metric(max(r["rss_mb"] for r in samples), "MB"),
    }
    raw = [r["wall"] for r in samples]
    details = {
        "seconds": {"request_s.p50": statistics.median(raw), "request_s.max": max(raw),
                    "cpu_s.p50": statistics.median(r["cpu"] for r in samples),
                    "reference_s.p50": statistics.median(refs)},
        "setup_s": setup, "requests": [
            {k: r[k] for k in ("rc", "wall", "cpu", "ref", "rss_mb", "digest", "problems")}
            for r in samples]}
    return metrics, details, failures


def traced_layers(res: dict) -> tuple[dict[str, float], dict[str, int], float]:
    selfs, calls, roots = self_times(res["spans"]["spans"])
    selfs["cli.untraced"] = res["wall"] - roots
    return selfs, calls, res["wall"]


def run_traced(s: Session, seconds: float, start: float, per_layer: list[dict]
               ) -> tuple[dict, dict, list[str]]:
    failures: list[str] = []
    setup_once(s.co, s.mesh)  # warms the caches as in run_timed
    probe_mesh = s._write_mesh("probe.json", s.probe)
    probe = s.request(traced=True, block=s.probe, mesh=probe_mesh)
    if probe["problems"]:
        failures.append(f"growth probe failed the gate: {probe['problems']}")
    plain, traced = [], []
    while True:
        elapsed = time.perf_counter() - start
        pair = (statistics.median(r["wall"] for r in plain) +
                statistics.median(r["wall"] for r in traced)) if traced else 0.0
        if traced and elapsed + pair > seconds:
            break
        plain.append(s.request())
        traced.append(s.request(traced=True))

    if not all(r["spans"] for r in traced + [probe]):
        raise RuntimeError("a traced request wrote no spans: "
                           + "; ".join(p for r in traced for p in r["problems"]))
    layers = [traced_layers(r) for r in traced]
    names = set().union(*(sel for sel, _, _ in layers))
    selfs = {n: statistics.median(sel.get(n, 0.0) for sel, _, _ in layers) for n in names}
    total = statistics.median(t for _, _, t in layers)
    for sel, _, t in layers:
        gap = abs(sum(sel.values()) - t)
        if gap > 1e-6 * max(t, 1.0):
            failures.append(f"span self times do not add up to the traced total (off by {gap:.3e} s)")

    counts = dict(traced[0]["spans"]["counts"])
    calls = layers[0][1]
    counts.update({
        "operators.distinct_shape_ratio": distinct_shape_ratio(s.block.doc),
        "verification.checks_failed": sum(not c["passed"]
                                          for c in (traced[0]["report"] or {}).get("checks", [])),
        "vtkio.bytes": traced[0]["vtk_bytes"],
        "lifting.lift.calls": calls.get("lifting.lift.h1", 0) + calls.get("lifting.lift.h2", 0),
        "homology.calls": sum(v for k, v in calls.items() if k.startswith("homology.")),
    })
    for r in traced[1:]:
        if r["spans"]["counts"] != traced[0]["spans"]["counts"]:
            failures.append("exact counts differ between traced requests of one run")
    failures += s.wrong_betti_control()
    if {r["digest"] for r in traced} != {r["digest"] for r in plain}:
        failures.append("traced report differs from the untraced report")

    probe_selfs, _, probe_total = traced_layers(probe)
    n_main, n_probe = sum(s.block.counts), sum(s.probe.counts)

    def exponent(t_main, t_probe):
        if t_main <= 0 or t_probe <= 0:
            return 0.0
        return math.log(t_main / t_probe) / math.log(n_main / n_probe)

    growth = {f"growth.{g}.exponent": exponent(group_seconds(selfs, g), group_seconds(probe_selfs, g))
              for g in LAYER_GROUPS}
    growth["growth.total.exponent"] = exponent(total, probe_total)
    growth["growth.entities.main"] = n_main
    growth["growth.entities.probe"] = n_probe

    plain_p50 = statistics.median(r["wall"] for r in plain)
    values = {"trace.total_s": total, "trace.overhead_s": total - plain_p50, **growth, **counts}
    metrics = {}
    for m in per_layer:
        name = m["name"]
        if name in values:
            metrics[name] = _metric(values[name], m["unit"])
        elif name.endswith("_s"):
            metrics[name] = _metric(selfs.get(name[:-2], 0.0), m["unit"])
        else:
            metrics[name] = _metric(0, m["unit"])
    layer_s = {g: group_seconds(selfs, g)
               for g in LAYER_GROUPS + ("mesh", "vtkio", "cli.generator_fields", "cli.untraced")}
    largest = max(layer_s, key=layer_s.get)
    details = {"largest_layer": [largest, layer_s[largest], total], "layer_s": layer_s, "self_s": selfs,
               "probe_self_s": probe_selfs, "counts": counts,
               "plain_walls": [r["wall"] for r in plain], "traced_walls": [r["wall"] for r in traced]}
    return metrics, details, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "ddrcomplex", "cli.py")):
        print(f"error: no ddrcomplex sources under {root}/src; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = json.load(fh)["per_layer"]

    co = Checkout(root)
    try:
        env = run_environment(co)
        s = Session(co, WORKLOADS[args.workload], args.seed)
        if args.trace:
            metrics, details, failures = run_traced(s, args.seconds, start, per_layer)
        else:
            metrics, details, failures = run_timed(s, args.seconds, start)
    finally:
        co.close()

    exact = ExactState(co, env)
    drift = exact.check(f"{args.workload}/report", s.exact_counts())
    drift += exact.check(f"{args.workload}/seed{args.seed}/digests", sorted(s.digests))
    if args.trace:
        counts = dict(details["counts"])
        by_seed = {k: counts.pop(k) for k in SEED_DEPENDENT_COUNTS}
        drift += exact.check(f"{args.workload}/trace", counts)
        drift += exact.check(f"{args.workload}/seed{args.seed}/trace", by_seed)
    if len(s.digests) > 1:
        drift.append(f"{len(s.digests)} different reports from one mesh in one run")
    exact.save()

    summary = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "mesh": s.block.note, "counts": list(s.block.counts), "betti": list(s.block.betti),
               "attempted": s.attempted, "failed": s.failed,
               "failed_ratio": s.failed / max(s.attempted, 1),
               "problems": s.problems, "control_failures": failures, "drift": drift,
               "environment": env, **details}
    with open(os.path.join(co.state, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)

    for line in s.problems + failures:
        print(f"FAIL {line}")
    for line in drift:
        print(f"DRIFT {line}")
    shown = {k: summary[k] for k in ("workload", "seed", "mesh", "attempted", "failed_ratio")}
    print(f"# {json.dumps(shown)} env={json.dumps(env)}")
    if args.trace:
        print(f"# largest layer: {details['largest_layer']}")
    else:
        for name, value in details["seconds"].items():
            print(f"# {name} = {value:.6g} s")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not s.failed and not failures and s.attempted > 0,
              "attempted": s.attempted, "failed": s.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
