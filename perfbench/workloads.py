"""Instance generator and the benchmark's workloads.

Every instance comes from ``numpy.random.default_rng([seed, salt])``, so a
seed fixes the inputs and nothing else does.  Geometry: nodes uniform in a
square holding one node per unit area; in pairs mode each receiver sits at
distance 0.3 from its transmitter in a uniform direction.  Scheduling: the
Gaussian likelihood kernel c * exp(-d^2 / 0.7^2), with c (close to 1) set
per instance so that trace(K) = 0.43 n exactly: the sampler's cost grows
with the scheduled-set size, and pinning its mean keeps one seed's layout
from setting the cost of a whole run.

A workload runs the same list of library calls in every round.  Each call
is one *operation*: it is timed, its result is checked after timing ends,
and a failed check counts as one failed operation.  Because the calls
repeat exactly, later rounds are checked by comparing them bit for bit
with the first.  The *items* of a workload (replications, links or
subsets) are what ``items_per_s`` counts.

The timed work goes through public ``detsched`` entry points only.  The
checks that need an independent reference (brute-force subset enumeration
for the closed forms) are written out below rather than taken from the
library.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import struct

import numpy as np

import detsched as ds
from detsched import cli

SIGMA = 0.7
TRACE_SHARE = 0.43
RX_OFFSET = 0.3
BETA = 4.0
NOISE = 0.01
# Pairs links are short (0.3), so a 15 dB threshold is needed before
# interference matters; txrx links are about one node spacing long.
THRESHOLD = {"pairs": 30.0, "txrx": 1.0}
DELAY_BAND = (0.05, 0.2)
DELAY_TARGETS = 4
Z_MAX = 5.0
# A few events of slack on top of the z bound: at tens of replications
# the normal approximation's tail is far lighter than the binomial's.
COUNT_SLACK = 3.0
TINY_COVERAGE = 1e-4
TINY_ESTIMATE = 2e-3
EXACT_TOL = 1e-9


# ---------------------------------------------------------------------------
# instance generation


def _gaussian(points, scale=1.0):
    d2 = ((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1)
    return scale * np.exp(-d2 / SIGMA**2)


def _scale_for_trace(points):
    """Kernel scale c giving trace(K) = TRACE_SHARE * n, by bisection on
    sum(c x / (1 + c x)) over the unit-scale kernel's eigenvalues x."""
    lam = np.clip(np.linalg.eigvalsh(_gaussian(points)), 0.0, None)
    target = TRACE_SHARE * len(points)
    lo, hi = 1e-3, 1e3
    for _ in range(100):
        mid = math.sqrt(lo * hi)
        lo, hi = (mid, hi) if np.sum(mid * lam / (1.0 + mid * lam)) < target else (lo, mid)
    return math.sqrt(lo * hi)


def _pathloss_table(side):
    """Bounded path loss 1 / (1 + r^4), tabulated over every distance in a
    square of the given side."""
    radii = np.linspace(0.0, math.ceil(side * math.sqrt(2.0)) + 1.0, 65)
    return radii, 1.0 / (1.0 + radii**BETA)


class Instance:
    """One generated network with its kernels and channel parameters."""

    def __init__(self, rng, mode, n, pathloss="power_law"):
        side = math.sqrt(n)
        pts = rng.uniform(0.0, side, (n, 2))
        if mode == "pairs":
            ang = rng.uniform(0.0, 2.0 * math.pi, n)
            rx = pts + RX_OFFSET * np.column_stack((np.cos(ang), np.sin(ang)))
            self.geometry = ds.NetworkGeometry.pairs(pts, rx)
        else:
            self.geometry = ds.NetworkGeometry.txrx(pts)
        self.mode, self.n, self.pathloss = mode, n, pathloss
        self.points = pts
        # each instance simulates its own streams: with one plan seed for
        # all, every instance would draw the same scheduled-set sizes
        self.plan_seed = int(rng.integers(2**62))
        if pathloss == "power_law":
            self.pathloss_doc = {"type": "power_law", "kappa": 1.0, "beta": BETA}
            model = ds.PowerLawPathLoss(1.0, BETA)
        else:
            radii, values = _pathloss_table(side)
            self.pathloss_doc = {"type": "custom", "radii": radii.tolist(),
                                 "values": values.tolist()}
            model = ds.TabulatedPathLoss(radii, values)
        self.params = ds.PropagationParams(model, threshold=THRESHOLD[mode], noise=NOISE)
        self.scale = _scale_for_trace(pts)
        self.L = ds.build_L(ds.GaussianSpec(SIGMA, self.scale), self.geometry)
        self.K = ds.l_to_k(self.L)
        self.trace_k = float(np.trace(self.K.matrix))

    @property
    def links(self):
        return self.n if self.mode == "pairs" else self.n * (self.n - 1)

    def config(self):
        """The instance as a CLI config document."""
        doc = {"mode": self.mode}
        if self.mode == "pairs":
            doc["transmitters"] = self.geometry.transmitters.tolist()
            doc["receivers"] = self.geometry.receivers.tolist()
        else:
            doc["nodes"] = self.geometry.nodes.tolist()
        doc.update(kernel={"type": "gaussian", "sigma": SIGMA, "scale": self.scale},
                   pathloss=self.pathloss_doc, threshold=self.params.threshold,
                   noise=self.params.noise)
        return doc

    def closed_coverage(self):
        """{link: closed-form coverage or None}, from the library."""
        report = ds.full_report(self.geometry, self.K, self.params)
        return {_link_key(self.mode, lr.transmitter, lr.receiver): lr.coverage
                for lr in report.links}

    def row(self, work):
        return (self.mode, self.n, self.trace_k, self.pathloss, self.links, work)


def _link_key(mode, tx, rx):
    return tx if mode == "pairs" else (tx, rx)


def _pack(*values):
    return struct.pack(f"<{len(values)}d", *values)


# ---------------------------------------------------------------------------
# Monte Carlo checks


def _coverage_ok(closed, est):
    """|z| <= 5 against the closed form, using the closed form's binomial
    standard error plus COUNT_SLACK events; or a tiny estimate where the
    closed form is below 1e-4."""
    if closed is None:
        return False
    if closed < TINY_COVERAGE and est.mean <= TINY_ESTIMATE:
        return True
    reps = est.replications
    allowed = Z_MAX * math.sqrt(closed * (1.0 - closed) / reps) + COUNT_SLACK / reps
    return abs(est.mean - closed) <= allowed


def _delay_ok(closed, est):
    """No censored replication, and the mean within 5 standard errors of
    1 / coverage (standard error of the geometric law)."""
    if closed is None or closed <= 0.0 or est.censored:
        return False
    se = math.sqrt(1.0 - closed) / closed / math.sqrt(est.replications)
    return abs(est.mean - 1.0 / closed) <= Z_MAX * se


class Workload:
    """Interface every workload implements; see the module docstring."""

    item = ""  # what items_per_s counts
    alias = ""  # the workload's own name for that throughput
    alias_item = None  # what the alias counts, when not the items

    def __init__(self, seed, tiny):
        self.seed, self.tiny = seed, tiny

    def setup(self, workdir):
        """Generate instances and do one warm-up call per instance family;
        returns a fingerprint of the generated inputs."""
        raise NotImplementedError

    def tasks(self):
        """[(label, callable)] for one round, in a fixed order."""
        raise NotImplementedError

    def items(self, results):
        """Items each task of a round processed."""
        raise NotImplementedError

    def alias_count(self, results):
        """What the workload's named throughput (``alias``) counts per round."""
        return sum(self.items(results))

    def check(self, results):
        """One bool per task of a round: True when its result is correct."""
        return [self.check_one(i, r) for i, r in enumerate(results)]

    def check_one(self, index, result):
        raise NotImplementedError

    def result_bytes(self, result):
        raise NotImplementedError

    def table(self):
        raise NotImplementedError

    def layer_counts(self, results):
        """Counts per round that only the outputs reveal."""
        return {}


class McCoverage(Workload):
    """simulate_pair_coverage / simulate_txrx over n in {4, 10, 30}."""

    salt = 1
    item = "replication"
    alias = "mc_reps_per_s"
    # replications per instance, weighted so each size takes a comparable
    # share of a round with the numpy-only sampler; at n=30 a draw's cost
    # grows as the cube of its scheduled-set size, so a round pools draws
    # from three instances per size to keep that from swinging with the seed
    REPS = {4: 1000, 10: 200, 30: 10}
    INSTANCES = 3
    TINY_REPS = {4: 200, 6: 100}

    def setup(self, workdir):
        rng = np.random.default_rng([self.seed, self.salt])
        sizes = self.TINY_REPS if self.tiny else self.REPS
        copies = 1 if self.tiny else self.INSTANCES
        self.cells = [(Instance(rng, mode, n), reps)
                      for mode in ("pairs", "txrx") for n, reps in sizes.items()
                      for _ in range(copies)]
        for inst, _ in self.cells[:: len(sizes) * copies]:
            self._simulate(inst, 2)
        return hashlib.sha256(b"".join(
            _pack(*inst.points.ravel(), *inst.L.matrix.ravel()) for inst, _ in self.cells
        )).hexdigest()

    def _simulate(self, inst, reps, workers=1):
        plan = ds.SimulationPlan(reps, inst.plan_seed)
        fn = ds.simulate_pair_coverage if inst.mode == "pairs" else ds.simulate_txrx
        out = fn(inst.geometry, inst.L, inst.params, plan, workers)
        return dict(enumerate(out)) if inst.mode == "pairs" else out

    def tasks(self):
        return [(f"{inst.mode} n={inst.n}", lambda inst=inst, reps=reps: self._simulate(inst, reps))
                for inst, reps in self.cells]

    def items(self, results):
        return [reps for _, reps in self.cells]

    def check_one(self, index, result):
        inst, reps = self.cells[index]
        closed = inst.closed_coverage()
        if set(result) != set(closed):
            return False
        if not all(_coverage_ok(closed[k], result[k]) for k in closed):
            return False
        # the thread pool must not change a bit; it is checked, not timed,
        # because its throughput swings too much from run to run on a
        # shared two-core machine to be held to a bound
        workers = min(2, os.cpu_count() or 1)
        return self.result_bytes(self._simulate(inst, reps, workers)) == self.result_bytes(result)

    def result_bytes(self, result):
        return b"".join(_pack(e.mean, e.std_error, e.replications)
                        for _, e in sorted(result.items()))

    def table(self):
        return [inst.row(f"{reps} reps") for inst, reps in self.cells]

    def layer_counts(self, results):
        return {"reps": sum(r for _, r in self.cells), "censored": 0,
                "tracked": [inst.links * r for inst, r in self.cells],
                "task_links": [inst.links for inst, _ in self.cells]}


def expected_slots(coverages):
    """Mean slots until every link has succeeded once, treating the links'
    geometric first-success slots as independent."""
    s = np.arange(20000)[:, None]
    alive = 1.0 - np.prod(1.0 - (1.0 - np.asarray(coverages)) ** s, axis=1)
    return float(alive.sum())


class McDelay(Workload):
    """simulate_local_delay at n=10, both modes, tracking up to four links
    whose closed-form coverage lies in DELAY_BAND.

    Its items are slots, not replications: how many slots a replication
    plays depends on which links the seed puts in the band, while the cost
    of a slot does not.  Replication counts are set so each mode plays
    about SLOTS slots per round.
    """

    salt = 2
    item = "slot"
    alias = "delay_reps_per_s"
    alias_item = "replication"
    N, SLOTS = 10, 2500
    TINY_N, TINY_SLOTS = 6, 150
    MIN_REPS = 20

    def setup(self, workdir):
        rng = np.random.default_rng([self.seed, self.salt])
        n = self.TINY_N if self.tiny else self.N
        slots = self.TINY_SLOTS if self.tiny else self.SLOTS
        self.cells = []
        for mode in ("pairs", "txrx"):
            # redraw until some link lies in the band; the rng sequence
            # keeps this deterministic
            for _ in range(1000):
                inst = Instance(rng, mode, n)
                closed = inst.closed_coverage()
                band = [k for k, c in closed.items()
                        if c is not None and DELAY_BAND[0] <= c <= DELAY_BAND[1]]
                if band:
                    break
            else:
                raise RuntimeError(f"no {mode} instance with a link in {DELAY_BAND}")
            targets = {k: closed[k] for k in band[:DELAY_TARGETS]}
            reps = max(self.MIN_REPS, round(slots / expected_slots(list(targets.values()))))
            self.cells.append((inst, reps, list(targets), targets))
        for inst, _, targets, _ in self.cells:
            self._simulate(inst, 1, targets)
        return hashlib.sha256(b"".join(
            _pack(reps, *inst.points.ravel(), *closed.values())
            for inst, reps, _, closed in self.cells
        )).hexdigest()

    def _simulate(self, inst, reps, targets):
        plan = ds.SimulationPlan(reps, inst.plan_seed)
        return ds.simulate_local_delay(inst.geometry, inst.L, inst.params, plan,
                                       links=targets, workers=1)

    def tasks(self):
        return [(f"{inst.mode} n={inst.n}",
                 lambda inst=inst, reps=reps, t=targets: self._simulate(inst, reps, t))
                for inst, reps, targets, _ in self.cells]

    def items(self, results):
        """Slots per task, counted by replaying the round (untimed) with a
        counter on the scheduling draw, one per slot."""
        from detsched import _sampling

        draw = _sampling.draw_mask
        counted = [0]

        def counting(*args):
            counted[0] += 1
            return draw(*args)

        slots = []
        _sampling.draw_mask = counting
        try:
            for (_, fn), result in zip(self.tasks(), results):
                counted[0] = 0
                if self.result_bytes(fn()) != self.result_bytes(result):
                    raise RuntimeError("replaying a delay simulation changed its result")
                slots.append(counted[0])
        finally:
            _sampling.draw_mask = draw
        return slots

    def alias_count(self, results):
        return sum(reps for _, reps, _, _ in self.cells)

    def check_one(self, index, result):
        closed = self.cells[index][3]
        return set(result) == set(closed) and all(
            _delay_ok(closed[k], result[k]) for k in closed)

    def result_bytes(self, result):
        return b"".join(_pack(e.mean, e.std_error, e.replications, e.censored)
                        for _, e in sorted(result.items()))

    def table(self):
        return [inst.row(f"{reps} reps, {len(t)} targets")
                for inst, reps, t, _ in self.cells]

    def layer_counts(self, results):
        # a target waits in every slot up to its first success, so the
        # mean delays give the tracked link-slots without instrumentation
        return {"reps": self.alias_count(results),
                "censored": sum(e.censored for res in results for e in res.values()),
                "tracked": [sum(e.mean * e.replications for e in res.values())
                            for res in results],
                "task_links": [inst.links for inst, _, _, _ in self.cells]}


class ClosedForms(Workload):
    """The CLI ``coverage`` command, in process, on generated configs."""

    salt = 3
    item = "link"
    alias = "report_links_per_s"
    CELLS = [("pairs", 30, "power_law"), ("pairs", 100, "power_law"),
             ("txrx", 10, "power_law"), ("txrx", 10, "tabulated"),
             ("txrx", 30, "power_law"), ("txrx", 30, "tabulated")]
    TINY_CELLS = [("pairs", 6, "power_law"), ("txrx", 5, "power_law"),
                  ("txrx", 5, "tabulated")]
    BRUTE_FORCE_MAX_N = 10

    def setup(self, workdir):
        rng = np.random.default_rng([self.seed, self.salt])
        self.cells = []
        for i, (mode, n, loss) in enumerate(self.TINY_CELLS if self.tiny else self.CELLS):
            inst = Instance(rng, mode, n, loss)
            path = os.path.join(workdir, f"closed_forms_{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(inst.config(), fh)
            self.cells.append((inst, path))
        warmed = set()
        for inst, path in self.cells:
            if (inst.mode, inst.pathloss) not in warmed:
                warmed.add((inst.mode, inst.pathloss))
                self._coverage(path)
        digest = hashlib.sha256()
        for _, path in self.cells:
            with open(path, "rb") as fh:
                digest.update(fh.read())
        return digest.hexdigest()

    @staticmethod
    def _coverage(path):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["coverage", path])
        return code, buf.getvalue()

    def tasks(self):
        return [(f"{inst.mode} n={inst.n} {inst.pathloss}", lambda path=path: self._coverage(path))
                for inst, path in self.cells]

    def items(self, results):
        return [inst.links for inst, _ in self.cells]

    def check_one(self, index, result):
        inst, _ = self.cells[index]
        code, text = result
        if code != 0:
            return False
        try:
            links = json.loads(text)["links"]
        except (ValueError, KeyError):
            return False
        if len(links) != inst.links:
            return False
        for row in links:
            if row["error"] is not None:
                return False
            for key in ("selection_probability", "conditional_coverage", "coverage"):
                v = row[key]
                if v is not None and not 0.0 <= v <= 1.0:
                    return False
        if inst.n > self.BRUTE_FORCE_MAX_N:
            return True
        exact = brute_force_coverage(inst)
        return all(
            row["coverage"] is not None
            and abs(row["coverage"] - exact[_link_key(inst.mode, row["transmitter"],
                                                      row["receiver"])]) <= EXACT_TOL
            for row in links)

    def result_bytes(self, result):
        return f"{result[0]}\n{result[1]}".encode()

    def table(self):
        return [inst.row("CLI coverage") for inst, _ in self.cells]

    def layer_counts(self, results):
        rows = [row for _, text in results for row in json.loads(text)["links"]]
        return {"links": len(rows),
                "clamped_links": sum("clamped" in row["flags"] for row in rows),
                "error_links": sum(row["error"] is not None for row in rows)}


class ExactEnum(Workload):
    """dpp.exact_pmf_array on L and on K = l_to_k(L)."""

    salt = 4
    item = "subset"
    alias = "enum_subsets_per_s"
    SIZES = (14, 16)
    TINY_SIZES = (6, 8)

    def setup(self, workdir):
        rng = np.random.default_rng([self.seed, self.salt])
        self.cells = [Instance(rng, "txrx", n)
                      for n in (self.TINY_SIZES if self.tiny else self.SIZES)]
        warm = ds.LEnsemble.from_matrix(self.cells[0].L.matrix[:8, :8])
        ds.dpp.exact_pmf_array(warm)
        ds.dpp.exact_pmf_array(ds.l_to_k(warm))
        return hashlib.sha256(b"".join(
            _pack(*inst.L.matrix.ravel()) for inst in self.cells)).hexdigest()

    def tasks(self):
        out = []
        for inst in self.cells:
            for route, kernel in (("L", inst.L), ("K", inst.K)):
                out.append((f"{route} n={inst.n}",
                            lambda kernel=kernel: ds.dpp.exact_pmf_array(kernel)))
        return out

    def items(self, results):
        return [1 << inst.n for inst in self.cells for _ in "LK"]

    def check(self, results):
        # tasks alternate the L and K routes of each instance
        ok = []
        for i, pmf in enumerate(results):
            other = results[i ^ 1]
            ok.append(abs(float(pmf.sum()) - 1.0) <= EXACT_TOL
                      and float(np.max(np.abs(pmf - other))) <= EXACT_TOL)
        return ok

    def result_bytes(self, result):
        return result.tobytes()

    def table(self):
        return [inst.row("L and K routes") for inst in self.cells]

    def layer_counts(self, results):
        return {"subsets": sum(self.items(results))}


WORKLOADS = {
    "mc_coverage": McCoverage,
    "mc_delay": McDelay,
    "closed_forms": ClosedForms,
    "exact_enum": ExactEnum,
}


# ---------------------------------------------------------------------------
# independent reference for the closed forms


def _subset_probabilities(L):
    """P(scheduled set == S) for every bitmask S, by direct determinants."""
    n = L.shape[0]
    prob = np.empty(1 << n)
    prob[0] = 1.0
    for size in range(1, n + 1):
        combos = list(itertools.combinations(range(n), size))
        idx = np.array(combos)
        subs = L[idx[:, :, None], idx[:, None, :]]
        masks = (1 << idx).sum(axis=1)
        prob[masks] = np.linalg.det(subs)
    return prob / np.linalg.det(L + np.eye(n))


def brute_force_coverage(inst):
    """{link: P(transmitter scheduled, receiver silent, SINR > threshold)},
    summing the exact Rayleigh-fading success probability over all 2^n
    scheduled sets."""
    n, mode, p = inst.n, inst.mode, inst.params
    pts = inst.points
    prob = _subset_probabilities(_gaussian(pts, inst.scale))
    members = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(bool)
    if mode == "pairs":
        links = [(t, None, inst.geometry.receivers[t]) for t in range(n)]
    else:
        links = [(t, r, pts[r]) for t in range(n) for r in range(n) if t != r]
    radii, table = (None, None)
    if inst.pathloss != "power_law":
        radii, table = _pathloss_table(math.sqrt(n))

    def loss(r):
        if radii is None:
            with np.errstate(divide="ignore"):
                return r ** -BETA
        return np.interp(r, radii, table)

    out = {}
    for t, r, y in links:
        dist = np.sqrt(((pts - y) ** 2).sum(axis=1))
        ell = loss(dist)
        log_discount = -np.log1p(p.threshold * ell / ell[t])
        log_discount[t] = 0.0
        valid = members[:, t].copy()
        if r is not None:
            log_discount[r] = 0.0
            valid &= ~members[:, r]
        surv = np.exp(members @ log_discount)
        noise = math.exp(-p.threshold / p.fading_mean * p.noise / ell[t])
        out[_link_key(mode, t, r)] = noise * float(np.sum(prob * valid * surv))
    return out
