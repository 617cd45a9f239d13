"""Command-line surface: JSON configs in, machine-readable reports out.

One JSON document fully describes a run::

    {
      "mode": "pairs",                        // or "txrx"
      "transmitters": [[0.0, 0.0], ...],      // pairs mode
      "receivers":    [[0.1, 0.0], ...],      // pairs mode, same length
      "nodes":        [[0.0, 0.0], ...],      // txrx mode instead
      "kernel": {"type": "explicit_K", "matrix": [[0.5]]},
      "pathloss": {"type": "power_law", "kappa": 1.0, "beta": 2.0},
      "threshold": 1.0,
      "fading_mean": 1.0,                     // optional, default 1.0
      "noise": 0.0,                           // optional, default 0.0
      "simulate": {                           // optional
        "reps": 100000, "seed": 7,
        "targets": ["coverage", "delay"],     // optional, default ["coverage"]
        "delay_cap": 1000000,                 // optional
        "workers": 1                          // optional
      }
    }

Kernel types: gaussian{sigma, scale}, quality_similarity{quality,
similarity}, explicit_K{matrix}, explicit_L{matrix},
aloha_diagonal{probabilities}.  Path loss types: power_law{kappa, beta}
and custom{radii, values} (piecewise-linear table).  Delay targets may
name a single link: ["delay", 2] in pairs mode, ["delay", [0, 1]] in txrx
mode.

Subcommands: coverage | simulate | sample | validate, each taking the
config path plus --format {json,csv}, --output PATH, and --echo-config.
Exit codes: 0 success, 1 validation failure, 2 I/O or document parse
failure, 3 computation error.  Identical invocations produce byte-identical
output; non-finite numbers serialize as null (JSON) / empty (CSV), with an
"infinite_delay" flag marking never-covered links.
"""

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import coverage as _coverage
from . import montecarlo as _montecarlo
from .dpp import sample as _sample_subset
from .errors import ConfigError, DetschedError
from .kernels import (
    AlohaSpec,
    ExplicitLSpec,
    ExplicitMarginalSpec,
    GaussianSpec,
    MarginalKernel,
    QualitySimilaritySpec,
    build_K,
    build_L,
    l_to_k,
    validate as validate_kernel,
)
from .montecarlo import SimulationPlan
from .propagation import (
    NetworkGeometry,
    PowerLawPathLoss,
    PropagationParams,
    TabulatedPathLoss,
    _distance_matrix,
    _drowned,
)
from .rng import substream


@dataclass
class RunConfig:
    """Parsed and validated run description."""

    geometry: NetworkGeometry
    kernel_spec: object
    params: PropagationParams
    plan: Optional[SimulationPlan] = None
    workers: int = 1
    # the marginal kernel of kernel_spec, built once: when the config is
    # validated, or else on first use
    K: Optional[MarginalKernel] = field(default=None, init=False, compare=False, repr=False)

    @property
    def mode(self) -> str:
        return self.geometry.mode

    def marginal_kernel(self) -> MarginalKernel:
        if self.K is None:
            self.K = build_K(self.kernel_spec, self.geometry)
        return self.K


# ---------------------------------------------------------------------------
# parsing


def _reject_unknown(obj: dict, allowed, path: str, errors):
    for key in obj:
        if key not in allowed:
            errors.append((f"{path}.{key}" if path else key, "unknown key"))


def _get_number(obj, key, path, errors, minimum=None, strict_min=None, default=None, required=False):
    if key not in obj:
        if required:
            errors.append((f"{path}{key}", "required"))
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        errors.append((f"{path}{key}", f"must be a number, got {v!r}"))
        return None
    v = float(v)
    if not math.isfinite(v):
        errors.append((f"{path}{key}", "must be finite"))
        return None
    if minimum is not None and v < minimum:
        errors.append((f"{path}{key}", f"must be >= {minimum}, got {v}"))
        return None
    if strict_min is not None and v <= strict_min:
        errors.append((f"{path}{key}", f"must be > {strict_min}, got {v}"))
        return None
    return v


def _get_int(obj, key, path, errors, minimum=None, default=None, required=False):
    if key not in obj:
        if required:
            errors.append((f"{path}{key}", "required"))
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        errors.append((f"{path}{key}", f"must be an integer, got {v!r}"))
        return None
    if minimum is not None and v < minimum:
        errors.append((f"{path}{key}", f"must be >= {minimum}, got {v}"))
        return None
    return v


def _number_list(value, path, errors):
    if not isinstance(value, list) or not value:
        errors.append((path, "must be a nonempty list of numbers"))
        return None
    out = []
    for i, v in enumerate(value):
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(float(v)):
            errors.append((f"{path}[{i}]", f"must be a finite number, got {v!r}"))
            return None
        out.append(float(v))
    return out


def _matrix(value, path, errors):
    if not isinstance(value, list) or not value:
        errors.append((path, "must be a nonempty list of rows"))
        return None
    rows = []
    for i, row in enumerate(value):
        r = _number_list(row, f"{path}[{i}]", errors)
        if r is None:
            return None
        rows.append(r)
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        errors.append((path, "rows must all have the same length"))
        return None
    return rows


def _point_list(obj, key, errors):
    if key not in obj:
        errors.append((key, "required"))
        return None
    return _matrix(obj[key], key, errors)


def _parse_geometry(doc, errors) -> Optional[NetworkGeometry]:
    mode = doc.get("mode")
    if mode not in ("pairs", "txrx"):
        errors.append(("mode", f"must be 'pairs' or 'txrx', got {mode!r}"))
        return None
    if mode == "pairs":
        if "nodes" in doc:
            errors.append(("nodes", "not allowed in pairs mode"))
        tx = _point_list(doc, "transmitters", errors)
        rx = _point_list(doc, "receivers", errors)
        if tx is None or rx is None:
            return None
        if len(tx) != len(rx):
            errors.append(
                ("receivers", f"length {len(rx)} does not match transmitters length {len(tx)}")
            )
            return None
        if len(tx[0]) != len(rx[0]):
            errors.append(
                ("receivers", "coordinate dimension differs from transmitters")
            )
            return None
        try:
            return NetworkGeometry.pairs(tx, rx)
        except DetschedError as e:
            errors.append(("transmitters", str(e)))
            return None
    for key in ("transmitters", "receivers"):
        if key in doc:
            errors.append((key, "not allowed in txrx mode"))
    nodes = _point_list(doc, "nodes", errors)
    if nodes is None:
        return None
    try:
        return NetworkGeometry.txrx(nodes)
    except DetschedError as e:
        errors.append(("nodes", str(e)))
        return None


_KERNEL_KEYS = {
    "gaussian": {"type", "sigma", "scale"},
    "quality_similarity": {"type", "quality", "similarity"},
    "explicit_K": {"type", "matrix"},
    "explicit_L": {"type", "matrix"},
    "aloha_diagonal": {"type", "probabilities"},
}


def _parse_kernel(doc, errors):
    obj = doc.get("kernel")
    if not isinstance(obj, dict):
        errors.append(("kernel", "required object"))
        return None
    ktype = obj.get("type")
    if ktype not in _KERNEL_KEYS:
        errors.append(
            ("kernel.type", f"must be one of {sorted(_KERNEL_KEYS)}, got {ktype!r}")
        )
        return None
    _reject_unknown(obj, _KERNEL_KEYS[ktype], "kernel", errors)
    if ktype == "gaussian":
        sigma = _get_number(obj, "sigma", "kernel.", errors, strict_min=0.0, required=True)
        scale = _get_number(obj, "scale", "kernel.", errors, strict_min=0.0, default=1.0)
        if sigma is None or scale is None:
            return None
        return GaussianSpec(sigma=sigma, scale=scale)
    if ktype == "quality_similarity":
        if "quality" not in obj or "similarity" not in obj:
            errors.append(("kernel", "quality_similarity needs 'quality' and 'similarity'"))
            return None
        q = _number_list(obj["quality"], "kernel.quality", errors)
        s = _matrix(obj["similarity"], "kernel.similarity", errors)
        if q is None or s is None:
            return None
        return QualitySimilaritySpec(quality=np.array(q), similarity=np.array(s))
    if ktype in ("explicit_K", "explicit_L"):
        if "matrix" not in obj:
            errors.append(("kernel.matrix", "required"))
            return None
        m = _matrix(obj["matrix"], "kernel.matrix", errors)
        if m is None:
            return None
        if len(m) != len(m[0]):
            errors.append(("kernel.matrix", f"must be square, got {len(m)}x{len(m[0])}"))
            return None
        cls = ExplicitMarginalSpec if ktype == "explicit_K" else ExplicitLSpec
        return cls(matrix=np.array(m))
    if "probabilities" not in obj:
        errors.append(("kernel.probabilities", "required"))
        return None
    p = _number_list(obj["probabilities"], "kernel.probabilities", errors)
    if p is None:
        return None
    return AlohaSpec(probabilities=np.array(p))


def _parse_pathloss(doc, errors):
    obj = doc.get("pathloss")
    if not isinstance(obj, dict):
        errors.append(("pathloss", "required object"))
        return None
    ptype = obj.get("type")
    if ptype == "power_law":
        _reject_unknown(obj, {"type", "kappa", "beta"}, "pathloss", errors)
        kappa = _get_number(obj, "kappa", "pathloss.", errors, strict_min=0.0, required=True)
        beta = _get_number(obj, "beta", "pathloss.", errors, strict_min=0.0, required=True)
        if kappa is None or beta is None:
            return None
        return PowerLawPathLoss(kappa=kappa, exponent=beta)
    if ptype == "custom":
        _reject_unknown(obj, {"type", "radii", "values"}, "pathloss", errors)
        if "radii" not in obj or "values" not in obj:
            errors.append(("pathloss", "custom path loss needs 'radii' and 'values'"))
            return None
        radii = _number_list(obj["radii"], "pathloss.radii", errors)
        values = _number_list(obj["values"], "pathloss.values", errors)
        if radii is None or values is None:
            return None
        try:
            return TabulatedPathLoss(radii=np.array(radii), values=np.array(values))
        except DetschedError as e:
            errors.append(("pathloss", str(e)))
            return None
    errors.append(("pathloss.type", f"must be 'power_law' or 'custom', got {ptype!r}"))
    return None


def _parse_target(entry, index, mode, n, errors):
    path = f"simulate.targets[{index}]"
    if entry in ("coverage", "delay"):
        return entry
    if isinstance(entry, list) and len(entry) == 2 and entry[0] == "delay":
        link = entry[1]
        if mode == "pairs":
            if isinstance(link, bool) or not isinstance(link, int) or not (0 <= link < (n or 0)):
                errors.append((path, f"link must be an int in [0, {n}), got {link!r}"))
                return None
            return ("delay", link)
        if (
            isinstance(link, list)
            and len(link) == 2
            and all(isinstance(x, int) and not isinstance(x, bool) for x in link)
            and link[0] != link[1]
            and all(0 <= x < (n or 0) for x in link)
        ):
            return ("delay", (link[0], link[1]))
        errors.append((path, f"link must be [tx, rx] with distinct ints in [0, {n}), got {link!r}"))
        return None
    errors.append((path, f"must be 'coverage', 'delay', or ['delay', link]; got {entry!r}"))
    return None


def _parse_simulate(doc, mode, n, errors):
    obj = doc.get("simulate")
    if obj is None:
        return None, 1
    if not isinstance(obj, dict):
        errors.append(("simulate", "must be an object"))
        return None, 1
    _reject_unknown(obj, {"reps", "seed", "targets", "delay_cap", "workers"}, "simulate", errors)
    reps = _get_int(obj, "reps", "simulate.", errors, minimum=1, required=True)
    seed = _get_int(obj, "seed", "simulate.", errors, minimum=0, required=True)
    delay_cap = _get_int(obj, "delay_cap", "simulate.", errors, minimum=1,
                         default=_montecarlo.DEFAULT_DELAY_CAP)
    workers = _get_int(obj, "workers", "simulate.", errors, minimum=1, default=1)
    targets = ("coverage",)
    if "targets" in obj:
        raw = obj["targets"]
        if not isinstance(raw, list) or not raw:
            errors.append(("simulate.targets", "must be a nonempty list"))
        else:
            parsed = [_parse_target(t, i, mode, n, errors) for i, t in enumerate(raw)]
            if all(t is not None for t in parsed):
                targets = tuple(parsed)
    if reps is None or seed is None or delay_cap is None or workers is None:
        return None, workers or 1
    try:
        return SimulationPlan(reps, seed, targets, delay_cap), workers
    except DetschedError as e:
        errors.append(("simulate", str(e)))
        return None, workers


_TOP_KEYS = {
    "mode", "transmitters", "receivers", "nodes", "kernel", "pathloss",
    "threshold", "fading_mean", "noise", "simulate",
}


def parse_config_dict(doc) -> RunConfig:
    """Validate a config document, collecting every problem before failing."""
    if not isinstance(doc, dict):
        raise ConfigError([("$", "top-level value must be an object")])
    errors = []
    _reject_unknown(doc, _TOP_KEYS, "", errors)
    geometry = _parse_geometry(doc, errors)
    kernel_spec = _parse_kernel(doc, errors)
    pathloss = _parse_pathloss(doc, errors)
    threshold = _get_number(doc, "threshold", "", errors, minimum=0.0, required=True)
    fading_mean = _get_number(doc, "fading_mean", "", errors, strict_min=0.0, default=1.0)
    noise = _get_number(doc, "noise", "", errors, minimum=0.0, default=0.0)
    params = None
    if pathloss is not None and None not in (threshold, fading_mean, noise):
        try:
            params = PropagationParams(
                pathloss=pathloss, threshold=threshold,
                fading_mean=fading_mean, noise=noise,
            )
        except DetschedError as e:
            errors.append(("pathloss", str(e)))
    K = None
    if kernel_spec is not None and (
        geometry is not None or not isinstance(kernel_spec, GaussianSpec)
    ):
        try:
            K = build_K(kernel_spec, geometry)
        except DetschedError as e:
            errors.append(("kernel", str(e)))
        else:
            if geometry is not None and K.n != geometry.n:
                errors.append(
                    ("kernel", f"kernel has {K.n} nodes but geometry has {geometry.n}")
                )
    if geometry is not None and geometry.mode == "pairs" and pathloss is not None:
        dist = _distance_matrix(geometry.transmitters, geometry.receivers).diagonal()
        for i in np.flatnonzero(_drowned(pathloss, dist)):
            errors.append(
                ("geometry", f"transmitter {int(i)} coincides with its receiver "
                             "under power_law path loss")
            )
    plan, workers = _parse_simulate(doc, doc.get("mode"), geometry.n if geometry else None, errors)
    if errors:
        raise ConfigError(errors)
    cfg = RunConfig(
        geometry=geometry, kernel_spec=kernel_spec, params=params,
        plan=plan, workers=workers,
    )
    cfg.K = K
    return cfg


def parse_config(path) -> RunConfig:
    """Load and validate a config file.

    Raises OSError / json.JSONDecodeError for unreadable or malformed
    files, ConfigError (with every field-level problem) for schema and
    invariant violations.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_config_dict(doc)


def config_dict(cfg: RunConfig) -> dict:
    """Normalized config document; parsing it reproduces ``cfg``."""
    d = {"mode": cfg.mode}
    if cfg.mode == "pairs":
        d["transmitters"] = [[float(v) for v in p] for p in cfg.geometry.transmitters]
        d["receivers"] = [[float(v) for v in p] for p in cfg.geometry.receivers]
    else:
        d["nodes"] = [[float(v) for v in p] for p in cfg.geometry.nodes]
    spec = cfg.kernel_spec
    if isinstance(spec, GaussianSpec):
        d["kernel"] = {"type": "gaussian", "sigma": spec.sigma, "scale": spec.scale}
    elif isinstance(spec, QualitySimilaritySpec):
        d["kernel"] = {
            "type": "quality_similarity",
            "quality": [float(v) for v in spec.quality],
            "similarity": [[float(v) for v in row] for row in spec.similarity],
        }
    elif isinstance(spec, ExplicitMarginalSpec):
        d["kernel"] = {"type": "explicit_K",
                       "matrix": [[float(v) for v in row] for row in spec.matrix]}
    elif isinstance(spec, ExplicitLSpec):
        d["kernel"] = {"type": "explicit_L",
                       "matrix": [[float(v) for v in row] for row in spec.matrix]}
    else:
        d["kernel"] = {"type": "aloha_diagonal",
                       "probabilities": [float(v) for v in spec.probabilities]}
    model = cfg.params.pathloss
    if isinstance(model, PowerLawPathLoss):
        d["pathloss"] = {"type": "power_law", "kappa": model.kappa, "beta": model.exponent}
    else:
        d["pathloss"] = {
            "type": "custom",
            "radii": [float(v) for v in model.radii],
            "values": [float(v) for v in model.values],
        }
    d["threshold"] = cfg.params.threshold
    d["fading_mean"] = cfg.params.fading_mean
    d["noise"] = cfg.params.noise
    if cfg.plan is not None:
        targets = []
        for t in cfg.plan.targets:
            if isinstance(t, tuple):
                link = t[1]
                targets.append(["delay", list(link) if isinstance(link, tuple) else link])
            else:
                targets.append(t)
        d["simulate"] = {
            "reps": cfg.plan.replications,
            "seed": cfg.plan.seed,
            "targets": targets,
            "delay_cap": cfg.plan.delay_cap,
            "workers": cfg.workers,
        }
    return d


# ---------------------------------------------------------------------------
# output helpers


def _finite(v):
    if v is None:
        return None
    v = float(v)
    return v if math.isfinite(v) else None


def _emit(text: str, output: Optional[str]):
    if output:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc, output):
    _emit(json.dumps(doc, indent=2, allow_nan=False) + "\n", output)


def _csv_cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _emit_csv(header, rows, output):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    _emit(buf.getvalue(), output)


_json_str = json.encoder.encode_basestring_ascii


def _json_strings(v) -> str:
    """A list of strings as the value of a record field, indent=2."""
    if not v:
        return "[]"
    return "[\n        " + ",\n        ".join(map(_json_str, v)) + "\n      ]"


# the encoding json.dumps gives each type a record field may hold
_JSON_VALUE = {type(None): lambda v: "null", float: float.__repr__, int: int.__repr__,
               str: _json_str, tuple: _json_strings}
# float.__repr__ of the non-finite floats; a string encodes with its quotes
_NON_FINITE = frozenset(("inf", "-inf", "nan"))


def _json_values(row) -> tuple:
    values = tuple([_JSON_VALUE[type(v)](v) for v in row])
    if not _NON_FINITE.isdisjoint(values):
        raise ValueError("Out of range float values are not JSON compliant")
    return values


def _emit_table(header: dict, key: str, fields: tuple, rows: list, output):
    """Write ``header`` plus ``key``: one object per row, byte for byte as
    json.dumps(indent=2, allow_nan=False) writes that document.

    Row i holds the values of ``fields`` in order.  The header goes through
    json.dumps; each row fills a fixed record template, which skips the
    pure-Python indenting encoder.  A non-finite float raises ValueError,
    as allow_nan=False does.
    """
    text = json.dumps({**header, key: []}, indent=2, allow_nan=False)
    if rows:
        record = "    {\n" + ",\n".join(
            f"      {_json_str(f)}: %s" for f in fields) + "\n    }"
        body = ",\n".join([record % _json_values(row) for row in rows])
        text = text[:-len("[]\n}")] + "[\n" + body + "\n  ]\n}"
    _emit(text + "\n", output)


# One row shape per table: the CSV header and the JSON record fields.
_LINK_FIELDS = ("transmitter", "receiver", "selection_probability",
                "conditional_coverage", "coverage", "delay_mean", "flags", "error")
_RESULT_FIELDS = ("target", "transmitter", "receiver", "closed_form", "estimate",
                  "std_error", "z_score", "censored")


def _link_row(lr) -> tuple:
    flags = lr.flags
    if lr.delay_mean is not None and math.isinf(lr.delay_mean):
        flags = flags + ("infinite_delay",)
    return (lr.transmitter, lr.receiver, _finite(lr.selection_probability),
            _finite(lr.conditional_coverage), _finite(lr.coverage),
            _finite(lr.delay_mean), flags, lr.error)


# ---------------------------------------------------------------------------
# commands


def cmd_coverage(cfg: RunConfig, fmt: str = "json", output: Optional[str] = None) -> int:
    """Closed-form coverage report for every link."""
    report = _coverage.full_report(cfg.geometry, cfg.marginal_kernel(), cfg.params)
    rows = [_link_row(lr) for lr in report.links]
    if fmt == "csv":
        _emit_csv(_LINK_FIELDS, [(*r[:6], ";".join(r[6]), r[7] or "") for r in rows], output)
    else:
        _emit_table(
            {
                "mode": report.mode,
                "kernel_fingerprint": report.kernel_fingerprint,
                "threshold": cfg.params.threshold,
                "fading_mean": cfg.params.fading_mean,
                "noise": cfg.params.noise,
            },
            "links", _LINK_FIELDS, rows, output,
        )
    return 0


def _z_score(closed, estimate, std_error):
    if closed is None:
        return None
    diff = abs(estimate - closed)
    if std_error > 0:
        return diff / std_error
    return 0.0 if diff == 0.0 else None


def _check_flags(flags: dict):
    """Raise ConfigError for command-line flags below their minimum, as the
    matching config keys would be; ``flags`` maps a flag to (value, minimum)
    and unset flags (None) pass."""
    problems = [(flag, f"must be >= {low}, got {v}")
                for flag, (v, low) in flags.items() if v is not None and v < low]
    if problems:
        raise ConfigError(problems)


def _closed_coverages(cfg: RunConfig, K: MarginalKernel, keys) -> dict:
    """{link key: closed-form coverage} for the links ``keys`` (ints in
    pairs mode, (tx, rx) tuples in txrx mode), evaluating only those."""
    links = cfg.geometry.links()
    wanted = np.array([(t if s < 0 else (t, p)) in keys for t, p, s in links.tolist()],
                      dtype=bool)
    return {lr.transmitter if lr.receiver is None else (lr.transmitter, lr.receiver):
            lr.coverage for lr in _coverage._link_reports(cfg.geometry, K, cfg.params,
                                                          links[wanted])}


def cmd_simulate(
    cfg: RunConfig,
    fmt: str = "json",
    output: Optional[str] = None,
    reps: Optional[int] = None,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
) -> int:
    """Monte Carlo estimates side by side with the closed forms."""
    _check_flags({"--reps": (reps, 1), "--seed": (seed, 0), "--workers": (workers, 1)})
    base = cfg.plan
    problems = []
    if reps is None and base is None:
        problems.append(("simulate.reps", "required: set it in the config or pass --reps"))
    if seed is None and base is None:
        problems.append(("simulate.seed", "required: set it in the config or pass --seed"))
    if problems:
        raise ConfigError(problems)
    plan = SimulationPlan(
        reps if reps is not None else base.replications,
        seed if seed is not None else base.seed,
        base.targets if base is not None else ("coverage",),
        base.delay_cap if base is not None else _montecarlo.DEFAULT_DELAY_CAP,
    )
    nworkers = workers if workers is not None else cfg.workers
    L = build_L(cfg.kernel_spec, cfg.geometry)
    found = []
    if plan.wants("coverage"):
        ests = _montecarlo._simulate_coverage(cfg.geometry, L, cfg.params, plan)
        found += [("coverage", key, est, None) for key, est in sorted(ests.items())]
    if plan.wants("delay"):
        delays = _montecarlo.simulate_local_delay(
            cfg.geometry, L, cfg.params, plan, links=plan.delay_links(), workers=nworkers
        )
        found += [("delay", key, est, est.censored) for key, est in sorted(delays.items())]
    closed = _closed_coverages(cfg, l_to_k(L), {key for _, key, _, _ in found})
    rows = []
    for target, key, est, censored in found:
        c = closed[key]
        if target == "delay":
            c = (1.0 / c) if c else None
        tx, rx = (key, None) if isinstance(key, int) else key
        rows.append((target, tx, rx, _finite(c), _finite(est.mean), _finite(est.std_error),
                     _finite(_z_score(c, est.mean, est.std_error)), censored))
    if fmt == "csv":
        _emit_csv(_RESULT_FIELDS, rows, output)
    else:
        _emit_table(
            {"mode": cfg.mode, "replications": plan.replications, "seed": plan.seed,
             "workers": nworkers},
            "results", _RESULT_FIELDS, rows, output,
        )
    return 0


def cmd_sample(
    cfg: RunConfig, output: Optional[str] = None,
    count: int = 1, seed: Optional[int] = None,
) -> int:
    """Draw scheduled sets; one sorted JSON array of node indices per line.

    Draw k uses substream(seed, k), so any prefix of the output is stable
    under a larger count.
    """
    _check_flags({"--count": (count, 1), "--seed": (seed, 0)})
    if seed is None:
        if cfg.plan is None:
            raise ConfigError(
                [("simulate.seed", "required: set it in the config or pass --seed")]
            )
        seed = cfg.plan.seed
    L = build_L(cfg.kernel_spec, cfg.geometry)
    lines = []
    for k in range(count):
        subset = _sample_subset(L, substream(seed, k))
        lines.append(json.dumps(list(subset)))
    _emit("\n".join(lines) + "\n", output)
    return 0


def _kernel_metrics(cfg_or_doc) -> Optional[dict]:
    try:
        if isinstance(cfg_or_doc, RunConfig):
            report = validate_kernel(cfg_or_doc.marginal_kernel().matrix)
        else:
            kernel = cfg_or_doc.get("kernel") if isinstance(cfg_or_doc, dict) else None
            if not isinstance(kernel, dict) or kernel.get("type") != "explicit_K":
                return None
            report = validate_kernel(np.array(kernel["matrix"], dtype=float))
    except Exception:
        return None
    return {
        "symmetry_defect": report.symmetry_defect,
        "min_eigenvalue": report.min_eigenvalue,
        "max_eigenvalue": report.max_eigenvalue,
        "min_diagonal": report.min_diagonal,
        "max_diagonal": report.max_diagonal,
        "valid": report.valid,
        "problems": list(report.problems),
    }


def cmd_validate(path: str, fmt: str = "json", output: Optional[str] = None) -> int:
    """Check a config end to end; exit 0 iff everything passes."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    problems = []
    cfg = None
    try:
        cfg = parse_config_dict(doc)
    except ConfigError as e:
        problems = list(e.problems)
    kernel = _kernel_metrics(cfg if cfg is not None else doc)
    report = {
        "valid": not problems,
        "problems": [{"path": p, "message": m} for p, m in problems],
        "kernel": kernel,
    }
    if fmt == "csv":
        rows = [["valid", str(report["valid"]).lower(), ""]]
        if kernel:
            for key in ("symmetry_defect", "min_eigenvalue", "max_eigenvalue",
                        "min_diagonal", "max_diagonal"):
                rows.append([key, kernel[key], ""])
        for p, m in problems:
            rows.append(["problem", p, m])
        _emit_csv(["field", "value", "detail"], rows, output)
    else:
        _emit_json(report, output)
    return 0 if not problems else 1


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="detsched",
        description="Exact coverage analysis for determinantally scheduled networks.",
    )
    sub = p.add_subparsers(dest="command", required=True)
    specs = {
        "coverage": "closed-form coverage report",
        "simulate": "Monte Carlo estimates vs closed forms",
        "sample": "draw scheduled sets",
        "validate": "check a config and its kernel",
    }
    for name, help_text in specs.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("config", help="path to the JSON run config")
        sp.add_argument("--format", choices=("json", "csv"), default="json")
        sp.add_argument("--output", default=None, help="write here instead of stdout")
        sp.add_argument("--echo-config", action="store_true",
                        help="emit the normalized config instead of running")
        if name == "simulate":
            sp.add_argument("--reps", type=int, default=None)
            sp.add_argument("--seed", type=int, default=None)
            sp.add_argument("--workers", type=int, default=None)
        if name == "sample":
            sp.add_argument("--count", type=int, required=True)
            sp.add_argument("--seed", type=int, default=None)
    return p


def _dispatch(args) -> int:
    if args.command == "validate" and not args.echo_config:
        return cmd_validate(args.config, args.format, args.output)
    cfg = parse_config(args.config)
    if args.echo_config:
        _emit_json(config_dict(cfg), args.output)
        return 0
    if args.command == "coverage":
        return cmd_coverage(cfg, args.format, args.output)
    if args.command == "simulate":
        return cmd_simulate(cfg, args.format, args.output,
                            reps=args.reps, seed=args.seed, workers=args.workers)
    if args.command == "sample":
        return cmd_sample(cfg, args.output, count=args.count, seed=args.seed)
    return cmd_validate(args.config, args.format, args.output)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as e:
        for path, msg in e.problems:
            sys.stderr.write(f"config error at {path}: {msg}\n")
        return 1
    except json.JSONDecodeError as e:
        sys.stderr.write(f"cannot parse config: {e}\n")
        return 2
    except OSError as e:
        sys.stderr.write(f"cannot read config: {e}\n")
        return 2
    except DetschedError as e:
        sys.stderr.write(f"computation failed: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
