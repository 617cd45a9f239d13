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
and custom{radii, values} (piecewise-linear table).  The type table
``_TYPES`` is the schema of these two sections: each row names the class a
type builds and reads its keys in the order of the class's fields.
Parsing, the unknown-key check and --echo-config all come from it, and a
missing key is reported as required at its own path.  Delay targets may
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
import functools
import io
import json
import math
import sys
from dataclasses import MISSING, dataclass, fields
from itertools import compress
from typing import Optional

import numpy as np

from . import coverage as _coverage
from . import montecarlo as _montecarlo
from .dpp import sample as _sample_subset
from .errors import ConfigError, DetschedError, MalformedConfig
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
    K: MarginalKernel  # the marginal kernel of kernel_spec, built once
    plan: Optional[SimulationPlan] = None
    workers: int = 1

    @property
    def mode(self) -> str:
        return self.geometry.mode


# ---------------------------------------------------------------------------
# parsing
#
# A reader takes a key's value and its path, and returns the parsed value, or
# None after appending (path, message) to the error list.


def _reject_unknown(obj: dict, allowed, path: str, errors):
    for key in obj:
        if key not in allowed:
            errors.append((f"{path}.{key}" if path else key, "unknown key"))


def _field(obj, key, path, read, errors, default=MISSING):
    """``read`` of ``obj[key]`` at ``path + key``; an absent key reads as
    ``default``, or is reported as required when there is none."""
    if key in obj:
        return read(obj[key], path + key, errors)
    if default is MISSING:
        errors.append((path + key, "required"))
        return None
    return default


def _float(v) -> Optional[float]:
    """``v`` as a finite float; None for a bool, a non-number, nan, ±inf and
    an integer beyond the largest double."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return None
    try:
        v = float(v)
    except OverflowError:
        return None
    return v if math.isfinite(v) else None


def _number(v, path, errors):
    f = _float(v)
    if f is None:
        number = isinstance(v, (int, float)) and not isinstance(v, bool)
        errors.append((path, "must be finite" if number else f"must be a number, got {v!r}"))
    return f


def _positive(v, path, errors):
    v = _number(v, path, errors)
    if v is not None and v <= 0.0:
        errors.append((path, f"must be > 0.0, got {v}"))
        return None
    return v


def _nonnegative(v, path, errors):
    v = _number(v, path, errors)
    if v is not None and v < 0.0:
        errors.append((path, f"must be >= 0.0, got {v}"))
        return None
    return v


def _integer(minimum):
    """A reader of integers >= ``minimum``."""
    def read(v, path, errors):
        if isinstance(v, bool) or not isinstance(v, int):
            errors.append((path, f"must be an integer, got {v!r}"))
            return None
        if v < minimum:
            errors.append((path, f"must be >= {minimum}, got {v}"))
            return None
        return v
    return read


def _number_list(value, path, errors):
    if not isinstance(value, list) or not value:
        errors.append((path, "must be a nonempty list of numbers"))
        return None
    out = [_float(v) for v in value]
    if None not in out:
        return np.array(out)
    i = out.index(None)
    v = value[i]
    # an int that is no float is beyond the doubles
    errors.append((f"{path}[{i}]", "must be finite" if type(v) is int
                   else f"must be a finite number, got {v!r}"))
    return None


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
    return np.array(rows)


def _square(value, path, errors):
    m = _matrix(value, path, errors)
    if m is not None and m.shape[0] != m.shape[1]:
        errors.append((path, f"must be square, got {m.shape[0]}x{m.shape[1]}"))
        return None
    return m


# The schema of the typed sections: each type's name maps to the class it
# builds and a reader per key, in the order of the class's fields.  A key
# whose field has a default may be left out.  Parsing, the unknown-key check
# and the --echo-config document all come from this table.
_TYPES = {
    "kernel": {
        "gaussian": (GaussianSpec, {"sigma": _positive, "scale": _positive}),
        "quality_similarity": (QualitySimilaritySpec,
                               {"quality": _number_list, "similarity": _matrix}),
        "explicit_K": (ExplicitMarginalSpec, {"matrix": _square}),
        "explicit_L": (ExplicitLSpec, {"matrix": _square}),
        "aloha_diagonal": (AlohaSpec, {"probabilities": _number_list}),
    },
    "pathloss": {
        "power_law": (PowerLawPathLoss, {"kappa": _positive, "beta": _positive}),
        "custom": (TabulatedPathLoss, {"radii": _number_list, "values": _number_list}),
    },
}


def _parse_typed(doc, section, errors):
    """The object that ``doc[section]`` describes, built by its _TYPES row."""
    obj = doc.get(section)
    if not isinstance(obj, dict):
        errors.append((section, "required object"))
        return None
    types = _TYPES[section]
    name = obj.get("type")
    if not isinstance(name, str) or name not in types:
        errors.append((f"{section}.type", f"must be one of {sorted(types)}, got {name!r}"))
        return None
    cls, readers = types[name]
    _reject_unknown(obj, {"type", *readers}, section, errors)
    values = [_field(obj, key, f"{section}.", read, errors, f.default)
              for (key, read), f in zip(readers.items(), fields(cls))]
    if any(v is None for v in values):
        return None
    try:
        return cls(*values)
    except DetschedError as e:
        errors.append((section, str(e)))
        return None


def _echo_typed(section, obj) -> dict:
    """The ``section`` document that parses back to ``obj``."""
    for name, (cls, readers) in _TYPES[section].items():
        if type(obj) is cls:
            values = [getattr(obj, f.name) for f in fields(cls)]
            return {"type": name, **{key: v.tolist() if isinstance(v, np.ndarray) else v
                                     for key, v in zip(readers, values)}}
    raise TypeError(f"no {section} type builds {type(obj).__name__}")


def _parse_geometry(doc, errors) -> Optional[NetworkGeometry]:
    mode = doc.get("mode")
    if mode not in ("pairs", "txrx"):
        errors.append(("mode", f"must be 'pairs' or 'txrx', got {mode!r}"))
        return None
    if mode == "pairs":
        if "nodes" in doc:
            errors.append(("nodes", "not allowed in pairs mode"))
        tx = _field(doc, "transmitters", "", _matrix, errors)
        rx = _field(doc, "receivers", "", _matrix, errors)
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
    nodes = _field(doc, "nodes", "", _matrix, errors)
    if nodes is None:
        return None
    try:
        return NetworkGeometry.txrx(nodes)
    except DetschedError as e:
        errors.append(("nodes", str(e)))
        return None


def _parse_target(entry, index, geometry, keys, errors):
    """A target; a delay link must be one of ``keys``, the link keys."""
    path = f"simulate.targets[{index}]"
    if entry in ("coverage", "delay"):
        return entry
    if not (isinstance(entry, list) and len(entry) == 2 and entry[0] == "delay"):
        errors.append((path, f"must be 'coverage', 'delay', or ['delay', link]; got {entry!r}"))
        return None
    if geometry is None:  # its own problem is reported
        return None
    link = entry[1]
    key = tuple(link) if isinstance(link, list) else link
    if all(type(x) is int for x in (key if isinstance(key, tuple) else (key,))) and key in keys:
        return ("delay", key)
    shape = "an int" if geometry.mode == "pairs" else "[tx, rx] with distinct ints"
    errors.append((path, f"link must be {shape} in [0, {geometry.n}), got {link!r}"))
    return None


def _parse_simulate(doc, geometry, errors):
    obj = doc.get("simulate")
    if obj is None:
        return None, 1
    if not isinstance(obj, dict):
        errors.append(("simulate", "must be an object"))
        return None, 1
    _reject_unknown(obj, {"reps", "seed", "targets", "delay_cap", "workers"}, "simulate", errors)
    reps = _field(obj, "reps", "simulate.", _integer(1), errors)
    seed = _field(obj, "seed", "simulate.", _integer(0), errors)
    delay_cap = _field(obj, "delay_cap", "simulate.", _integer(1), errors,
                       _montecarlo.DEFAULT_DELAY_CAP)
    workers = _field(obj, "workers", "simulate.", _integer(1), errors, 1)
    targets = ("coverage",)
    if "targets" in obj:
        raw = obj["targets"]
        if not isinstance(raw, list) or not raw:
            errors.append(("simulate.targets", "must be a nonempty list"))
        else:
            keys = set(geometry.link_keys()) if geometry else None
            parsed = [_parse_target(t, i, geometry, keys, errors) for i, t in enumerate(raw)]
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
    kernel_spec = _parse_typed(doc, "kernel", errors)
    pathloss = _parse_typed(doc, "pathloss", errors)
    threshold = _field(doc, "threshold", "", _nonnegative, errors)
    fading_mean = _field(doc, "fading_mean", "", _positive, errors, 1.0)
    noise = _field(doc, "noise", "", _nonnegative, errors, 0.0)
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
    plan, workers = _parse_simulate(doc, geometry, errors)
    if errors:
        raise ConfigError(errors)
    return RunConfig(geometry=geometry, kernel_spec=kernel_spec, params=params, K=K,
                     plan=plan, workers=workers)


def _load(path):
    """The JSON document in the file ``path``.  Each ValueError of reading
    and decoding it becomes MalformedConfig: bad UTF-8, bad JSON, and an
    integer past Python's digit limit, which json raises as a bare one."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as e:
            raise MalformedConfig(str(e)) from e


def parse_config(path) -> RunConfig:
    """Load and validate a config file.

    Raises OSError / MalformedConfig for unreadable or malformed files,
    ConfigError (with every field-level problem) for schema and invariant
    violations.
    """
    return parse_config_dict(_load(path))


def config_dict(cfg: RunConfig) -> dict:
    """Normalized config document; parsing it reproduces ``cfg``."""
    d = {"mode": cfg.mode}
    if cfg.mode == "pairs":
        d["transmitters"] = cfg.geometry.transmitters.tolist()
        d["receivers"] = cfg.geometry.receivers.tolist()
    else:
        d["nodes"] = cfg.geometry.nodes.tolist()
    d["kernel"] = _echo_typed("kernel", cfg.kernel_spec)
    d["pathloss"] = _echo_typed("pathloss", cfg.params.pathloss)
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
    report = _coverage.full_report(cfg.geometry, cfg.K, cfg.params)
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


def _closed_reports(cfg: RunConfig, K: MarginalKernel, keys) -> dict:
    """{link key: LinkReport} for the links ``keys`` (``link_keys()``
    entries), evaluating only those."""
    all_keys = cfg.geometry.link_keys()
    wanted = [key in keys for key in all_keys]
    rows = cfg.geometry.links()[np.array(wanted, dtype=bool)]
    return dict(zip(compress(all_keys, wanted),
                    _coverage._link_reports(cfg.geometry, K, cfg.params, rows)))


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
    closed = _closed_reports(cfg, l_to_k(L), {key for _, key, _, _ in found})
    rows = []
    for target, key, est, censored in found:
        lr = closed[key]
        c = lr.coverage
        if target == "delay":
            c = (1.0 / c) if c else None
        rows.append((target, lr.transmitter, lr.receiver, _finite(c), _finite(est.mean), _finite(est.std_error),
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
            report = validate_kernel(cfg_or_doc.K.matrix)
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
    doc = _load(path)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use; parse_args leaves it
    unchanged, so every call reuses it."""
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
    return cmd_sample(cfg, args.output, count=args.count, seed=args.seed)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as e:
        for path, msg in e.problems:
            sys.stderr.write(f"config error at {path}: {msg}\n")
        return 1
    except MalformedConfig as e:
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
