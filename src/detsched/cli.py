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
and custom{radii, values} (piecewise-linear table).  Either must be defined
at each distance from a node to a receiver slot whose loss is read, every
one but those ``propagation._channel_table`` marks deafening (a txrx
node's own slot, and a node on top of a slot under a power law): a table
must cover it, and a power law must not overflow a double there.  The
schema is four tables of one reader per key: ``_TYPES`` for these two
sections (a row per type, naming the class it builds, keys in the order
of its fields), ``_GEOMETRY`` per mode, ``_CHANNEL`` for threshold,
fading_mean and noise, and the one in ``_parse_simulate``.  Parsing, the
unknown and not-allowed key checks, the top-level keys and --echo-config
all come from them, and a missing key is reported as required at its own
path.  Delay targets may name a single link: ["delay", 2] in pairs mode,
["delay", [0, 1]] in txrx mode; a bare "delay" names every link.

Subcommands: coverage | simulate | sample | validate, each taking the
config path plus --output PATH and --echo-config, and all but sample
--format {json,csv}.
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
from dataclasses import MISSING, asdict, dataclass, fields, replace
from typing import Optional

import numpy as np

from . import coverage as _coverage
from . import montecarlo as _montecarlo
from .errors import ConfigError, DetschedError, MalformedConfig
from .kernels import (
    AlohaSpec,
    ExplicitLSpec,
    ExplicitMarginalSpec,
    GaussianSpec,
    MarginalKernel,
    QualitySimilaritySpec,
    build_K,
    validate as validate_kernel,
)
from .montecarlo import SimulationPlan
from .propagation import (
    NetworkGeometry,
    PowerLawPathLoss,
    PropagationParams,
    TabulatedPathLoss,
    _Channel,
    _channel_table,
    _link_keys,
    _parse_bounded,
    _require,
    path_loss,
)


@dataclass
class RunConfig:
    """Parsed and validated run description."""

    geometry: NetworkGeometry
    kernel_spec: object
    params: PropagationParams
    K: MarginalKernel  # the marginal kernel of kernel_spec, built once
    channel: _Channel  # the geometry's channel table under params.pathloss, built once
    plan: Optional[SimulationPlan] = None
    workers: int = 1
    # "coverage", "delay" (every link) or ("delay", link key)
    targets: tuple = ("coverage",)

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


def _ruled(low, strict=False):
    """The reader of a key held to a bound (``propagation._parse_bounded``):
    the value as its field holds it, else the problem its constructor raises."""
    def read(v, path, errors):
        value, problem = _parse_bounded(v, low, strict)
        if problem is not None:
            errors.append((path, problem))
        return value
    return read


def _number_list(value, path, errors):
    if not isinstance(value, list) or not value:
        errors.append((path, "must be a nonempty list of numbers"))
        return None
    out = [_parse_bounded(v, -math.inf)[0] for v in value]
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
# builds and a reader per key, in the order of the class's fields; None
# reads the key by its field's bound.  A key whose field has a default may
# be left out.  Parsing, the unknown-key check and the --echo-config
# document all come from this table.
_TYPES = {
    "kernel": {
        "gaussian": (GaussianSpec, {"sigma": None, "scale": None}),
        "quality_similarity": (QualitySimilaritySpec,
                               {"quality": _number_list, "similarity": _matrix}),
        "explicit_K": (ExplicitMarginalSpec, {"matrix": _square}),
        "explicit_L": (ExplicitLSpec, {"matrix": _square}),
        "aloha_diagonal": (AlohaSpec, {"probabilities": _number_list}),
    },
    "pathloss": {
        "power_law": (PowerLawPathLoss, {"kappa": None, "beta": None}),
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
    values = [_field(obj, key, f"{section}.", read or _ruled(*f.metadata["bound"]), errors,
                     f.default) for (key, read), f in zip(readers.items(), fields(cls))]
    return _build(cls, values, section, errors)


def _build(build, values, path, errors):
    """``build(*values)``; None if a value is None or build raises (reported at ``path``)."""
    if any(v is None for v in values):
        return None
    try:
        return build(*values)
    except DetschedError as e:
        errors.append((path, str(e)))
        return None


def _echo_typed(section, obj) -> dict:
    """The ``section`` document that parses back to ``obj``."""
    for name, (cls, readers) in _TYPES[section].items():
        if type(obj) is cls:
            values = [getattr(obj, f.name) for f in fields(cls)]
            return {"type": name, **{key: v.tolist() if isinstance(v, np.ndarray) else v
                                     for key, v in zip(readers, values)}}
    raise TypeError(f"no {section} type builds {type(obj).__name__}")


# The schema of the untyped sections.  A geometry mode maps to the
# constructor it calls and a reader per key, in the order of its arguments;
# a key of another mode is not allowed.  The channel and plan keys read the
# bounded fields of PropagationParams and SimulationPlan, with their defaults.
_GEOMETRY = {
    "pairs": (NetworkGeometry.pairs, {"transmitters": _matrix, "receivers": _matrix}),
    "txrx": (NetworkGeometry.txrx, {"nodes": _matrix}),
}
_CHANNEL = {f.name: (_ruled(*f.metadata["bound"]), f.default)
            for f in fields(PropagationParams) if "bound" in f.metadata}
_PLAN = {key: (_ruled(*f.metadata["bound"]), f.default)
         for key, f in zip(("reps", "seed", "delay_cap"), fields(SimulationPlan))}
_COUNT = _ruled(1)  # simulate.workers, --workers and --count
# the reader of each flag, a plan key's flag reading as the key
_FLAGS = {"--reps": _PLAN["reps"][0], "--seed": _PLAN["seed"][0],
          "--workers": _COUNT, "--count": _COUNT}
_TOP_KEYS = {"mode", *(key for _, keys in _GEOMETRY.values() for key in keys),
             *_TYPES, *_CHANNEL, "simulate"}


def _parse_geometry(doc, errors) -> Optional[NetworkGeometry]:
    mode = doc.get("mode")
    if not isinstance(mode, str) or mode not in _GEOMETRY:
        errors.append(("mode", f"must be {' or '.join(map(repr, _GEOMETRY))}, got {mode!r}"))
        return None
    build, readers = _GEOMETRY[mode]
    errors.extend((key, f"not allowed in {mode} mode") for other, (_, keys) in _GEOMETRY.items()
                  if other != mode for key in keys if key in doc)
    values = [_field(doc, key, "", read, errors) for key, read in readers.items()]
    # after _matrix, build raises only for a shape mismatch, at the last key
    return _build(build, values, [*readers][-1], errors)


def _parse_target(entry, path, geometry, keys, drowned, errors):
    """A target; a delay link must be one of ``keys``, the link keys less
    ``drowned``, those whose transmitter drowns its own receiver."""
    if entry in ("coverage", "delay"):
        return entry
    if not (isinstance(entry, list) and len(entry) == 2 and entry[0] == "delay"):
        errors.append((path, f"must be 'coverage', 'delay', or ['delay', link]; got {entry!r}"))
        return None
    if geometry is None:  # its own problem is reported
        return None
    link = entry[1]
    key = tuple(link) if isinstance(link, list) else link
    if all(type(x) is int for x in (key if isinstance(key, tuple) else (key,))):
        if key in keys:
            return ("delay", key)
        if key in drowned:
            errors.append((path, f"link {link!r} has no defined signal: its transmitter and "
                                 "receiver coincide under power_law path loss"))
            return None
    shape = "an int" if geometry.mode == "pairs" else "[tx, rx] with distinct ints"
    errors.append((path, f"link must be {shape} in [0, {geometry.n}), got {link!r}"))
    return None


def _parse_simulate(doc, geometry, drowned, errors):
    """The plan, the worker count and the targets of ``doc["simulate"]``."""
    obj = doc.get("simulate")
    if not isinstance(obj, dict):
        if obj is not None:
            errors.append(("simulate", "must be an object"))
        return None, 1, ("coverage",)

    def targets(raw, path, errors):
        if not isinstance(raw, list) or not raw:
            errors.append((path, "must be a nonempty list"))
            return None
        keys = set(geometry.link_keys()).difference(drowned) if geometry else None
        parsed = [_parse_target(t, f"{path}[{i}]", geometry, keys, drowned, errors)
                  for i, t in enumerate(raw)]
        return None if None in parsed else tuple(parsed)

    # a reader per key, in the order of their problems, and the default of a
    # key that may be left out; built here, as the targets reader needs the geometry
    schema = {**_PLAN, "workers": (_COUNT, 1), "targets": (targets, ("coverage",))}
    _reject_unknown(obj, schema, "simulate", errors)
    v = {key: _field(obj, key, "simulate.", read, errors, default)
         for key, (read, default) in schema.items()}
    if None in v.values():
        return None, 1, ("coverage",)
    return SimulationPlan(v["reps"], v["seed"], v["delay_cap"]), v["workers"], v["targets"]


def parse_config_dict(doc) -> RunConfig:
    """Validate a config document, collecting every problem before failing."""
    if not isinstance(doc, dict):
        raise ConfigError([("$", "top-level value must be an object")])
    errors = []
    _reject_unknown(doc, _TOP_KEYS, "", errors)
    geometry = _parse_geometry(doc, errors)
    kernel_spec = _parse_typed(doc, "kernel", errors)
    pathloss = _parse_typed(doc, "pathloss", errors)
    channel = {key: _field(doc, key, "", read, errors, default)
               for key, (read, default) in _CHANNEL.items()}
    params = (PropagationParams(pathloss, **channel)
              if pathloss is not None and None not in channel.values() else None)
    K = None
    if kernel_spec is not None and (
        geometry is not None or not isinstance(kernel_spec, GaussianSpec)
    ):
        try:
            K = build_K(kernel_spec, geometry)
            if geometry is not None:
                _require(geometry, K)
        except DetschedError as e:
            errors.append(("kernel", str(e)))
    # the links with no signal, and the first loss read but undefined, as
    # the closed forms and the simulators find them
    table, drowned = None, []
    if geometry is not None and pathloss is not None:
        table = _channel_table(geometry, pathloss)
        links = geometry.links()
        drowned = _link_keys(links[table.deafening[links[:, 0], links[:, 1]]])
        if geometry.mode == "pairs":
            errors.extend(("geometry", f"transmitter {i} coincides with its receiver "
                                       "under power_law path loss") for i in drowned)
        if table.undefined is not None:
            try:
                path_loss(pathloss, table.dist[table.undefined])
            except DetschedError as e:
                node, slot = table.undefined
                errors.append(("pathloss", f"transmitter {node} to receiver slot {slot}: {e}"))
    plan, workers, targets = _parse_simulate(doc, geometry, set(drowned), errors)
    if errors:
        raise ConfigError(errors)
    return RunConfig(geometry=geometry, kernel_spec=kernel_spec, params=params, K=K,
                     channel=table, plan=plan, workers=workers, targets=targets)


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
    d = {"mode": cfg.mode,
         **{key: getattr(cfg.geometry, key).tolist() for key in _GEOMETRY[cfg.mode][1]},
         "kernel": _echo_typed("kernel", cfg.kernel_spec),
         "pathloss": _echo_typed("pathloss", cfg.params.pathloss),
         **{key: getattr(cfg.params, key) for key in _CHANNEL}}
    plan = cfg.plan
    if plan is not None:
        d["simulate"] = {"reps": plan.replications, "seed": plan.seed,
                         # the link tuples as the lists JSON reads them back as
                         "targets": json.loads(json.dumps(cfg.targets)),
                         "delay_cap": plan.delay_cap, "workers": cfg.workers}
    return d


# ---------------------------------------------------------------------------
# output helpers


class _WriteFailed(OSError):
    """The output file could not be written; main reports it, exit 2."""


def _emit(text: str, output: Optional[str]):
    if not output:
        sys.stdout.write(text)
        return
    try:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as e:
        raise _WriteFailed(e.errno, e.strerror, output) from e


def _emit_json(doc, output):
    _emit(json.dumps(doc, indent=2, allow_nan=False) + "\n", output)


def _emit_csv(header, rows, output):
    """Write ``header`` and ``rows``, each a sequence of cell strings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _emit(buf.getvalue(), output)


_json_str = json.encoder.encode_basestring_ascii


def _json_strings(v) -> str:
    """A list of strings as the value of a record field, indent=2."""
    if not v:
        return "[]"
    return "[\n        " + ",\n        ".join(map(_json_str, v)) + "\n      ]"


# the text of a value of each type a column may hold, and of None: as
# json.dumps gives it, or as a CSV cell
_JSON_TEXT = ({float: float.__repr__, int: int.__repr__, str: _json_str, tuple: _json_strings},
              "null")
_CSV_TEXT = ({float: lambda v: format(v, ".17g"), int: int.__repr__, str: str,
              tuple: ";".join}, "")
# float.__repr__ of the non-finite floats; a string encodes with its quotes
_NON_FINITE = frozenset(("inf", "-inf", "nan"))


def _column_text(values: list, text: tuple) -> list:
    """The ``text`` of each of ``values``: None, or values of one type."""
    kinds = set(map(type, values))
    kinds.discard(type(None))
    if len(kinds) > 1:
        raise TypeError(f"a column mixes {sorted(k.__name__ for k in kinds)}")
    codes, null = text
    if not kinds:
        return [null] * len(values)
    code = codes[kinds.pop()]
    if None in values:
        return [null if v is None else code(v) for v in values]
    return list(map(code, values))


def _emit_table(header: dict, key: str, columns: dict, output, fmt="json"):
    """Write ``header`` plus ``key``: one object per row, byte for byte as
    json.dumps(indent=2, allow_nan=False) writes that document; or, for
    ``fmt`` "csv", the rows under a header line of the fields.

    ``columns`` maps each field, in order, to its values in row order: None
    or values of one type, an int, float, str or tuple of strings.  The
    header goes through json.dumps; each column is encoded once and each row
    fills a fixed record template, which skips the pure-Python indenting
    encoder.  A non-finite float raises ValueError, as allow_nan=False does.
    """
    if fmt == "csv":
        _emit_csv(list(columns), zip(*[_column_text(v, _CSV_TEXT) for v in columns.values()]),
                  output)
        return
    text = json.dumps({**header, key: []}, indent=2, allow_nan=False)
    cells = [_column_text(v, _JSON_TEXT) for v in columns.values()]
    if not all(map(_NON_FINITE.isdisjoint, cells)):
        raise ValueError("Out of range float values are not JSON compliant")
    if cells and cells[0]:
        record = "    {\n" + ",\n".join(
            f"      {_json_str(f)}: %s" for f in columns) + "\n    }"
        body = ",\n".join(map(record.__mod__, zip(*cells)))
        text = text[:-len("[]\n}")] + "[\n" + body + "\n  ]\n}"
    _emit(text + "\n", output)


def _finite_column(values) -> list:
    """Numbers or None as floats, None for each one absent or not finite,
    which JSON cannot spell."""
    a = np.asarray(values, dtype=float)
    return _coverage._listed(a, ~np.isfinite(a))


# The row shape of simulate's table: the CSV header and the JSON record
# fields.  The coverage table's are the report columns, LinkReport's fields.
_RESULT_FIELDS = ("target", "transmitter", "receiver", "closed_form", "estimate",
                  "std_error", "z_score", "censored")


# ---------------------------------------------------------------------------
# commands


def cmd_coverage(cfg: RunConfig, fmt: str = "json", output: Optional[str] = None) -> int:
    """Closed-form coverage report for every link."""
    table = _coverage._link_table(cfg.geometry, cfg.K, cfg.params, cfg.channel,
                                  cfg.geometry.links())
    # a number JSON cannot spell prints as null, an infinite delay mean flagged
    flags = table["flags"]
    for i in np.flatnonzero(np.isinf(table["delay_mean"])).tolist():
        flags[i] += ("infinite_delay",)
    columns = {f: _finite_column(v) if isinstance(v, np.ndarray) else v for f, v in table.items()}
    header = {"mode": cfg.mode, "kernel_fingerprint": _coverage.kernel_fingerprint(cfg.K),
              **{key: getattr(cfg.params, key) for key in _CHANNEL}}
    _emit_table(header, "links", columns, output, fmt)
    return 0


def _check_flags(cfg: RunConfig, flags: dict, required: tuple):
    """Raise ConfigError for command-line flags out of their ``_FLAGS``
    bound, as the matching config keys would be; ``flags`` maps a flag to
    its value and unset flags (None) pass.  Then, if the config has no
    simulate section, raise it for each ``required`` flag left unset."""
    problems = []
    for flag, v in flags.items():
        if v is not None:
            _FLAGS[flag](v, flag, problems)
    if not problems and cfg.plan is None:
        problems = [(f"simulate.{flag[2:]}", f"required: set it in the config or pass {flag}")
                    for flag in required if flags[flag] is None]
    if problems:
        raise ConfigError(problems)


def cmd_simulate(
    cfg: RunConfig,
    fmt: str = "json",
    output: Optional[str] = None,
    reps: Optional[int] = None,
    seed: Optional[int] = None,
    workers: Optional[int] = None,
) -> int:
    """Monte Carlo estimates, all read from one arena, side by side with the closed forms."""
    _check_flags(cfg, {"--reps": reps, "--seed": seed, "--workers": workers},
                 ("--reps", "--seed"))
    flags = {name: v for name, v in (("replications", reps), ("seed", seed)) if v is not None}
    plan = replace(cfg.plan, **flags) if cfg.plan is not None else SimulationPlan(reps, seed)
    arena = _montecarlo._Arena(cfg.geometry, cfg.K, cfg.params, cfg.channel)
    runs = []
    if "coverage" in cfg.targets:
        runs.append(("coverage", arena.links, *_montecarlo._coverage_estimates(arena, plan), None))
    # a bare "delay" names every link, whatever single links sit beside it
    links = sorted({t[1] for t in cfg.targets if isinstance(t, tuple)})
    if "delay" in cfg.targets or links:
        tracked = arena if "delay" in cfg.targets else arena.track(cfg.geometry, links)
        runs.append(("delay", tracked.links, *_montecarlo._delay_estimates(tracked, plan)))
    # the first target's rows hold every other's, each in link-table order,
    # where a row's tx * n + rx sorts as the row does
    rows, n = runs[0][1], cfg.geometry.n
    table = _coverage._link_table(cfg.geometry, cfg.K, cfg.params, cfg.channel, rows)
    columns = {f: [] for f in _RESULT_FIELDS}
    for target, own, mean, std_error, censored in runs:
        at = np.searchsorted(rows[:, 0] * n + rows[:, 1], own[:, 0] * n + own[:, 1])
        closed = table["coverage"][at]
        if target == "delay":
            # the estimate records a censored replication at the cap
            closed = np.array([c if math.isnan(c) else
                               _coverage.local_delay(c).capped_mean(plan.delay_cap)
                               for c in closed.tolist()])
        # |estimate - closed| / std_error; 0 for an exact hit with no spread,
        # absent with no closed form or for a miss with no spread
        with np.errstate(all="ignore"):
            diff = np.abs(mean - closed)
            z = np.where(std_error > 0, diff / std_error, np.where(diff == 0, 0.0, np.nan))
        at = at.tolist()
        values = ([target] * len(at),
                  *([table[f][i] for i in at] for f in ("transmitter", "receiver")),
                  *map(_finite_column, (closed, mean, std_error, z)),
                  [None] * len(at) if censored is None else censored.tolist())
        for f, v in zip(_RESULT_FIELDS, values):
            columns[f] += v
    header = {"mode": cfg.mode, "replications": plan.replications, "seed": plan.seed,
              "workers": cfg.workers if workers is None else workers}
    _emit_table(header, "results", columns, output, fmt)
    return 0


def cmd_sample(
    cfg: RunConfig, output: Optional[str] = None,
    count: int = 1, seed: Optional[int] = None,
) -> int:
    """Draw scheduled sets; one sorted JSON array of node indices per line.

    Draw k reads work item k's stream of ``seed`` under the rng stream
    contract, so any prefix of the output is stable under a larger count.
    The draws run in seeded blocks, as coverage replications do.
    """
    _check_flags(cfg, {"--count": count, "--seed": seed}, ("--seed",))
    seed = cfg.plan.seed if seed is None else seed
    draws = _montecarlo._draws(*cfg.K.eigh, seed, range(count))
    lines = [json.dumps(np.flatnonzero(row).tolist()) for _, _, mask in draws for row in mask]
    _emit("\n".join(lines) + "\n", output)
    return 0


def _kernel_metrics(cfg: Optional[RunConfig], doc) -> Optional[dict]:
    """The metrics of the built kernel; for a config that fails, those of
    its explicit_K matrix as the schema reads it, and None for any other."""
    if cfg is not None:
        matrix = cfg.K.matrix
    else:
        spec = _parse_typed(doc, "kernel", []) if isinstance(doc, dict) else None
        if not isinstance(spec, ExplicitMarginalSpec):
            return None
        matrix = spec.matrix
    # a metric past the doubles, or NaN where the eigensolver fails, prints
    # as null (JSON) or empty (CSV)
    return {key: None if isinstance(v, float) and not math.isfinite(v) else v
            for key, v in asdict(validate_kernel(matrix)).items()}


def cmd_validate(path: str, fmt: str = "json", output: Optional[str] = None) -> int:
    """Check a config end to end; exit 0 iff everything passes."""
    doc = _load(path)
    problems = []
    cfg = None
    try:
        cfg = parse_config_dict(doc)
    except ConfigError as e:
        problems = list(e.problems)
    kernel = _kernel_metrics(cfg, doc)
    report = {
        "valid": not problems,
        "problems": [{"path": p, "message": m} for p, m in problems],
        "kernel": kernel,
    }
    if fmt == "csv":
        rows = [["valid", str(report["valid"]).lower(), ""]]
        # the kernel's metrics: every field but its verdict and problems
        rows += [[key, "" if v is None else format(v, ".17g"), ""]
                 for key, v in (kernel or {}).items() if key not in ("valid", "problems")]
        rows += [["problem", p, m] for p, m in problems]
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
        if name != "sample":  # sample prints JSON lines only
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
    except _WriteFailed as e:
        sys.stderr.write(f"cannot write output: {e}\n")
        return 2
    except OSError as e:
        sys.stderr.write(f"cannot read config: {e}\n")
        return 2
    except DetschedError as e:
        sys.stderr.write(f"computation failed: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
