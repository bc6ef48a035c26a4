"""Spans around the public functions of each hkindex module.

Traced runs replace every public function of the ``hkindex`` layer
modules with a wrapper that records a span (label, start, end, parent span,
item id, observed value).  A function is replaced under every name that
refers to it in any ``hkindex`` namespace, including ``from``-imports such
as ``spectra.assemble`` and dispatch tables such as ``cli.COMMANDS``, so
calls are caught whichever module makes them.  Spans stay in memory and
are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("spectral", "waves", "operators", "spectra", "verdicts", "cli",
          "io_utils")
SHORT = {"io_utils": "io"}

# called once per CSV cell: a span there would cost more than the call and
# swamp the io layer's time, so its time stays in its caller's self time
UNTRACED = {"io.format_float"}

# span record fields
LABEL, START, END, PARENT, ITEM, VALUE = range(6)


def _eig_order(args, result):
    # sym_eig returns (w, v); hamiltonian_eigensystem an object
    w = result[0] if isinstance(result, tuple) else result.eigenvalues
    return int(w.size)


def _residual(args, result):
    return float(getattr(result, "residual_norm", 0.0))


def _payload_bytes(args, result):
    return len(args[1]) if len(args) > 1 else 0


OBSERVERS = {
    "spectra.sym_eig": _eig_order,
    "spectra.hamiltonian_eigensystem": _eig_order,
    "waves.solve_ground_state": _residual,
    "waves.kdv_wave": _residual,
    "waves.bbm_wave": _residual,
    "io.atomic_write_text": _payload_bytes,
    "io.atomic_write_bytes": _payload_bytes,
}


def _basis_cache_size():
    cache = getattr(sys.modules.get("hkindex.operators"), "_BASIS_CACHE", None)
    return len(cache) if isinstance(cache, dict) else None


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = None
        self._stack = []

    def wrap(self, label: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(label)
        is_basis = label == "operators.real_fourier_basis"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(rec)
            cached = _basis_cache_size() if is_basis else None
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if observe is not None:
                rec[VALUE] = observe(args, result)
            elif is_basis:
                # a build is a call that grew the cache (or any call, if
                # the program keeps no cache)
                rec[VALUE] = 1 if cached is None else _basis_cache_size() - cached
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function under every name bound to it."""
        wrapped = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"hkindex.{layer}")
            except ImportError:
                continue
            for name, fn in vars(module).items():
                label = f"{SHORT.get(layer, layer)}.{name}"
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_") and label not in UNTRACED):
                    wrapped[fn] = self.wrap(label, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "hkindex" and not modname.startswith("hkindex."):
                continue
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, name, wrapped[value])
                elif isinstance(value, dict):
                    for key, entry in value.items():
                        if inspect.isfunction(entry) and entry in wrapped:
                            value[key] = wrapped[entry]


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds the wrapper adds per call, measured on a no-op function."""
    def noop():
        return None
    traced = Tracer().wrap("calibration.noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(time.perf_counter() - t0 - bare, 0.0) / calls


ALL = object()


class SpanTable:
    """Durations, self times and ancestry of a list of span records.

    Every query takes a label predicate and optionally one item id."""

    def __init__(self, spans: list):
        self.spans = spans
        self.dur = [rec[END] - rec[START] for rec in spans]
        child = [0.0] * len(spans)
        for rec, d in zip(spans, self.dur):
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += d
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def _select(self, match, item):
        return [i for i, rec in enumerate(self.spans)
                if match(rec[LABEL]) and (item is ALL or rec[ITEM] == item)]

    def _outermost(self, i: int, match) -> bool:
        parent = self.spans[i][PARENT]
        while parent >= 0:
            if match(self.spans[parent][LABEL]):
                return False
            parent = self.spans[parent][PARENT]
        return True

    def inclusive(self, match, item=ALL) -> float:
        """Time inside spans whose label matches, nested matches counted once."""
        return sum(self.dur[i] for i in self._select(match, item)
                   if self._outermost(i, match))

    def self_sum(self, match, item=ALL) -> float:
        return sum(self.self_time[i] for i in self._select(match, item))

    def calls(self, match, item=ALL) -> int:
        return len(self._select(match, item))

    def values(self, match, item=ALL) -> list:
        return [self.spans[i][VALUE] for i in self._select(match, item)
                if self.spans[i][VALUE] is not None]

    def items(self) -> list:
        return list(dict.fromkeys(rec[ITEM] for rec in self.spans))


def is_(*labels):
    wanted = set(labels)
    return lambda label: label in wanted


def in_layer(layer: str):
    prefix = layer + "."
    return lambda label: label.startswith(prefix)


# computed flop counts of the two dense kernels (LAPACK's symmetric
# eigensolver with vectors, and the nonsymmetric QR algorithm with vectors)
EIGH_FLOP_PER_N3 = 9.0
HAM_EIG_FLOP_PER_N3 = 25.0

# metric name suffix -> unit, longest suffix first
UNITS = {"gflop_per_s": "GFLOP/s", "gflop": "GFLOP", "calls": "count",
         "builds": "count", "order": "rows", "bytes": "B",
         "residual_max": "abs", "s": "s"}


def _unit(name: str) -> str:
    tail = name.rsplit(".", 1)[1]
    for suffix, unit in UNITS.items():
        if tail == suffix or tail.endswith("_" + suffix):
            return unit
    return "s"


def layer_metrics(spans: list, passes: int) -> dict:
    """Per-layer metrics of the traced passes, per pass (sums divided by
    the pass count; orders and the residual are maxima)."""
    t = SpanTable(spans)
    per = 1.0 / passes
    eigh = is_("spectra.sym_eig")
    ham = is_("spectra.hamiltonian_eigensystem")
    eigh_orders = t.values(eigh)
    ham_orders = t.values(ham)
    eigh_s, ham_s = t.inclusive(eigh) * per, t.inclusive(ham) * per
    eigh_gflop = sum(EIGH_FLOP_PER_N3 * n ** 3 for n in eigh_orders) * 1e-9 * per
    ham_gflop = sum(HAM_EIG_FLOP_PER_N3 * n ** 3 for n in ham_orders) * 1e-9 * per
    basis = is_("operators.real_fourier_basis")
    assemble = is_("operators.assemble")
    rescale = is_("waves.kdv_wave", "waves.bbm_wave")
    writes = is_("io.atomic_write_text", "io.atomic_write_bytes")
    writers = is_("waves.save_profile", "operators.save_matrix")
    m = {
        "spectra.ham_eig_s": ham_s,
        "spectra.ham_eig_order": max(ham_orders, default=0),
        "spectra.ham_eig_gflop": ham_gflop,
        "spectra.ham_eig_gflop_per_s": ham_gflop / ham_s if ham_s > 0 else 0.0,
        "spectra.eigh_s": eigh_s,
        "spectra.eigh_calls": t.calls(eigh) * per,
        "spectra.eigh_order": max(eigh_orders, default=0),
        "spectra.eigh_gflop": eigh_gflop,
        "spectra.eigh_gflop_per_s": eigh_gflop / eigh_s if eigh_s > 0 else 0.0,
        "spectra.constrained_s": t.inclusive(is_(
            "spectra.constrained_quantity",
            "spectra.constrained_quantity_sandwiched")) * per,
        "spectra.krein_s": t.inclusive(is_("spectra.classify_krein")) * per,
        "spectra.bbm_slope_s": t.inclusive(is_("spectra.bbm_slope")) * per,
        "operators.basis_s": t.inclusive(basis) * per,
        "operators.basis_builds": sum(t.values(basis)) * per,
        "operators.assemble_s": t.inclusive(assemble) * per,
        "operators.assemble_calls": t.calls(assemble) * per,
        "operators.transform_s": t.inclusive(is_(
            "operators.to_coords", "operators.from_coords")) * per,
        "waves.solve_s": t.inclusive(is_(
            "waves.solve_ground_state", "waves.solve_traveling_wave")) * per,
        "waves.rescale_s": t.inclusive(rescale) * per,
        "waves.rescale_calls": t.calls(rescale) * per,
        "waves.residual_max": max(t.values(is_(
            "waves.solve_ground_state", "waves.kdv_wave", "waves.bbm_wave")),
            default=0.0),
        "spectral.s": t.inclusive(in_layer("spectral")) * per,
        "spectral.calls": t.calls(in_layer("spectral")) * per,
        # argument parsing is main's own time plus parser and config set-up
        "cli.parse_s": (t.self_sum(is_("cli.main", "cli.build_parser",
                                       "cli.load_config"))) * per,
        # output files: io_utils and the writers that format through it
        "io.write_s": t.inclusive(
            lambda label: label.startswith("io.") or writers(label)) * per,
        "io.bytes": sum(t.values(writes)) * per,
    }
    for layer in LAYERS:
        short = SHORT.get(layer, layer)
        m[f"{short}.self_s"] = t.self_sum(in_layer(short)) * per
    return {name: (value, _unit(name)) for name, value in m.items()}


STAGE_COLUMNS = ("ground state", "basis + assemble", "eigh",
                 "Hamiltonian eig", "Krein", "end to end")


def stage_rows(spans: list) -> dict:
    """ROADMAP baseline columns per item: item id -> (ground state, basis,
    assemble, eigh, Hamiltonian eig, Krein, end to end) in seconds.

    "assemble" is the self time of the dense matrix routines, so the basis
    samples they request are counted once, under "basis"."""
    t = SpanTable(spans)
    return {item: (
        t.inclusive(is_("waves.solve_ground_state"), item),
        t.inclusive(is_("operators.real_fourier_basis"), item),
        t.self_sum(is_("operators.assemble", "operators.bbm_symmetrize",
                       "operators.sandwich"), item),
        t.inclusive(is_("spectra.sym_eig"), item),
        t.inclusive(is_("spectra.hamiltonian_eigensystem"), item),
        t.inclusive(is_("spectra.classify_krein"), item),
        t.inclusive(is_("cli.main"), item),
    ) for item in t.items()}
