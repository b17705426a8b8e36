"""Outside-in span tracer for the pfstab benchmark.

The tracer patches the entry points of each pfstab module from outside the
package: module-level functions (together with every alias another pfstab
module imported by name, such as ``pfstab.search.distance``) and selected
methods (``PfOperator.__mul__``, ``_Engine._accept``, ...).  No source file
changes.  While recording, every call into a patched entry point opens a
span with the id of the span that was open when it started; spans live in
flat in-memory arrays until the run ends.  A span's self time is its
duration minus the part covered by its child spans.

Layer names are the pfstab module names, so the first dotted component of a
span name is its layer.
"""

from __future__ import annotations

import array
import functools
import importlib
import os
import sys
import time
from collections import Counter
from contextlib import contextmanager
from math import comb

import numpy as np

LAYERS = ("search", "code", "zmod", "algebra", "builders", "oracle", "codefile", "cli")

# module -> entry points; a dotted name is a method on a class of that module.
ENTRY_POINTS = {
    "zmod": (
        "_howell_basis", "howell_form", "kernel_basis", "solve_left", "coset_minimum",
        "span_order", "_reduce_against", "span_membership",
    ),
    "algebra": (
        "PfOperator.__mul__", "PfOperator.power", "PfOperator.inverse",
        "PfOperator.commutation_exponent", "PfOperator.from_factors",
        "parse_operator", "lambda_matrix",
    ),
    "code": (
        "validate", "group_order", "codespace_dim", "centralizer_basis", "logical_basis",
        "is_logical", "distance", "l_con", "syndrome", "canonical_phases",
        "stabilizer_matrix", "commutation_rows", "support_diameter", "analyze",
    ),
    "builders": (
        "build_clock_chain", "embed_qudit_code", "double_to_css", "double_code_d6",
        "build_toric", "five_qutrit_code", "code_8_1_3_d3", "code_6_1_3_d7",
        "QuditCheckMatrix.distance", "QuditCheckMatrix.codespace_dim",
        "QuditCheckMatrix.group_order", "QuditCheckMatrix.commutes",
    ),
    "search": ("find_codes", "canonical_equivalence_key", "_Engine._accept"),
    "oracle": (
        "jw_modes", "op_matrix", "projector", "codewords", "syndrome_sim",
        "relation_report", "DenseRep.op_monomial", "Monomial.__matmul__",
    ),
    "codefile": ("save_code", "load_code", "code_to_payload", "code_from_payload", "canonical_json"),
    "cli": ("main",),
}

# zmod entry points that reduce one vector, and those that compute a Howell form.
ZMOD_REDUCE = ("zmod._reduce_against", "zmod.span_membership")
ZMOD_HOWELL = (
    "zmod._howell_basis", "zmod.howell_form", "zmod.kernel_basis", "zmod.solve_left",
    "zmod.coset_minimum", "zmod.span_order",
)
ACCEPT = "search._Engine._accept"
# Span names whose outermost calls the per-layer report times on their own.
GROUPS = (
    "code.distance", "code.l_con", "code.validate", "code.canonical_phases",
    "code.logical_basis", "code.group_order",
)
REJECT_REASONS = ("phase", "invalid", "k", "d", "dup")


def colex_rank(support) -> int:
    """Rank of a sorted 0-indexed support among same-size supports in colex order."""
    return sum(comb(c, i) for i, c in enumerate(support, start=1))


def distance_supports(num_modes: int, result) -> int:
    """Supports ``code.distance`` scanned to produce ``result``, counted from outside.

    The scan visits every support of weight 1 .. w-1, then supports of
    weight w in colex order up to and including the certificate's; a bound
    (value None) means every support up to the cap was scanned.
    """
    if result.value is None:
        return sum(comb(num_modes, w) for w in range(1, result.cap + 1))
    below = sum(comb(num_modes, w) for w in range(1, result.value))
    support = [i for i, a in enumerate(result.certificate.alpha) if a]
    return below + colex_rank(support) + 1


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its direct children cover."""
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=duration.size)
    return duration - covered


def _resolve(module, dotted: str):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records spans around pfstab entry points; use ``with tracer:`` to patch."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._span_name = array.array("i")
        self._parent = array.array("q")
        self._t0 = array.array("d")
        self._t1 = array.array("d")
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self.recording = False
        self.recorded_s = 0.0
        self._restore: list[tuple[object, str, object]] = []
        self._accept_children: dict[str, tuple[object, BaseException | None]] = {}

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int) -> int:
        sid = len(self._t0)
        self._span_name.append(name_id)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._t1.append(0.0)
        self._stack.append(sid)
        self._t0.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self._t1[sid] = time.perf_counter()
        self._stack.pop()

    def _top_name(self) -> str | None:
        return self.names[self._span_name[self._stack[-1]]] if self._stack else None

    @contextmanager
    def record(self):
        """Record spans for the calls made inside the block."""
        self.recording = True
        start = time.perf_counter()
        try:
            yield
        finally:
            self.recorded_s += time.perf_counter() - start
            self.recording = False

    def _wrap(self, name: str, fn):
        name_id = self._name_id(name)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            state = before(tracer, args) if before else None
            sid = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._close(sid)
                if after:
                    after(tracer, state, args, None, exc)
                raise
            tracer._close(sid)
            if after:
                after(tracer, state, args, result, None)
            return result

        return wrapper

    # -- patching -------------------------------------------------------------

    def install(self) -> None:
        layers = {layer: importlib.import_module(f"pfstab.{layer}") for layer in ENTRY_POINTS}
        modules = [m for key, m in sorted(sys.modules.items()) if key == "pfstab" or key.startswith("pfstab.")]
        for layer, entries in ENTRY_POINTS.items():
            for dotted in entries:
                owner, attr = _resolve(layers[layer], dotted)
                name = f"{layer}.{dotted}"
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    if isinstance(raw, classmethod):
                        patched = classmethod(self._wrap(name, raw.__func__))
                    else:
                        patched = self._wrap(name, raw)
                    self._restore.append((owner, attr, raw))
                    setattr(owner, attr, patched)
                    continue
                original = getattr(owner, attr)
                patched = self._wrap(name, original)
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, alias, original))
                            setattr(mod, alias, patched)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._span_name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "t0": np.frombuffer(self._t0, dtype=np.float64).copy(),
            "t1": np.frombuffer(self._t1, dtype=np.float64).copy(),
        }

    def write(self, path) -> None:
        """Write the spans as one .npz: ``names`` and, per span, ``name`` (index into
        names), ``parent`` (-1 for a root), ``start`` and ``end`` in seconds."""
        spans = self.arrays()
        origin = float(spans["t0"].min()) if spans["t0"].size else 0.0
        np.savez(
            path, names=np.array(self.names), name=spans["name"], parent=spans["parent"].astype(np.int32),
            start=spans["t0"] - origin, end=spans["t1"] - origin,
        )

    def summary(self) -> dict:
        """Per-name call counts and self time, and the time of outermost calls per group.

        ``inclusive[g]`` sums the durations of spans in group ``g`` that have
        no ancestor in ``g``, so nested calls are not counted twice; a group
        is a layer or one of the span names in ``GROUPS``.
        """
        spans = self.arrays()
        duration = spans["t1"] - spans["t0"]
        own = self_times(spans["parent"], duration)
        groups = LAYERS + GROUPS
        masks = []
        for name in self.names:
            member = {name.split(".", 1)[0], name}
            masks.append(sum(1 << gid for gid, g in enumerate(groups) if g in member))
        name_mask = np.array(masks, dtype=np.int64)[spans["name"]] if masks else np.zeros(0, dtype=np.int64)
        above = [0] * duration.size  # groups of each span's ancestors; parents precede children
        mask_list = name_mask.tolist()
        for sid, p in enumerate(spans["parent"].tolist()):
            if p >= 0:
                above[sid] = above[p] | mask_list[p]
        above = np.array(above, dtype=np.int64)
        inclusive = {}
        for gid, group in enumerate(groups):
            bit = np.int64(1 << gid)
            outermost = ((name_mask & bit) != 0) & ((above & bit) == 0)
            inclusive[group] = float(duration[outermost].sum())
        count = np.bincount(spans["name"], minlength=len(self.names))
        self_sum = np.bincount(spans["name"], weights=own, minlength=len(self.names))
        return {
            "calls": Counter({name: int(count[i]) for i, name in enumerate(self.names)}),
            "self_s": Counter({name: float(self_sum[i]) for i, name in enumerate(self.names)}),
            "inclusive": inclusive,
            "root_s": float(duration[spans["parent"] < 0].sum()),
            "recorded_s": self.recorded_s,
            "counters": Counter(self.counters),
        }


# -- per-layer metrics ------------------------------------------------------

# name -> unit of every per-layer metric, in report order.
PER_LAYER = {
    **{f"{layer}.self_s": "s" for layer in LAYERS + ("other",)},
    "search.nodes": "count",
    "search.us_per_node": "us",
    "search.accept_calls": "count",
    "search.hits": "count",
    "search.accept_yield": "ratio",
    **{f"search.reject.{r}": "count" for r in REJECT_REASONS},
    "code.distance.calls": "count",
    "code.distance.s": "s",
    "code.distance.supports": "count",
    "code.distance.ns_per_support": "ns",
    "code.l_con.calls": "count",
    "code.l_con.s": "s",
    "code.validate.calls": "count",
    "code.validate.s": "s",
    "code.canonical_phases.calls": "count",
    "code.canonical_phases.s": "s",
    "code.logical_basis.s": "s",
    "code.group_order.s": "s",
    "zmod.reduce.calls": "count",
    "zmod.reduce.s": "s",
    "zmod.howell.calls": "count",
    "zmod.howell.s": "s",
    "zmod.us_per_call": "us",
    "algebra.mul.calls": "count",
    "algebra.power.calls": "count",
    "algebra.s": "s",
    "algebra.ns_per_mul": "ns",
    "builders.calls": "count",
    "builders.s": "s",
    "oracle.projector.calls": "count",
    "oracle.syndrome_sim.calls": "count",
    "oracle.op_monomial.calls": "count",
    "oracle.s": "s",
    "codefile.s": "s",
    "codefile.bytes": "bytes",
    "cli.s": "s",
    "trace.overhead_frac": "ratio",
}


def per_layer(summary: dict, passes: int, overhead: float) -> dict:
    """Per-layer metrics from a tracer summary: totals per traced pass, and ratios.

    ``<layer>.self_s`` is the layer's self time; ``other.self_s`` is the
    time inside recorded operations that no span covers (benchmark glue,
    and pfstab code between entry points, such as constructors).  A
    function's ``.s`` is the time of its outermost calls, children included.
    """
    calls, own, incl, count = summary["calls"], summary["self_s"], summary["inclusive"], summary["counters"]
    layer_self = Counter()
    for name, t in own.items():
        layer_self[name.split(".", 1)[0]] += t
    mul = "algebra.PfOperator.__mul__"
    totals = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    totals["other.self_s"] = summary["recorded_s"] - summary["root_s"]
    for name in ("search.nodes", "search.accept_calls", "search.hits", "code.distance.supports", "codefile.bytes"):
        totals[name] = count[name]
    totals.update({f"search.reject.{r}": count[f"search.reject.{r}"] for r in REJECT_REASONS})
    for fn in ("distance", "l_con", "validate", "canonical_phases"):
        totals[f"code.{fn}.calls"] = calls[f"code.{fn}"]
    for group in GROUPS:
        totals[f"{group}.s"] = incl[group]
    totals.update({
        "zmod.reduce.calls": calls["zmod._reduce_against"],
        "zmod.reduce.s": sum(own[name] for name in ZMOD_REDUCE),
        "zmod.howell.calls": calls["zmod._howell_basis"],
        "zmod.howell.s": sum(own[name] for name in ZMOD_HOWELL),
        "algebra.mul.calls": calls[mul],
        "algebra.power.calls": calls["algebra.PfOperator.power"],
        "builders.calls": sum(c for name, c in calls.items() if name.startswith("builders.")),
        "oracle.projector.calls": calls["oracle.projector"],
        "oracle.syndrome_sim.calls": calls["oracle.syndrome_sim"],
        "oracle.op_monomial.calls": calls["oracle.DenseRep.op_monomial"],
    })
    for layer in ("algebra", "builders", "oracle", "codefile", "cli"):
        totals[f"{layer}.s"] = incl[layer]
    out = {name: value / passes for name, value in totals.items()}

    def ratio(a, b, scale):
        return a / b * scale if b else 0.0

    zmod_calls = sum(c for name, c in calls.items() if name.startswith("zmod."))
    out.update({
        "search.us_per_node": ratio(layer_self["search"], count["search.nodes"], 1e6),
        "search.accept_yield": ratio(count["search.hits"], count["search.accept_calls"], 1.0),
        "code.distance.ns_per_support": ratio(incl["code.distance"], count["code.distance.supports"], 1e9),
        "zmod.us_per_call": ratio(layer_self["zmod"], zmod_calls, 1e6),
        "algebra.ns_per_mul": ratio(own[mul], calls[mul], 1e9),
        "trace.overhead_frac": overhead,
    })
    return {name: out[name] for name in PER_LAYER}


# -- observers: counts read from arguments, return values and exceptions -----


def _before_accept(tracer: Tracer, args) -> int:
    tracer._accept_children = {}
    return len(args[0].hit_keys)


def _after_accept(tracer: Tracer, hits_before: int, args, result, exc) -> None:
    """Classify one ``_Engine._accept`` attempt by the first check it failed."""
    engine = args[0]
    spec = engine.spec
    seen = tracer._accept_children
    phases = seen.get("code.canonical_phases")
    flags = seen.get("code.validate")
    dim = seen.get("code.codespace_dim")
    dist = seen.get("code.distance")
    tracer.counters["search.accept_calls"] += 1
    if len(engine.hit_keys) > hits_before:
        tracer.counters["search.hits"] += 1
    elif phases is None or phases[1] is not None:
        tracer.counters["search.reject.phase"] += 1
    elif flags is None or flags[1] is not None or not flags[0].all_ok:
        tracer.counters["search.reject.invalid"] += 1
    elif dim is None or dim[1] is not None or dim[0] != spec.modulus**spec.target_k:
        tracer.counters["search.reject.k"] += 1
    elif dist is None or dist[1] is not None or dist[0].value != spec.target_d:
        tracer.counters["search.reject.d"] += 1
    else:
        tracer.counters["search.reject.dup"] += 1


def _remember(name: str):
    """Keep the outcome of a call made directly by ``_Engine._accept``."""

    def after(tracer: Tracer, state, args, result, exc) -> None:
        if tracer._top_name() == ACCEPT:
            tracer._accept_children[name] = (result, exc)

    return after


_remember_distance = _remember("code.distance")


def _after_distance(tracer: Tracer, state, args, result, exc) -> None:
    _remember_distance(tracer, state, args, result, exc)
    if exc is None:
        tracer.counters["code.distance.supports"] += distance_supports(args[0].num_modes, result)


def _after_find_codes(tracer: Tracer, state, args, result, exc) -> None:
    if exc is None:
        tracer.counters["search.nodes"] += result[1].tuples_examined


def _after_file(tracer: Tracer, state, args, result, exc) -> None:
    if exc is None:
        tracer.counters["codefile.bytes"] += os.path.getsize(args[0])


_BEFORE = {ACCEPT: _before_accept}
_AFTER = {
    ACCEPT: _after_accept,
    "code.canonical_phases": _remember("code.canonical_phases"),
    "code.validate": _remember("code.validate"),
    "code.codespace_dim": _remember("code.codespace_dim"),
    "code.distance": _after_distance,
    "search.find_codes": _after_find_codes,
    "codefile.save_code": _after_file,
    "codefile.load_code": _after_file,
}
