"""Per-layer tracing of the amalgam package, installed from outside.

`Tracer.install` replaces the public functions and methods of the layers
`words`, `stallings`, `cosetalg`, `group` and `cli` with timing wrappers.  A
wrapped function is rebound everywhere it is bound: in its defining module,
in every amalgam module that imported it by name, and in the package
namespace.  Nothing under `src/` changes.

Every wrapper takes part in self-time accounting: a layer's self time is the
time during which the innermost active wrapper belongs to that layer.  The
coarse calls also record a span (id, parent id, query, name, start, end) kept
in memory and written out when the run ends; the hot calls (all of `words`,
`coset_rep`, `contains`, `transfer_word`, ...) only count calls and time.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict

import amalgam
from amalgam import cli, cosetalg, fixtures, group, stallings, words

MODULES = {"words": words, "stallings": stallings, "cosetalg": cosetalg, "group": group, "cli": cli}

# Every module namespace that can hold a binding of a wrapped function.
_NAMESPACES = (amalgam, words, stallings, cosetalg, group, cli, fixtures)

# (layer, owner class name or None, attribute, records a span)
TARGETS = [
    *(("words", None, f, False) for f in (
        "identity", "generator", "letter", "letter_index", "letter_sign", "free_reduce",
        "concat", "invert", "free_conjugacy", "substitute", "parse_word", "format_word",
    )),
    *(("words", "Word", m, False) for m in (
        "__init__", "__mul__", "__invert__", "__pow__", "cyclic_reduce", "rotation",
        "least_rotation",
    )),
    *(("stallings", None, f, True) for f in ("build", "pullback", "coset_intersection")),
    *(("stallings", "GeneratingTuple", m, False) for m in (
        "contains", "coset_rep", "basis", "express_in_basis", "is_malnormal",
    )),
    *(("stallings", "GeneratingTuple", m, True) for m in (
        "express_in_generators", "conjugate", "conjugacy_into", "double_transversal",
        "z_subgroup", "in_generalized_normalizer", "z_set_witness", "in_z_set",
    )),
    *(("cosetalg", None, f, False) for f in ("c_coset", "cardinality")),
    ("cosetalg", "CosetOfC", "contains", False),
    *(("cosetalg", None, f, True) for f in ("shift", "transfer", "intersect")),
    *(("group", None, f, False) for f in ("syllable_decompose", "form_to_word")),
    *(("group", "AmalgamContext", m, False) for m in ("transfer_word", "in_c")),
    *(("group", None, f, True) for f in (
        "build_context", "reduced_form", "normal_form", "cyclic_form", "principal_system_solve",
        "classify", "cr_membership", "conjugacy_search", "brute_conjugacy_oracle",
    )),
    ("cli", None, "parse_group_word", False),
    *(("cli", None, f, True) for f in (
        "main", "parse_presentation", "bench_paper_ex1", "bench_paper_ex2", "bench_random",
    )),
    ("cli", "PresentationFile", "context", True),
]


class _CountingCache(dict):
    """ctx.cache replacement that counts insertions by key kind."""

    __slots__ = ("inserts",)

    def __init__(self, inserts: Counter):
        super().__init__()
        self.inserts = inserts

    def __setitem__(self, key, value):
        if key not in self:
            self.inserts[key[0]] += 1
        super().__setitem__(key, value)


class Tracer:
    """Counters, timers and spans of the wrapped calls, for one run."""

    def __init__(self, max_spans: int = 300_000):
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self.query = -1  # index of the running query; -1 during set-up
        self.active = False  # wrappers only pass calls through while False
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.incl: defaultdict[str, float] = defaultdict(float)
        self.extra: Counter = Counter()
        self.cache_inserts: Counter = Counter()
        self._stack: list[list] = []  # [child time, enclosing span id]
        self._depth: Counter = Counter()
        self._next_id = 0
        self._undo: list[tuple] = []

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target the package still defines; a removed one reads 0."""
        for layer, owner, attr, span in TARGETS:
            module = MODULES[layer]
            key = f"{layer}.{attr}" if owner is None else f"{layer}.{owner}.{attr}"
            if owner is None:
                orig = getattr(module, attr, None)
                if orig is None:
                    continue
                wrapped = self._wrap(key, layer, orig, span)
                for ns in _NAMESPACES:
                    for name, value in list(vars(ns).items()):
                        if value is orig:
                            self._undo.append((ns, name, orig))
                            setattr(ns, name, wrapped)
            else:
                cls = getattr(module, owner, None)
                orig = None if cls is None else cls.__dict__.get(attr)
                if orig is None:
                    continue
                self._undo.append((cls, attr, orig))
                setattr(cls, attr, self._wrap(key, layer, orig, span))

    def uninstall(self) -> None:
        while self._undo:
            ns, name, orig = self._undo.pop()
            setattr(ns, name, orig)

    # --- the wrapper ---------------------------------------------------------

    def _wrap(self, key: str, layer: str, fn, span: bool):
        clock = time.perf_counter
        stack = self._stack
        depth = self._depth
        self_s, calls, incl = self.self_s, self.calls, self.incl
        hook = _HOOKS.get(key)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if hook is not None:
                kwargs = hook.before(args, kwargs)
            parent = stack[-1][1] if stack else -1
            if span:
                sid = tracer._next_id
                tracer._next_id = sid + 1
            else:
                sid = parent
            frame = [0.0, sid]
            stack.append(frame)
            d = depth[key]
            depth[key] = d + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[key] = d
                dur = t1 - t0
                self_s[layer] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                calls[key] += 1
                if d == 0:
                    incl[key] += dur
                if span:
                    if len(tracer.spans) < tracer.max_spans:
                        tracer.spans.append((sid, parent, tracer.query, key, t0, t1))
                    else:
                        tracer.dropped += 1
            if hook is not None:
                hook.after(tracer, args, kwargs, result)
            return result

        return wrapper

    # --- results -----------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"spans": len(self.spans), "dropped": self.dropped}) + "\n")
            for sid, parent, query, name, t0, t1 in self.spans:
                fh.write(json.dumps([sid, parent, query, name, t0, t1]) + "\n")

    def metrics(self, time_scale: float = 1.0) -> dict[str, float]:
        """The per-layer metrics; every time is multiplied by time_scale."""
        c, x, ins = self.calls, self.extra, self.cache_inserts
        t = defaultdict(float, {key: s * time_scale for key, s in self.incl.items()})
        self_s = defaultdict(float, {layer: s * time_scale for layer, s in self.self_s.items()})

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        nf_letters = x["normal_form_letters"]
        m = {
            "words.self_s": self_s["words"],
            "words.mul_calls": c["words.Word.__mul__"],
            "words.mul_letters_out": x["mul_letters_out"],
            "words.invert_calls": c["words.Word.__invert__"],
            "words.substitute_calls": c["words.substitute"],
            "words.substitute_s": t["words.substitute"],
            "words.free_conjugacy_calls": c["words.free_conjugacy"],
            "stallings.self_s": self_s["stallings"],
            "stallings.build_calls": c["stallings.build"],
            "stallings.build_s": t["stallings.build"],
            "stallings.build_letters_in": x["build_letters_in"],
            "stallings.build_states_out": x["build_states_out"],
            "stallings.pullback_calls": c["stallings.pullback"],
            "stallings.pullback_s": t["stallings.pullback"],
            "stallings.pullback_states_out": x["pullback_states_out"],
            "stallings.coset_intersection_calls": c["stallings.coset_intersection"],
            "stallings.coset_intersection_s": t["stallings.coset_intersection"],
            "stallings.conjugate_calls": c["stallings.GeneratingTuple.conjugate"],
            "stallings.conjugate_s": t["stallings.GeneratingTuple.conjugate"],
            "stallings.coset_rep_calls": c["stallings.GeneratingTuple.coset_rep"],
            "stallings.coset_rep_s": t["stallings.GeneratingTuple.coset_rep"],
            "stallings.express_in_basis_s": t["stallings.GeneratingTuple.express_in_basis"],
            "stallings.express_in_generators_s": t["stallings.GeneratingTuple.express_in_generators"],
            "stallings.double_transversal_s": t["stallings.GeneratingTuple.double_transversal"],
            "stallings.z_set_witness_s": t["stallings.GeneratingTuple.z_set_witness"],
            "stallings.conjugacy_into_s": t["stallings.GeneratingTuple.conjugacy_into"],
            "cosetalg.self_s": self_s["cosetalg"],
            "cosetalg.shift_calls": c["cosetalg.shift"],
            "cosetalg.shift_s": t["cosetalg.shift"],
            "cosetalg.shift_miss_ratio": ratio(ins["shift"], c["cosetalg.shift"]),
            "cosetalg.transfer_calls": c["cosetalg.transfer"],
            "cosetalg.transfer_s": t["cosetalg.transfer"],
            "group.self_s": self_s["group"],
            "group.build_context_s": t["group.build_context"],
            "group.normal_form_calls": c["group.normal_form"],
            "group.normal_form_s": t["group.normal_form"],
            "group.normal_form_us_per_letter": ratio(t["group.normal_form"] * 1e6, nf_letters),
            "group.transfer_word_calls": c["group.AmalgamContext.transfer_word"],
            "group.transfer_word_miss_ratio": ratio(
                ins["xfer"], c["group.AmalgamContext.transfer_word"]
            ),
            "group.cyclic_form_s": t["group.cyclic_form"],
            "group.classify_s": t["group.classify"],
            "group.principal_system_solve_calls": c["group.principal_system_solve"],
            "group.principal_system_solve_s": t["group.principal_system_solve"],
            "group.ps_miss_ratio": ratio(ins["ps"], c["group.principal_system_solve"]),
            "group.conjugacy_search_s": t["group.conjugacy_search"],
            "group.cache_entries": sum(ins.values()),
            "group.peak_head_len": x["peak_head_len"],
            "cli.self_s": self_s["cli"],
            "cli.main_calls": c["cli.main"],
            "cli.parse_presentation_s": t["cli.parse_presentation"],
            "cli.context_s": t["cli.PresentationFile.context"],
        }
        return m


# --- per-function hooks: extra counts measured at the call boundary ---------


class _Hook:
    def before(self, args, kwargs):
        return kwargs

    def after(self, tracer: Tracer, args, kwargs, result) -> None:
        pass


class _Mul(_Hook):
    def after(self, tracer, args, kwargs, result):
        tracer.extra["mul_letters_out"] += len(result.letters)


class _Build(_Hook):
    def after(self, tracer, args, kwargs, result):
        gens = args[0] if args else kwargs["generators"]
        tracer.extra["build_letters_in"] += sum(len(g.letters) for g in gens)
        tracer.extra["build_states_out"] += result.graph.nstates


class _Pullback(_Hook):
    def after(self, tracer, args, kwargs, result):
        tracer.extra["pullback_states_out"] += result.graph.nstates


class _BuildContext(_Hook):
    def after(self, tracer, args, kwargs, result):
        # the context starts with an empty cache; count what is inserted into it
        result.cache = _CountingCache(tracer.cache_inserts)


class _NormalForm(_Hook):
    """Reads the head-length trace; supplies one when the caller passed none."""

    def before(self, args, kwargs):
        if len(args) < 4 and kwargs.get("trace") is None:
            kwargs = dict(kwargs, trace=[])
        return kwargs

    def after(self, tracer, args, kwargs, result):
        raw = args[1] if len(args) > 1 else kwargs["raw"]
        trace = args[3] if len(args) > 3 else kwargs["trace"]
        tracer.extra["normal_form_letters"] += len(raw.letters)
        peak = max(trace or (), default=0)
        if peak > tracer.extra["peak_head_len"]:
            tracer.extra["peak_head_len"] = peak


_HOOKS = {
    "words.Word.__mul__": _Mul(),
    "stallings.build": _Build(),
    "stallings.pullback": _Pullback(),
    "group.build_context": _BuildContext(),
    "group.normal_form": _NormalForm(),
}
