"""Spans around calls into weightcell's public functions, recorded from the
benchmark's own code.

`Tracer.install()` replaces each function in TRACED, in every `weightcell`
module namespace that holds it, with a wrapper.  While `tracer.op` names an
op, each call records a span: name, start, end, parent span, op id, and the
counts in `_COUNTS`.  The library looks its own public functions up through
the same module globals, so its internal calls (`shortlex_automaton` calling
`determinize`, `cell_automaton` calling `bound`, ...) are recorded too,
nested under the call that made them.  lru caches keep working: the wrapper
calls the cached function with the caller's arguments unchanged.

Spans stay in memory; the caller writes them out when the run ends.
`layer_metrics` turns a list of spans into the per-layer metrics.
"""

from __future__ import annotations

import sys
import time

TRACED = {
    "coxeter": (
        "system_from_json",
        "minimal_roots",
        "language_automaton",
        "shortlex_automaton",
        "reduced_word_automaton",
        "group_cell",
        "natural_map",
        "lex_word",
        "ball",
    ),
    "closedforms": ("f4_bound", "bn_bound", "spherical_nonneg", "dihedral_bound", "affine_cone"),
    "automata": ("from_json", "determinize", "minimize"),
    "weights": (
        "prepared",
        "boundedness_cone_vectors",
        "is_bounded",
        "bound",
        "cell_automaton",
        "simple_cycles",
        "simple_circuit_words",
        "circuit_free_words",
    ),
    "cones": ("project_parameters", "remove_redundant", "extreme_rays"),
}

# The lru-cached functions whose cache_info() is reported, as
# metric name -> (module, attribute).  `ball` is cached through _ball_entries.
CACHED = {
    "ball": ("coxeter", "_ball_entries"),
    "minimal_roots": ("coxeter", "minimal_roots"),
    "reduced_word_automaton": ("coxeter", "reduced_word_automaton"),
    "shortlex_automaton": ("coxeter", "shortlex_automaton"),
    "is_positive_definite": ("coxeter", "is_positive_definite"),
    "prepared": ("weights", "prepared"),
}

_WEIGHT_ENGINE = ("weights.bound", "weights.cell_automaton", "weights.is_bounded")


def _states(args, result):
    return {"states": result.n_states}


_COUNTS = {
    "coxeter.minimal_roots": lambda args, result: {"roots": result.n_roots},
    "coxeter.language_automaton": _states,
    "automata.determinize": _states,
    "automata.minimize": lambda args, result: {
        "states_in": args[0].n_states,
        "states": result.n_states,
    },
    "coxeter.natural_map": lambda args, result: {"letters": len(args[1])},
    "coxeter.lex_word": lambda args, result: {"letters": len(result)},
    "coxeter.ball": lambda args, result: {"elements": len(result)},
    "weights.simple_cycles": lambda args, result: {"items": len(result)},
    "weights.circuit_free_words": lambda args, result: {"items": len(result)},
    "weights.is_bounded": lambda args, result: {"unbounded": int(not result.bounded)},
    "cones.remove_redundant": lambda args, result: {
        "normals_in": len(args[0].normals),
        "normals_out": len(result.normals),
    },
    "cones.extreme_rays": lambda args, result: {"rays": len(result.rays)},
}


def _module(name: str):
    return sys.modules[f"weightcell.{name}"]


def cache_counts() -> dict[str, int]:
    """cache.<function>.hits / .misses of the functions in CACHED (0 for one
    that no longer exists or is no longer cached)."""
    out = {}
    for metric, (module, attr) in CACHED.items():
        fn = getattr(_module(module), attr, None)
        if not hasattr(fn, "cache_info"):  # a tracer wrapper around the cached function
            fn = getattr(fn, "__wrapped__", fn)
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[f"cache.{metric}.hits"] = info.hits if info else 0
        out[f"cache.{metric}.misses"] = info.misses if info else 0
    return out


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.op: str | None = None  # spans are recorded only while this is set
        self._stack: list[int] = []

    def install(self):
        """Wrap the TRACED functions; import every weightcell module that
        should be traced before calling this."""
        namespaces = [m for n, m in sys.modules.items() if n.split(".")[0] == "weightcell"]
        for module, names in TRACED.items():
            for attr in names:
                original = getattr(_module(module), attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{module}.{attr}", original)
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is original:
                            setattr(namespace, key, wrapper)

    def _wrap(self, name, original):
        counts = _COUNTS.get(name)
        cached = hasattr(original, "cache_info")

        def wrapper(*args, **kwargs):
            if self.op is None:
                return original(*args, **kwargs)
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "op": self.op,
                "name": name,
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            misses = original.cache_info().misses if cached else 0
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span["end"] = time.perf_counter()
                span["error"] = type(exc).__name__
                if type(exc).__name__ == "UnboundedError":
                    span["unbounded"] = 1
                raise
            finally:
                self._stack.pop()
            span["end"] = time.perf_counter()
            if cached:
                span["miss"] = int(original.cache_info().misses > misses)
            if counts:
                span.update(counts(args, result))
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = original.__name__
        return wrapper


def merge(span_lists) -> list[dict]:
    """Concatenate span lists from several processes, renumbering ids."""
    out = []
    for spans in span_lists:
        offset = len(out)
        for span in spans:
            span = dict(span, id=span["id"] + offset)
            if span["parent"] is not None:
                span["parent"] += offset
            out.append(span)
    return out


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from spans, as name -> (value, unit).

    A function's time and counts sum its spans with no ancestor of the same
    name, so recursion is not counted twice; times include everything inside
    the call, so a bound inside cell_automaton counts in both.
    `<module>.self.s` is the time spent in a module's spans minus the time
    of their child spans."""
    by_id = {s["id"]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["end"] - s["start"]

    def has_ancestor(span, names):
        parent = span["parent"]
        while parent is not None:
            if by_id[parent]["name"] in names:
                return True
            parent = by_id[parent]["parent"]
        return False

    outer: dict[str, list[dict]] = {}
    for s in spans:
        if not has_ancestor(s, (s["name"],)):
            outer.setdefault(s["name"], []).append(s)

    def seconds(name):
        return sum(s["end"] - s["start"] for s in outer.get(name, ()))

    def total(name, key, only=None):
        return sum(s.get(key, 0) for s in outer.get(name, ()) if only is None or s.get(only))

    def per_letter(name):
        letters = total(name, "letters")
        return 1e6 * seconds(name) / letters if letters else 0.0

    closed = [
        s
        for s in spans
        if s["name"].startswith("closedforms.") and not has_ancestor(s, _CLOSEDFORMS)
    ]
    engine = [s for s in spans if s["name"] in _WEIGHT_ENGINE and not has_ancestor(s, _WEIGHT_ENGINE)]
    m = {
        "coxeter.minimal_roots.s": (seconds("coxeter.minimal_roots"), "s"),
        "coxeter.minimal_roots.roots": (total("coxeter.minimal_roots", "roots", "miss"), "count"),
        "coxeter.language_automaton.s": (seconds("coxeter.language_automaton"), "s"),
        "coxeter.language_automaton.states": (total("coxeter.language_automaton", "states"), "count"),
        "coxeter.natural_map.s": (seconds("coxeter.natural_map"), "s"),
        "coxeter.natural_map.calls": (len(outer.get("coxeter.natural_map", ())), "count"),
        "coxeter.natural_map.us_per_letter": (per_letter("coxeter.natural_map"), "us"),
        "coxeter.lex_word.s": (seconds("coxeter.lex_word"), "s"),
        "coxeter.lex_word.us_per_letter": (per_letter("coxeter.lex_word"), "us"),
        "coxeter.ball.s": (seconds("coxeter.ball"), "s"),
        "coxeter.ball.elements": (total("coxeter.ball", "elements"), "count"),
        "closedforms.s": (sum(s["end"] - s["start"] for s in closed), "s"),
        "closedforms.calls": (len(closed), "count"),
        "automata.determinize.s": (seconds("automata.determinize"), "s"),
        "automata.minimize.s": (seconds("automata.minimize"), "s"),
        "automata.minimize.states_in": (total("automata.minimize", "states_in"), "count"),
        "automata.minimize.states_out": (total("automata.minimize", "states"), "count"),
        "weights.simple_cycles.s": (seconds("weights.simple_cycles"), "s"),
        "weights.simple_cycles.cycles": (total("weights.simple_cycles", "items"), "count"),
        "weights.circuit_free_words.s": (seconds("weights.circuit_free_words"), "s"),
        "weights.circuit_free_words.words": (total("weights.circuit_free_words", "items"), "count"),
        "weights.bound.s": (seconds("weights.bound"), "s"),
        "weights.cell_automaton.s": (seconds("weights.cell_automaton"), "s"),
        "weights.is_bounded.s": (seconds("weights.is_bounded"), "s"),
        "weights.unbounded_ratio": (
            sum(s.get("unbounded", 0) for s in engine) / len(engine) if engine else 0.0,
            "ratio",
        ),
        "cones.remove_redundant.s": (seconds("cones.remove_redundant"), "s"),
        "cones.remove_redundant.normals_in": (total("cones.remove_redundant", "normals_in"), "count"),
        "cones.remove_redundant.normals_out": (total("cones.remove_redundant", "normals_out"), "count"),
        "cones.extreme_rays.s": (seconds("cones.extreme_rays"), "s"),
        "cones.extreme_rays.rays": (total("cones.extreme_rays", "rays"), "count"),
    }
    for module in TRACED:
        own = [s for s in spans if s["name"].startswith(module + ".")]
        m[f"{module}.self.s"] = (
            sum(s["end"] - s["start"] - child_time.get(s["id"], 0.0) for s in own),
            "s",
        )
    return m


_CLOSEDFORMS = tuple(f"closedforms.{n}" for n in TRACED["closedforms"])
