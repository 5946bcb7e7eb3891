"""Per-layer tracing from outside the program: self time and call counts.

A *layer* is one package of ``src/repro`` (``sim``, ``net``, ``vswitch``,
``core``, ``fabric``, ``host``, ``controller``, ``fleet``) plus the
worker-pool module ``repro.experiments.parallel``. :func:`install`
replaces the public functions those packages define -- methods, static
and class methods, property getters, constructors and module-level
functions, the latter rebound in every ``repro`` module that imported
them -- with a counting wrapper. A wrapper that enters another layer
makes that layer current until it returns; a layer's self time is the
time it was current. Calls that stay inside the current layer read no
clock, which keeps the traced run close to the untraced one; private
helpers are charged to the layer that called them.

Two program-side hooks close the gaps wrappers cannot see, without
touching ``src/``: every new :class:`~repro.sim.engine.Engine` gets this
module's dispatcher as its ``profiler`` (the engine's own per-event
hook), so closures and lambdas the engine runs are charged to the
package that defined them; and ``Process._resume`` is charged to the
package of the generator it resumes. Neither calls
``repro.telemetry.install()``, which would turn the fast paths off.

Install before building the system under test: vNIC guest callbacks and
sinks capture bound methods at build time. Call counts are kept per
function under its qualified name, so ratios are measured where the
work happens.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
import types
from typing import Callable, Dict, List, Optional

#: Package (or module) prefix -> layer name; the longest prefix wins.
LAYER_PREFIXES = {
    "repro.sim": "sim",
    "repro.net": "net",
    "repro.vswitch": "vswitch",
    "repro.core": "core",
    "repro.fabric": "fabric",
    "repro.host": "host",
    "repro.controller": "controller",
    "repro.fleet": "fleet",
    "repro.experiments.parallel": "parallel",
}
LAYERS = ["other"] + sorted(set(LAYER_PREFIXES.values()))
_LAYER_INDEX = {name: index for index, name in enumerate(LAYERS)}
OTHER = 0

#: Private names wrapped anyway: construction and callable objects are
#: entry points too.
_ENTRY_DUNDERS = frozenset({"__init__", "__call__"})
RESUME = "repro.sim.engine.Process._resume"


def _is_entry(attr: str, name: str, hooks) -> bool:
    """Public names, constructors and anything a hook observes."""
    return (not attr.startswith("_") or attr in _ENTRY_DUNDERS
            or name in hooks or name == RESUME)


# Current layer and the instant it became current: a layer's self time
# is the sum of the intervals during which it was current.
_STATE: list = [OTHER, time.perf_counter()]
_SELF = [0.0] * len(LAYERS)
_CALLS: List[int] = []
_CALL_LAYER: List[int] = []
_SLOT: Dict[str, int] = {}
_INCLUSIVE: Dict[str, float] = {}
_FILE_LAYER: Dict[str, int] = {}
_CODE_LAYER: Dict[object, int] = {}
_installed = False


def layer_of_module(name: str) -> Optional[str]:
    best = None
    for prefix, layer in LAYER_PREFIXES.items():
        if name == prefix or name.startswith(prefix + "."):
            if best is None or len(prefix) > len(best[0]):
                best = (prefix, layer)
    return best[1] if best else None


def _code_layer(code) -> int:
    layer = _CODE_LAYER.get(code)
    if layer is None:
        layer = _CODE_LAYER[code] = _FILE_LAYER.get(code.co_filename, OTHER)
    return layer


def _slot(name: str, layer: int) -> int:
    slot = _SLOT.get(name)
    if slot is None:
        slot = _SLOT[name] = len(_CALLS)
        _CALLS.append(0)
        _CALL_LAYER.append(layer)
    return slot


def _run_in(layer: int, fn: Callable, args, kwargs,
            clock=time.perf_counter):
    """Call ``fn`` with ``layer`` current. A call that stays in the
    current layer reads no clock at all."""
    state, selfs = _STATE, _SELF
    prev = state[0]
    if prev == layer:
        return fn(*args, **kwargs)
    now = clock()
    selfs[prev] += now - state[1]
    state[0] = layer
    state[1] = now
    try:
        return fn(*args, **kwargs)
    finally:
        now = clock()
        selfs[layer] += now - state[1]
        state[0] = prev
        state[1] = now


def _wrap(fn: Callable, layer: int, name: str,
          hook: Optional["Hook"] = None) -> Callable:
    calls, state, selfs, clock = _CALLS, _STATE, _SELF, time.perf_counter
    slot = _slot(name, layer)
    if hook is None:
        # _run_in inlined: this wrapper runs millions of times.
        def traced(*args, **kwargs):
            calls[slot] += 1
            prev = state[0]
            if prev == layer:
                return fn(*args, **kwargs)
            now = clock()
            selfs[prev] += now - state[1]
            state[0] = layer
            state[1] = now
            try:
                return fn(*args, **kwargs)
            finally:
                now = clock()
                selfs[layer] += now - state[1]
                state[0] = prev
                state[1] = now
    else:
        pre, post = hook.pre, hook.post

        def traced(*args, **kwargs):
            calls[slot] += 1
            token = pre(args) if pre is not None else None
            result = _run_in(layer, fn, args, kwargs)
            if post is not None:
                post(args, result, token)
            return result
    functools.update_wrapper(traced, fn)
    traced._perfbench_traced = True
    return traced


class Hook:
    """Observation attached to one wrapped function: ``pre(args)`` runs
    before the call, ``post(args, result, token)`` after it returns."""

    def __init__(self, pre=None, post=None) -> None:
        self.pre = pre
        self.post = post


class _Dispatcher:
    """``Engine.profiler`` stand-in: runs each engine callback that is
    not itself a wrapper with the package that defined its code current."""

    def dispatch(self, fn, args, now) -> None:
        func = getattr(fn, "__func__", fn)
        code = getattr(func, "__code__", None)
        if code is None or getattr(func, "_perfbench_traced", False):
            fn(*args)
        else:
            _run_in(_code_layer(code), fn, args, {})


DISPATCHER = _Dispatcher()


def _traced_resume(original):
    """``Process._resume`` charged to the resumed generator's package."""
    sim = _LAYER_INDEX["sim"]
    slot = _slot("repro.sim.engine.Process._resume", sim)

    def resume(proc, value, exc):
        _CALLS[slot] += 1
        gen_code = getattr(proc.gen, "gi_code", None)
        layer = sim if gen_code is None else _code_layer(gen_code)
        return _run_in(layer, original, (proc, value, exc), {})
    functools.update_wrapper(resume, original)
    resume._perfbench_traced = True
    return resume


def _inclusive(fn: Callable, key: str) -> Callable:
    """Outer wrapper adding ``fn``'s inclusive time to ``_INCLUSIVE[key]``."""
    _INCLUSIVE.setdefault(key, 0.0)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            _INCLUSIVE[key] += time.perf_counter() - start
    functools.update_wrapper(timed, fn)
    timed._perfbench_traced = True
    return timed


def _layer_modules():
    import repro
    names = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if layer_of_module(info.name) is not None:
            names.add(info.name)
    for prefix in LAYER_PREFIXES:
        names.add(prefix)
    modules = []
    for name in sorted(names):
        module = importlib.import_module(name)
        modules.append(module)
        path = getattr(module, "__file__", None)
        if path:
            _FILE_LAYER[path] = _LAYER_INDEX[layer_of_module(name)]
    return modules


def _wrap_class(cls, layer: int, hooks: Dict[str, Hook],
                replaced: Dict[int, Callable]) -> None:
    import enum
    if issubclass(cls, (BaseException, enum.Enum)):
        return
    prefix = f"{cls.__module__}.{cls.__qualname__}"
    for attr, value in list(vars(cls).items()):
        name = f"{prefix}.{attr}"
        if not _is_entry(attr, name, hooks):
            continue
        hook = hooks.get(name)
        if isinstance(value, types.FunctionType):
            if name == RESUME:
                setattr(cls, attr, _traced_resume(value))
                continue
            wrapper = _wrap(value, layer, name, hook)
            replaced[id(value)] = wrapper
            setattr(cls, attr, wrapper)
        elif isinstance(value, staticmethod):
            setattr(cls, attr, staticmethod(
                _wrap(value.__func__, layer, name, hook)))
        elif isinstance(value, classmethod):
            setattr(cls, attr, classmethod(
                _wrap(value.__func__, layer, name, hook)))
        elif isinstance(value, property) and value.fget is not None:
            setattr(cls, attr, property(
                _wrap(value.fget, layer, name, hook), value.fset,
                value.fdel, value.__doc__))


def install(hooks: Optional[Dict[str, Hook]] = None,
            inclusive: Optional[Dict[str, str]] = None) -> None:
    """Wrap every layer function. ``hooks`` maps qualified names to
    :class:`Hook` observations; ``inclusive`` maps qualified names of
    module-level functions or methods to keys of :func:`inclusive_s`."""
    global _installed
    if _installed:
        raise RuntimeError("tracer already installed")
    _installed = True
    hooks = dict(hooks or {})

    def attach_dispatcher(args, _result, _token):
        args[0].profiler = DISPATCHER
    hooks["repro.sim.engine.Engine.__init__"] = Hook(post=attach_dispatcher)

    replaced: Dict[int, Callable] = {}
    for module in _layer_modules():
        layer = _LAYER_INDEX[layer_of_module(module.__name__)]
        for attr, value in list(vars(module).items()):
            if isinstance(value, type) and value.__module__ == module.__name__:
                _wrap_class(value, layer, hooks, replaced)
            elif (isinstance(value, types.FunctionType)
                  and value.__module__ == module.__name__
                  and id(value) not in replaced
                  and _is_entry(attr, f"{module.__name__}.{attr}", hooks)):
                name = f"{module.__name__}.{attr}"
                replaced[id(value)] = _wrap(value, layer, name,
                                            hooks.get(name))
    for name, key in (inclusive or {}).items():
        module_name, _, attr = name.rpartition(".")
        owner = sys.modules.get(module_name)
        if owner is not None:       # module-level function
            original = getattr(owner, attr)
            replaced[id(original)] = _inclusive(
                replaced.get(id(original), original), key)
        else:                       # method: "module.Class.method"
            module_name, _, cls_name = module_name.rpartition(".")
            cls = getattr(sys.modules[module_name], cls_name)
            setattr(cls, attr, _inclusive(vars(cls)[attr], key))
    # Rebind module-level functions wherever their name is looked up.
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None and value is not wrapper:
                namespace[attr] = wrapper


def reset() -> None:
    """Zero every counter and timer."""
    for index in range(len(_SELF)):
        _SELF[index] = 0.0
    for index in range(len(_CALLS)):
        _CALLS[index] = 0
    for key in _INCLUSIVE:
        _INCLUSIVE[key] = 0.0
    _STATE[0] = OTHER
    _STATE[1] = time.perf_counter()


def self_s() -> Dict[str, float]:
    """Self seconds per layer since :func:`reset`; ``other`` is time
    outside every layer (workloads, experiments, the benchmark)."""
    now = time.perf_counter()
    _SELF[_STATE[0]] += now - _STATE[1]
    _STATE[1] = now
    return {name: _SELF[index] for index, name in enumerate(LAYERS)}


def calls(name: str) -> int:
    slot = _SLOT.get(name)
    return _CALLS[slot] if slot is not None else 0


def layer_calls(layer: str) -> int:
    index = _LAYER_INDEX[layer]
    return sum(count for count, owner in zip(_CALLS, _CALL_LAYER)
               if owner == index)


def inclusive_s(key: str) -> float:
    return _INCLUSIVE.get(key, 0.0)
