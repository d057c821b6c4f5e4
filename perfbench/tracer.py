"""Outside-in tracer for the nestlab layers.

The tracer wraps, from outside the package, every public function and
every public method of a public class defined in each layer module, and
patches every binding that refers to it: the defining module's attribute,
the `from .x import y` copies in other nestlab modules, and tuples of
functions such as `verify.ALL_CHECKS`.  `uninstall` puts every original
object back, and `restored` checks that by identity.

Each wrapped call adds to one record per name `<module>.<qualname>`:
calls, inclusive seconds, self seconds (inclusive minus wrapped callees),
and, for the functions in ROWS, the rows of its first array argument.  The
tracer's own bookkeeping is timed and taken out of every enclosing span.
For the functions in REPEAT_KEYS it also counts how much of the work was
already done earlier in the run, as `repeat_frac`.
"""

import dataclasses
import importlib
import inspect
import sys
import time

PACKAGE = "nestlab"
LAYERS = ("cli", "synthdata", "trainer", "strategies", "nest", "losses", "model", "numerics", "metrics", "verify")

_clock = time.perf_counter


def _rows_of(index):
    def rows(args, kwargs):
        x = args[index] if len(args) > index else None
        shape = getattr(x, "shape", None)
        return int(shape[0]) if shape else 0

    return rows


# Work size per call: rows of the logits (losses) or of the pixel batch
# (backbone; argument 0 is `self`).
ROWS = {
    "losses.ce": _rows_of(0),
    "losses.unbiased_ce": _rows_of(0),
    "losses.unbiased_kd": _rows_of(0),
    "losses.incremental_loss": _rows_of(0),
    "model.Backbone.forward": _rows_of(1),
    "model.Backbone.forward_cache": _rows_of(1),
    "model.Backbone.backward": _rows_of(1),
}


def _forward_key(args, kwargs):
    """(parameters, input) of one backbone forward pass, as 64-bit hashes
    of their bytes: cheap enough for every call, and a collision among
    ~1e5 keys has a chance of about 1e-9."""
    backbone, x = args[0], args[1]
    params = b"".join(w.tobytes() + b.tobytes() for w, b in backbone.layers)
    return hash(params), hash(x.tobytes()), x.shape, x.dtype.str


def _base_step_key(args, kwargs):
    """(world, sequence, train config, seed): everything but the strategy."""
    cfg = args[0]
    if dataclasses.is_dataclass(cfg):
        fields = {f.name: getattr(cfg, f.name) for f in dataclasses.fields(cfg)}
        fields.pop("strategy", None)
        fields.pop("pretune", None)
        return repr(sorted(fields.items()))
    return repr(cfg)


REPEAT_KEYS = {
    "model.Backbone.forward": _forward_key,
    "trainer.train_base_step": _base_step_key,
}


def _initialize_head_kind(args, kwargs):
    kind = getattr(args[0], "kind", None) if args else None
    return f"strategies.initialize_head.{kind}"


# Extra records that split one function's calls by an argument.
SPLITS = {"strategies.initialize_head": _initialize_head_kind}


class Stat:
    __slots__ = ("calls", "s", "self_s", "rows", "repeat_weight", "weight")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.rows = 0
        self.repeat_weight = 0
        self.weight = 0

    def as_dict(self):
        d = {"calls": self.calls, "s": self.s, "self_s": self.self_s, "rows": self.rows}
        d["repeat_frac"] = self.repeat_weight / self.weight if self.weight else 0.0
        return d


def _public_targets(module):
    """(owner, attribute, raw object, function, name) for every public
    function and public method defined in `module`."""
    short = module.__name__.rsplit(".", 1)[-1]
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield module, attr, obj, obj, f"{short}.{attr}"
        elif inspect.isclass(obj):
            for mname, raw in sorted(vars(obj).items()):
                if mname.startswith("_"):
                    continue
                fn = raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw
                if inspect.isfunction(fn):
                    yield obj, mname, raw, fn, f"{short}.{attr}.{mname}"


class Tracer:
    def __init__(self):
        self.modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
        self.stats = {}
        self.names = []  # every wrapped name
        self._seen = {}  # name -> set of repeat keys
        self._stack = []
        self._overhead = 0.0
        self._bindings = []  # (owner, attribute, original object)

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        return st

    def _wrap(self, fn, name):
        rows_fn = ROWS.get(name)
        key_fn = REPEAT_KEYS.get(name)
        split_fn = SPLITS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            ta = _clock()
            rows = rows_fn(args, kwargs) if rows_fn else 0
            repeat = None
            if key_fn:
                seen = tracer._seen.setdefault(name, set())
                key = key_fn(args, kwargs)
                repeat = key in seen
                seen.add(key)
            extra = split_fn(args, kwargs) if split_fn else None
            frame = [0.0]
            stack = tracer._stack
            stack.append(frame)
            ov0 = tracer._overhead
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                incl = (t1 - t0) - (tracer._overhead - ov0)
                for key_name in (name, extra) if extra else (name,):
                    st = tracer._stat(key_name)
                    st.calls += 1
                    st.s += incl
                    st.self_s += incl - frame[0]
                    st.rows += rows
                    if repeat is not None:
                        weight = rows if rows_fn else 1
                        st.weight += weight
                        st.repeat_weight += weight if repeat else 0
                if stack:
                    stack[-1][0] += incl
                tracer._overhead += (t0 - ta) + (_clock() - t1)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper._perfbench_name = name
        return wrapper

    def _patch(self, owner, attr, new):
        self._bindings.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _package_modules(self):
        prefix = PACKAGE + "."
        return [m for n, m in sorted(sys.modules.items()) if m is not None and (n == PACKAGE or n.startswith(prefix))]

    def install(self):
        wrapped_of = {}  # id(original raw object) -> (original, wrapper)
        for module in self.modules:
            for owner, attr, raw, fn, name in _public_targets(module):
                wrapped = self._wrap(fn, name)
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(wrapped)
                wrapped_of[id(raw)] = (raw, wrapped)
                self.names.append(name)
                self._patch(owner, attr, wrapped)

        def swap(v):
            pair = wrapped_of.get(id(v))
            return pair[1] if pair and pair[0] is v else v

        # every other binding of a wrapped function in the package
        for module in self._package_modules():
            for attr, value in list(vars(module).items()):
                new = tuple(swap(v) for v in value) if isinstance(value, tuple) else swap(value)
                if new is not value and new != value:
                    self._patch(module, attr, new)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)

    def restored(self):
        """True iff every patched binding holds its original object again
        and no wrapper is left anywhere in the package."""
        for owner, attr, original in self._bindings:
            if vars(owner).get(attr) is not original:
                return False
        for module in self._package_modules():
            for value in vars(module).values():
                items = list(value) if isinstance(value, tuple) else [value]
                if inspect.isclass(value):
                    items += [getattr(raw, "__func__", raw) for raw in vars(value).values()]
                if any(hasattr(v, "_perfbench_name") for v in items):
                    return False
        return True

    def table(self):
        """name -> record dict, for every wrapped name and split."""
        out = {name: Stat().as_dict() for name in self.names}
        out.update({name: st.as_dict() for name, st in self.stats.items()})
        return out

