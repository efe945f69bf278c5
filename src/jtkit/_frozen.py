"""Frozen value classes: the one way jtkit makes a value immutable.

dataclass and field stand in for the part of dataclasses that the package
uses, so that importing jtkit loads neither dataclasses nor inspect, and
decorating a class runs one exec.  Every class is frozen, and the generated
methods keep dataclass semantics: __init__ sets every field with
object.__setattr__ and then calls __post_init__; __eq__ compares the field
tuples of two instances of the same class and returns NotImplemented
otherwise; __hash__ hashes that tuple; __repr__ lists the fields that have
repr=True.  A method or __hash__ that the class body defines is never
replaced.  Assigning or deleting any attribute raises AttributeError, and
slotted classes get __getstate__/__setstate__, so that pickle and copy still
work.  This is the only module that sets attributes by hand.
"""

_MISSING = object()


class _Field:
    """What field() declares for one class attribute."""

    def __init__(self, init, default, default_factory, repr):
        self.init, self.default, self.default_factory, self.repr = init, default, default_factory, repr


def field(*, init=True, default=_MISSING, default_factory=_MISSING, repr=True):
    if init and default_factory is not _MISSING:
        raise TypeError("default_factory needs init=False")
    return _Field(init, default, default_factory, repr)


def fields(obj) -> tuple[str, ...]:
    """The field names of a class made by dataclass, or of its instance."""
    return obj.__frozen_fields__


def dataclass(*, frozen, slots=False, eq=True, repr=True):
    if not frozen:
        raise TypeError("jtkit value classes are frozen")
    return lambda cls: _build(cls, slots, eq, repr)


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r} of frozen {type(self).__name__}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r} of frozen {type(self).__name__}")


def _getstate(self):
    return [getattr(self, name) for name in fields(self)]


def _setstate(self, state):
    for name, value in zip(fields(self), state):
        object.__setattr__(self, name, value)


def _build(cls, slots, eq, repr):
    body = dict(cls.__dict__)
    annotations = body.get("__annotations__", {})
    specs = {}
    for name in annotations:
        spec = body.get(name, _MISSING)
        specs[name] = spec if isinstance(spec, _Field) else _Field(True, spec, _MISSING, True)
        if slots or isinstance(spec, _Field):
            body.pop(name, None)
    names = tuple(specs)
    env = {"__name__": cls.__module__, "_set": object.__setattr__}
    params, sets = ["self"], []
    for name, f in specs.items():
        env[f"_d_{name}"], env[f"_f_{name}"] = f.default, f.default_factory
        if f.init:
            params.append(name if f.default is _MISSING else f"{name}=_d_{name}")
            value = name
        elif f.default_factory is not _MISSING:
            value = f"_f_{name}()"
        elif f.default is not _MISSING:
            value = f"_d_{name}"
        else:
            continue
        sets.append(f" _set(self, {name!r}, {value})")
    if hasattr(cls, "__post_init__"):
        sets.append(" self.__post_init__()")
    own, other = ("(" + "".join(f"{side}.{name}, " for name in names) + ")" for side in ("self", "other"))
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name, f in specs.items() if f.repr)
    source = [
        f"def __init__({', '.join(params)}):",
        *(sets or [" pass"]),
        "def __eq__(self, other):",
        " if other.__class__ is self.__class__:",
        f"  return {own} == {other}",
        " return NotImplemented",
        "def __hash__(self):",
        f" return hash({own})",
        "def __repr__(self):",
        f' return self.__class__.__qualname__ + f"({shown})"',
    ]
    exec("\n".join(source), env)
    for method in ("__init__", "__eq__", "__hash__", "__repr__"):
        env[method].__qualname__ = f"{cls.__qualname__}.{method}"
    env["__init__"].__annotations__ = {**annotations, "return": None}
    made = {"__init__": env["__init__"], "__frozen_fields__": names, "__setattr__": _setattr, "__delattr__": _delattr}
    if repr:
        made["__repr__"] = env["__repr__"]
    if eq:
        made["__eq__"] = env["__eq__"]
        own_hash = body.get("__hash__", _MISSING)
        if own_hash is _MISSING or (own_hash is None and "__eq__" in body):
            body.pop("__hash__", None)
            made["__hash__"] = env["__hash__"]
    if slots:
        made.update(__slots__=names, __getstate__=_getstate, __setstate__=_setstate)
    for key, value in made.items():
        body.setdefault(key, value)
    for key in ("__dict__", "__weakref__"):
        body.pop(key, None)
    body["__qualname__"] = cls.__qualname__
    return type(cls)(cls.__name__, cls.__bases__, body)
