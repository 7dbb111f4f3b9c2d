"""Immutable value records without the ``dataclasses`` module.

``dataclasses`` imports ``inspect`` and with it ``ast``, ``dis`` and
``tokenize``, which costs a CLI start more time than a small command
spends on its work.  The package's value classes derive from
:class:`Record`, which writes the few methods they use from their
annotations, the way ``@dataclass(frozen=True)`` does.
"""


class Record:
    """Base of an immutable value class whose fields are its annotations.

    A subclass gets what ``@dataclass(frozen=True)`` would give it: an
    ``__init__`` taking the fields positionally or by keyword, with
    class-level values as defaults, that ends by calling
    ``__post_init__`` if the class has one; a ``__repr__``; ``__eq__``
    and ``__hash__`` over the fields; and ``AttributeError`` on
    assignment or deletion (``__post_init__`` may still normalise a
    field through ``object.__setattr__``).  Class keywords: ``eq=False``
    keeps identity equality and hashing, or the class's own methods;
    ``hidden`` names fields left out of ``==``, the hash and the repr.
    """

    __slots__ = ()

    def __init_subclass__(cls, eq: bool = True, hidden: tuple[str, ...] = (), **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__annotations__)
        shown = [name for name in fields if name not in hidden]
        defaults = {name: cls.__dict__[name] for name in fields if name in cls.__dict__}
        params = [f"{name}=_defaults[{name!r}]" if name in defaults else name for name in fields]
        body = [f"    _set(self, {name!r}, {name})" for name in fields]
        if hasattr(cls, "__post_init__"):
            body.append("    self.__post_init__()")
        mine = ", ".join(f"self.{name}" for name in shown)
        theirs = ", ".join(f"other.{name}" for name in shown)
        source = [
            f"def __init__(self, {', '.join(params)}):",
            *body,
            "def __repr__(self):",
            "    return f'{self.__class__.__qualname__}("
            + ", ".join(f"{name}={{self.{name}!r}}" for name in shown)
            + ")'",
        ]
        if eq:
            source += [
                "def __eq__(self, other):",
                "    if self is other:",
                "        return True",
                "    if other.__class__ is not self.__class__:",
                "        return NotImplemented",
                f"    return ({mine},) == ({theirs},)",
                "def __hash__(self):",
                f"    return hash(({mine},))",
            ]
        namespace = {"_set": object.__setattr__, "_defaults": defaults}
        exec("\n".join(source), namespace)
        methods = ("__init__", "__repr__") + (("__eq__", "__hash__") if eq else ())
        for method in methods:
            function = namespace[method]
            function.__qualname__ = f"{cls.__qualname__}.{method}"
            setattr(cls, method, function)
        cls.__match_args__ = fields

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
