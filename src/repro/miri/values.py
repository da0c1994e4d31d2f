"""Runtime values for the abstract interpreter.

Values are *transient*: they exist while an expression is being evaluated.
As soon as a value is stored into a variable or written through a pointer it
is byte-encoded into an :class:`~repro.miri.memory.Allocation`, preserving
pointer provenance through relocation entries exactly like Miri does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..lang import types as ty


@dataclass(frozen=True)
class Value:
    pass


@dataclass(frozen=True)
class VInt(Value):
    value: int
    ty: ty.TyInt

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class VBool(Value):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class VChar(Value):
    value: str

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class VUnit(Value):
    def __str__(self) -> str:
        return "()"


UNIT_VALUE = VUnit()


@dataclass(frozen=True)
class VPtr(Value):
    """A pointer or reference.

    ``alloc_id is None`` means the pointer was forged from an integer and has
    *no provenance*; dereferencing it is UB under strict provenance. ``tag``
    identifies the stacked-borrows item this pointer uses for accesses.
    """

    alloc_id: int | None
    addr: int
    tag: int | None
    pointee: ty.Ty
    mutable: bool = False
    is_ref: bool = False
    #: True for the owning pointer inside a Box.
    is_box: bool = False
    #: Element count for fat pointers (&[T] / &str); None for thin pointers.
    meta_len: int | None = None

    @property
    def is_null(self) -> bool:
        return self.addr == 0

    def with_pointee(self, pointee: ty.Ty, mutable: bool | None = None) -> "VPtr":
        return VPtr(self.alloc_id, self.addr, self.tag, pointee,
                    self.mutable if mutable is None else mutable,
                    is_ref=False, meta_len=self.meta_len)

    def __str__(self) -> str:
        return f"0x{self.addr:x}"


@dataclass(frozen=True)
class VFnPtr(Value):
    fn_name: str
    addr: int
    sig: ty.TyFn | None = None

    def __str__(self) -> str:
        return f"<fn {self.fn_name}>"


@dataclass(frozen=True)
class VStr(Value):
    """A string literal value (only observable via println!/format!)."""

    value: str

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class VAggregate(Value):
    """Transient tuple/array/struct value prior to being stored."""

    ty: ty.Ty
    elems: tuple[Value, ...]

    def __str__(self) -> str:
        inner = ", ".join(str(e) for e in self.elems)
        if isinstance(self.ty, ty.TyArray):
            return f"[{inner}]"
        return f"({inner})"


@dataclass(frozen=True)
class VOption(Value):
    """Transient Option value; encodable only for pointer payloads (niche)."""

    inner: Value | None
    inner_ty: ty.Ty

    @property
    def is_some(self) -> bool:
        return self.inner is not None

    def __str__(self) -> str:
        return f"Some({self.inner})" if self.is_some else "None"


@dataclass(frozen=True)
class VThreadHandle(Value):
    """JoinHandle: references the already-executed thread record."""

    thread_id: int

    def __str__(self) -> str:
        return f"JoinHandle({self.thread_id})"


@dataclass(frozen=True)
class VMutexGuard(Value):
    """MutexGuard: grants access to the data allocation of a Mutex."""

    mutex_id: int
    data_ptr: VPtr

    def __str__(self) -> str:
        return f"MutexGuard({self.mutex_id})"


@dataclass(frozen=True)
class VMutexRef(Value):
    """The Mutex object itself (refers into the interpreter's mutex table)."""

    mutex_id: int
    inner_ty: ty.Ty

    def __str__(self) -> str:
        return f"Mutex({self.mutex_id})"


@dataclass(frozen=True)
class VLayout(Value):
    """std::alloc::Layout — carried around by value."""

    size: int
    align: int

    def __str__(self) -> str:
        return f"Layout(size={self.size}, align={self.align})"


@dataclass(frozen=True)
class VRangeIter(Value):
    lo: int
    hi: int
    inclusive: bool = False


@dataclass(frozen=True)
class VUninit(Value):
    """The value of ``MaybeUninit::uninit()``: storing it marks bytes uninit."""

    ty: ty.Ty

    def __str__(self) -> str:
        return "<uninit>"
