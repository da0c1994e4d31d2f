"""Byte-level memory model: allocations, provenance, init tracking.

Every allocation gets a virtual base address (never reused, so absolute
addresses can be checked for alignment) and carries:

* raw bytes plus a per-byte *initialized* mask (reads of uninit bytes → UB);
* a relocation table ``offset → (alloc_id, tag, extra)`` preserving pointer
  provenance through memory round-trips (a pointer read back without its
  relocation has lost provenance);
* a stacked-borrows stack (see :mod:`repro.miri.borrows`).

All loads/stores funnel through :meth:`Memory.read` / :meth:`Memory.write`,
which perform, in order: provenance, liveness, bounds, alignment, borrow
stack, and data-race checks — each failure maps onto the UB category a real
Miri run would report.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..lang import types as ty
from ..lang.span import DUMMY_SPAN, Span
from .borrows import BorrowError, BorrowStack
from .errors import MiriError, UbKind, UbSignal
from .races import RaceDetector, RaceError
from .values import (
    VAggregate,
    VBool,
    VChar,
    VFnPtr,
    VInt,
    VLayout,
    VMutexGuard,
    VMutexRef,
    VOption,
    VPtr,
    VStr,
    VThreadHandle,
    VUnit,
    Value,
)

_FN_ADDR_BASE = 0x7F00_0000_0000


class AllocKind(enum.Enum):
    STACK = "stack"
    HEAP = "heap"
    STATIC = "static"
    CONST_STR = "string literal"


@dataclass
class Relocation:
    alloc_id: int | None  # None for function pointers
    tag: int | None
    fn_name: str | None = None
    meta_len: int | None = None


@dataclass
class Allocation:
    id: int
    base_addr: int
    size: int
    align: int
    kind: AllocKind
    data: bytearray
    init: bytearray  # 0 = uninit, 1 = init, per byte
    relocations: dict[int, Relocation] = field(default_factory=dict)
    live: bool = True
    base_tag: int = 0
    borrows: BorrowStack = field(default_factory=BorrowStack)
    label: str = ""
    freed_span: Span | None = None

    def contains(self, offset: int, size: int) -> bool:
        return 0 <= offset and offset + size <= self.size

    def clear_relocations(self, offset: int, size: int) -> None:
        for key in [k for k in self.relocations
                    if offset - 7 <= k < offset + size]:
            # Any overlap clobbers the pointer's provenance bytes.
            if key + 8 > offset and key < offset + size:
                del self.relocations[key]


class Memory:
    """The machine memory: allocation table plus the race detector."""

    def __init__(self):
        self.allocations: dict[int, Allocation] = {}
        self._next_id = 1
        self._next_addr = 0x1000
        self.races = RaceDetector()
        self.structs: dict[str, ty.StructLayout] = {}
        #: fn name → synthetic address, and the reverse map.
        self.fn_addrs: dict[str, int] = {}
        self.fns_by_addr: dict[int, str] = {}
        #: interned string-literal allocations, per machine.
        self._str_cache: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Allocation lifecycle

    def allocate(self, size: int, align: int, kind: AllocKind,
                 label: str = "") -> Allocation:
        align = max(1, align)
        addr = (self._next_addr + align - 1) // align * align
        # Keep a guard gap so distinct allocations never look adjacent.
        self._next_addr = addr + max(size, 1) + 16
        stack, base_tag = BorrowStack.new_allocation()
        alloc = Allocation(
            id=self._next_id,
            base_addr=addr,
            size=size,
            align=align,
            kind=kind,
            data=bytearray(size),
            init=bytearray(size),
            base_tag=base_tag,
            borrows=stack,
            label=label,
        )
        self.allocations[self._next_id] = alloc
        self._next_id += 1
        return alloc

    def deallocate(self, alloc_id: int, span: Span = DUMMY_SPAN,
                   expected_size: int | None = None,
                   expected_align: int | None = None) -> None:
        alloc = self.allocations.get(alloc_id)
        if alloc is None:
            raise UbSignal(MiriError(
                UbKind.ALLOC, "deallocating unknown allocation", span))
        if not alloc.live:
            raise UbSignal(MiriError(
                UbKind.ALLOC,
                f"deallocating {alloc.label or f'alloc{alloc_id}'}, which is "
                f"already deallocated (double free)",
                span,
            ))
        if alloc.kind is AllocKind.STACK:
            raise UbSignal(MiriError(
                UbKind.ALLOC,
                "deallocating stack memory with the global allocator",
                span,
            ))
        if alloc.kind is AllocKind.STATIC:
            raise UbSignal(MiriError(
                UbKind.ALLOC, "deallocating static memory", span))
        if expected_size is not None and expected_size != alloc.size:
            raise UbSignal(MiriError(
                UbKind.ALLOC,
                f"incorrect layout on deallocation: allocation has size "
                f"{alloc.size} and alignment {alloc.align}, but was "
                f"deallocated with size {expected_size}",
                span,
            ))
        if expected_align is not None and expected_align != alloc.align:
            raise UbSignal(MiriError(
                UbKind.ALLOC,
                f"incorrect layout on deallocation: allocation has alignment "
                f"{alloc.align}, but was deallocated with alignment "
                f"{expected_align}",
                span,
            ))
        alloc.live = False
        alloc.freed_span = span

    def fn_addr(self, fn_name: str) -> int:
        addr = self.fn_addrs.get(fn_name)
        if addr is None:
            addr = _FN_ADDR_BASE + 16 * (len(self.fn_addrs) + 1)
            self.fn_addrs[fn_name] = addr
            self.fns_by_addr[addr] = fn_name
        return addr

    # ------------------------------------------------------------------
    # Access checking

    def _resolve(self, ptr: VPtr, size: int, align: int, span: Span,
                 access: str) -> Allocation:
        if ptr.is_null:
            raise UbSignal(MiriError(
                UbKind.DANGLING_POINTER,
                f"memory access failed: null pointer is a dangling pointer "
                f"(it has no provenance)",
                span,
            ))
        if ptr.alloc_id is None:
            raise UbSignal(MiriError(
                UbKind.PROVENANCE,
                f"attempting a {access} access using a pointer that has no "
                f"provenance (forged from an integer: 0x{ptr.addr:x})",
                span,
            ))
        alloc = self.allocations.get(ptr.alloc_id)
        if alloc is None:
            raise UbSignal(MiriError(
                UbKind.DANGLING_POINTER, "pointer to unknown allocation", span))
        if not alloc.live:
            raise UbSignal(MiriError(
                UbKind.DANGLING_POINTER,
                f"memory access failed: {alloc.label or f'alloc{alloc.id}'} "
                f"has been freed, so this pointer is dangling",
                span,
            ))
        offset = ptr.addr - alloc.base_addr
        if not alloc.contains(offset, size):
            raise UbSignal(MiriError(
                UbKind.DANGLING_POINTER,
                f"memory access failed: expected a pointer to {size} bytes of "
                f"memory, but pointer is {'past the end of' if offset >= 0 else 'before'} "
                f"the allocation ({alloc.label or f'alloc{alloc.id}'} has size "
                f"{alloc.size}, access at offset {offset})",
                span,
            ))
        if align > 1 and ptr.addr % align != 0:
            actual = ptr.addr & -ptr.addr  # largest power of two dividing addr
            raise UbSignal(MiriError(
                UbKind.UNALIGNED,
                f"accessing memory based on pointer with alignment {actual}, "
                f"but alignment {align} is required",
                span,
            ))
        return alloc

    def read_bytes(self, ptr: VPtr, size: int, align: int, tid: int,
                   span: Span = DUMMY_SPAN, require_init: bool = True,
                   ) -> tuple[bytes, dict[int, Relocation]]:
        alloc = self._resolve(ptr, size, align, span, "read")
        offset = ptr.addr - alloc.base_addr
        try:
            alloc.borrows.read(ptr.tag, span)
        except BorrowError as err:
            raise UbSignal(err.error) from None
        try:
            self.races.on_read(tid, alloc.id, offset, size, span)
        except RaceError as err:
            raise UbSignal(err.error) from None
        if require_init and 0 in alloc.init[offset : offset + size]:
            raise UbSignal(MiriError(
                UbKind.UNINIT,
                f"using uninitialized data, but this operation requires "
                f"initialized memory (reading {size} bytes at offset {offset} "
                f"of {alloc.label or f'alloc{alloc.id}'})",
                span,
            ))
        if alloc.relocations:
            relocs = {
                k - offset: r for k, r in alloc.relocations.items()
                if offset <= k < offset + size
            }
        else:
            relocs = {}
        return bytes(alloc.data[offset : offset + size]), relocs

    def write_bytes(self, ptr: VPtr, data: bytes,
                    relocs: dict[int, Relocation], align: int, tid: int,
                    span: Span = DUMMY_SPAN) -> None:
        size = len(data)
        alloc = self._resolve(ptr, size, align, span, "write")
        offset = ptr.addr - alloc.base_addr
        if not ptr.mutable and ptr.is_ref:
            raise UbSignal(MiriError(
                UbKind.BOTH_BORROW,
                "writing through a shared reference", span))
        try:
            alloc.borrows.write(ptr.tag, span)
        except BorrowError as err:
            raise UbSignal(err.error) from None
        try:
            self.races.on_write(tid, alloc.id, offset, size, span)
        except RaceError as err:
            raise UbSignal(err.error) from None
        if alloc.relocations:
            alloc.clear_relocations(offset, size)
        alloc.data[offset : offset + size] = data
        alloc.init[offset : offset + size] = b"\x01" * size
        if relocs:
            for rel_offset, reloc in relocs.items():
                alloc.relocations[offset + rel_offset] = reloc

    # ------------------------------------------------------------------
    # Value encoding / decoding

    def encode(self, value: Value, target_ty: ty.Ty, span: Span = DUMMY_SPAN,
               ) -> tuple[bytes, dict[int, Relocation]]:
        """Serialise a transient value as (bytes, relocations)."""
        if isinstance(value, VInt):
            int_ty = target_ty if isinstance(target_ty, ty.TyInt) else value.ty
            size = ty.size_of(int_ty, self.structs)
            wrapped = int_ty.wrap(value.value)
            return wrapped.to_bytes(size, "little", signed=wrapped < 0), {}
        if isinstance(value, VBool):
            return (b"\x01" if value.value else b"\x00"), {}
        if isinstance(value, VChar):
            return ord(value.value).to_bytes(4, "little"), {}
        if isinstance(value, VUnit):
            return b"", {}
        if isinstance(value, VPtr):
            data = value.addr.to_bytes(8, "little")
            relocs: dict[int, Relocation] = {}
            if value.alloc_id is not None:
                relocs[0] = Relocation(value.alloc_id, value.tag,
                                       meta_len=value.meta_len)
            if value.meta_len is not None:
                data += value.meta_len.to_bytes(8, "little")
            return data, relocs
        if isinstance(value, VFnPtr):
            return value.addr.to_bytes(8, "little"), {
                0: Relocation(None, None, fn_name=value.fn_name)
            }
        if isinstance(value, VAggregate):
            return self._encode_aggregate(value, target_ty, span)
        if isinstance(value, VOption):
            return self._encode_option(value, span)
        if isinstance(value, VStr):
            return self._encode_str(value, span)
        if isinstance(value, VThreadHandle):
            return value.thread_id.to_bytes(8, "little"), {}
        if isinstance(value, VMutexRef):
            # Pad to the *declared* Mutex layout (the inner type inferred
            # from the construction value may be narrower).
            if isinstance(target_ty, ty.TyPath) and target_ty.name == "Mutex":
                total = ty.size_of(target_ty, self.structs)
            else:
                total = ty.size_of(
                    ty.TyPath("Mutex", (value.inner_ty,)), self.structs)
            return value.mutex_id.to_bytes(8, "little") + b"\x00" * max(
                0, total - 8), {}
        if isinstance(value, VMutexGuard):
            data, relocs = self.encode(value.data_ptr,
                                       ty.TyRawPtr(value.data_ptr.pointee, True), span)
            return data + value.mutex_id.to_bytes(8, "little"), relocs
        if isinstance(value, VLayout):
            return (value.size.to_bytes(8, "little")
                    + value.align.to_bytes(8, "little")), {}
        raise UbSignal(MiriError(
            UbKind.UNSUPPORTED,
            f"cannot store a {type(value).__name__} value in memory", span))

    def _encode_str(self, value: VStr, span: Span,
                    ) -> tuple[bytes, dict[int, Relocation]]:
        """String literals become fat pointers to interned CONST_STR allocs."""
        alloc_id = self._str_cache.get(value.value)
        if alloc_id is None or alloc_id not in self.allocations:
            raw = value.value.encode("utf-8")
            alloc = self.allocate(max(len(raw), 1), 1, AllocKind.CONST_STR,
                                  f"string {value.value[:16]!r}")
            alloc.data[: len(raw)] = raw
            for i in range(len(raw)):
                alloc.init[i] = 1
            self._str_cache[value.value] = alloc.id
            alloc_id = alloc.id
        alloc = self.allocations[alloc_id]
        raw_len = len(value.value.encode("utf-8"))
        data = alloc.base_addr.to_bytes(8, "little") + raw_len.to_bytes(8, "little")
        return data, {0: Relocation(alloc.id, alloc.base_tag, meta_len=raw_len)}

    def _encode_aggregate(self, value: VAggregate, target_ty: ty.Ty,
                          span: Span) -> tuple[bytes, dict[int, Relocation]]:
        # Prefer the declared target type: it may refine inference holes in
        # the value's type (e.g. `let v: Vec<i32> = Vec::new()`).
        agg_ty = value.ty
        if isinstance(target_ty, (ty.TyTuple, ty.TyArray, ty.TyPath)):
            try:
                if len(self._aggregate_field_types(target_ty)) == len(value.elems):
                    agg_ty = target_ty
            except ty.LayoutError:
                pass
        elem_types = self._aggregate_field_types(agg_ty)
        offsets = self._aggregate_offsets(agg_ty, elem_types)
        size = ty.size_of(agg_ty, self.structs)
        buffer = bytearray(size)
        init_mask = bytearray(size)
        relocs: dict[int, Relocation] = {}
        for elem, elem_ty, offset in zip(value.elems, elem_types, offsets):
            data, sub_relocs = self.encode(elem, elem_ty, span)
            buffer[offset : offset + len(data)] = data
            for i in range(len(data)):
                init_mask[offset + i] = 1
            for rel_offset, reloc in sub_relocs.items():
                relocs[offset + rel_offset] = reloc
        # Padding bytes stay zero; treat the whole aggregate as initialised.
        return bytes(buffer), relocs

    def _encode_option(self, value: VOption, span: Span,
                       ) -> tuple[bytes, dict[int, Relocation]]:
        if _is_niche_ty(value.inner_ty):
            if value.is_some:
                return self.encode(value.inner, value.inner_ty, span)
            return b"\x00" * 8, {}
        payload_size = ty.size_of(value.inner_ty, self.structs)
        _, _, offsets = ty._aggregate_layout([ty.BOOL, value.inner_ty], self.structs)
        total = ty.size_of(ty.TyTuple((ty.BOOL, value.inner_ty)), self.structs)
        buffer = bytearray(total)
        relocs: dict[int, Relocation] = {}
        if value.is_some:
            buffer[offsets[0]] = 1
            data, sub = self.encode(value.inner, value.inner_ty, span)
            buffer[offsets[1] : offsets[1] + payload_size] = data
            relocs = {offsets[1] + k: r for k, r in sub.items()}
        return bytes(buffer), relocs

    def decode(self, data: bytes, relocs: dict[int, Relocation],
               target_ty: ty.Ty, span: Span = DUMMY_SPAN) -> Value:
        """Reconstruct a transient value from raw bytes + relocations."""
        if isinstance(target_ty, ty.TyInt):
            value = int.from_bytes(data, "little", signed=target_ty.signed)
            return VInt(value, target_ty)
        if isinstance(target_ty, ty.TyBool):
            if data[0] not in (0, 1):
                raise UbSignal(MiriError(
                    UbKind.VALIDITY,
                    f"constructing invalid value: encountered {data[0]:#04x}, "
                    f"but expected a boolean",
                    span,
                ))
            return VBool(data[0] == 1)
        if isinstance(target_ty, ty.TyChar):
            code = int.from_bytes(data[:4], "little")
            if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                raise UbSignal(MiriError(
                    UbKind.VALIDITY,
                    f"constructing invalid value: encountered {code:#x}, but "
                    f"expected a valid unicode scalar value",
                    span,
                ))
            return VChar(chr(code))
        if isinstance(target_ty, ty.TyUnit):
            return VUnit()
        if isinstance(target_ty, (ty.TyRef, ty.TyRawPtr)):
            return self._decode_pointer(data, relocs, target_ty, span)
        if isinstance(target_ty, ty.TyFn):
            reloc = relocs.get(0)
            addr = int.from_bytes(data[:8], "little")
            if reloc is not None and reloc.fn_name is not None:
                return VFnPtr(reloc.fn_name, addr, target_ty)
            fn_name = self.fns_by_addr.get(addr)
            if fn_name is not None:
                return VFnPtr(fn_name, addr, target_ty)
            raise UbSignal(MiriError(
                UbKind.FUNC_POINTER,
                f"constructing invalid value: encountered {addr:#x}, but "
                f"expected a function pointer",
                span,
            ))
        if isinstance(target_ty, (ty.TyTuple, ty.TyArray)):
            return self._decode_aggregate(data, relocs, target_ty, span)
        if isinstance(target_ty, ty.TyPath):
            return self._decode_path(data, relocs, target_ty, span)
        raise UbSignal(MiriError(
            UbKind.UNSUPPORTED, f"cannot decode type {target_ty}", span))

    def _decode_pointer(self, data: bytes, relocs: dict[int, Relocation],
                        target_ty: ty.Ty, span: Span) -> Value:
        addr = int.from_bytes(data[:8], "little")
        reloc = relocs.get(0)
        meta_len = None
        if isinstance(target_ty.target, (ty.TySlice, ty.TyStr)) and len(data) >= 16:
            meta_len = int.from_bytes(data[8:16], "little")
        if reloc is not None and reloc.fn_name is None:
            if meta_len is None:
                meta_len = reloc.meta_len
            return VPtr(reloc.alloc_id, addr, reloc.tag, target_ty.target,
                        mutable=target_ty.mutable,
                        is_ref=isinstance(target_ty, ty.TyRef),
                        meta_len=meta_len)
        if isinstance(target_ty, ty.TyRef):
            if addr == 0:
                raise UbSignal(MiriError(
                    UbKind.VALIDITY,
                    "constructing invalid value: encountered a null reference",
                    span,
                ))
            raise UbSignal(MiriError(
                UbKind.VALIDITY,
                f"constructing invalid value: encountered a dangling "
                f"reference (0x{addr:x} has no provenance)",
                span,
            ))
        return VPtr(None, addr, None, target_ty.target,
                    mutable=target_ty.mutable, is_ref=False, meta_len=meta_len)

    def _decode_aggregate(self, data: bytes, relocs: dict[int, Relocation],
                          target_ty: ty.Ty, span: Span) -> Value:
        elem_types = self._aggregate_field_types(target_ty)
        offsets = self._aggregate_offsets(target_ty, elem_types)
        elems = []
        for elem_ty, offset in zip(elem_types, offsets):
            size = ty.size_of(elem_ty, self.structs)
            sub_relocs = {
                k - offset: r for k, r in relocs.items()
                if offset <= k < offset + size
            }
            elems.append(self.decode(
                data[offset : offset + size], sub_relocs, elem_ty, span))
        return VAggregate(target_ty, tuple(elems))

    def _decode_path(self, data: bytes, relocs: dict[int, Relocation],
                     target_ty: ty.TyPath, span: Span) -> Value:
        if target_ty.name in ("MaybeUninit", "ManuallyDrop"):
            return self.decode(data, relocs, target_ty.args[0], span)
        if target_ty.name == "Option" and _is_niche_ty(target_ty.args[0]):
            addr = int.from_bytes(data[:8], "little")
            if addr == 0:
                return VOption(None, target_ty.args[0])
            inner = self.decode(data, relocs, target_ty.args[0], span)
            return VOption(inner, target_ty.args[0])
        if target_ty.name in self.structs:
            return self._decode_aggregate(data, relocs, target_ty, span)
        if target_ty.name in ("Vec", "String"):
            # (ptr, cap, len) triple, re-tagged with the Vec type so the
            # decoded value stays a Vec (method dispatch depends on it).
            parts_ty = ty.TyTuple((
                ty.TyRawPtr(target_ty.args[0] if target_ty.args else ty.U8, True),
                ty.USIZE, ty.USIZE,
            ))
            parts = self._decode_aggregate(data, relocs, parts_ty, span)
            return VAggregate(target_ty, parts.elems)
        if target_ty.name == "Box":
            ptr_ty = ty.TyRawPtr(target_ty.args[0], True)
            inner = self.decode(data, relocs, ptr_ty, span)
            if isinstance(inner, VPtr):
                import dataclasses
                return dataclasses.replace(inner, is_box=True)
            return inner
        if target_ty.name == "JoinHandle":
            return VThreadHandle(int.from_bytes(data[:8], "little"))
        if target_ty.name == "Mutex":
            inner_ty = target_ty.args[0] if target_ty.args else ty.UNIT
            return VMutexRef(int.from_bytes(data[:8], "little"), inner_ty)
        if target_ty.name == "MutexGuard":
            inner_ty = target_ty.args[0] if target_ty.args else ty.UNIT
            data_ptr = self.decode(data[:8], relocs,
                                   ty.TyRawPtr(inner_ty, True), span)
            return VMutexGuard(int.from_bytes(data[8:16], "little"), data_ptr)
        if target_ty.name == "Layout":
            return VLayout(int.from_bytes(data[:8], "little"),
                           int.from_bytes(data[8:16], "little"))
        raise UbSignal(MiriError(
            UbKind.UNSUPPORTED, f"cannot decode type {target_ty}", span))

    # ------------------------------------------------------------------
    # Aggregate layout helpers

    def _aggregate_field_types(self, aggregate_ty: ty.Ty) -> list[ty.Ty]:
        if isinstance(aggregate_ty, ty.TyTuple):
            return list(aggregate_ty.elems)
        if isinstance(aggregate_ty, ty.TyArray):
            return [aggregate_ty.elem] * aggregate_ty.length
        if isinstance(aggregate_ty, ty.TyPath):
            if aggregate_ty.name in self.structs:
                return list(self.structs[aggregate_ty.name].field_types)
            if aggregate_ty.name in ("Vec", "String"):
                elem = aggregate_ty.args[0] if aggregate_ty.args else ty.U8
                return [ty.TyRawPtr(elem, True), ty.USIZE, ty.USIZE]
            if aggregate_ty.name in ("MaybeUninit", "ManuallyDrop"):
                return [aggregate_ty.args[0]]
        raise ty.LayoutError(f"not an aggregate: {aggregate_ty}")

    def _aggregate_offsets(self, aggregate_ty: ty.Ty,
                           elem_types: list[ty.Ty]) -> list[int]:
        if isinstance(aggregate_ty, ty.TyPath) and aggregate_ty.name in self.structs:
            layout = self.structs[aggregate_ty.name]
            if layout.is_union:
                return [0] * len(elem_types)
            return list(layout.field_offsets)
        if isinstance(aggregate_ty, ty.TyArray):
            elem_size = ty.size_of(aggregate_ty.elem, self.structs)
            return [i * elem_size for i in range(aggregate_ty.length)]
        if isinstance(aggregate_ty, ty.TyPath) and \
                aggregate_ty.name in ("Vec", "String"):
            return [0, 8, 16]
        _, _, offsets = ty._aggregate_layout(elem_types, self.structs)
        return offsets


def _is_niche_ty(inner: ty.Ty) -> bool:
    return isinstance(inner, (ty.TyRef, ty.TyRawPtr, ty.TyFn)) or (
        isinstance(inner, ty.TyPath) and inner.name == "Box"
    )
