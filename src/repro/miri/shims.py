"""Standard-library shims: the std surface the UB corpus exercises.

Two registries:

* :data:`CALL_SHIMS` — free/associated functions, keyed by their normalised
  path (``mem::transmute`` and ``std::mem::transmute`` both resolve);
* method shims, dispatched by :func:`call_method` on the receiver's type.

Each shim receives the interpreter (duck-typed), the evaluated arguments,
any turbofish generic arguments, the thread id, and the call span. Shims
implement *genuine* semantics over the byte-level memory model — ``Vec::push``
really reallocates (so stale ``as_ptr`` pointers really dangle), ``dealloc``
really checks the layout, ``transmute`` really round-trips bytes.
"""

from __future__ import annotations

from ..lang import types as ty
from ..lang.span import Span
from .errors import InterpUnsupported, MiriError, PanicSignal, UbKind, UbSignal
from .memory import AllocKind
from .values import (
    VAggregate,
    VBool,
    VInt,
    VLayout,
    VMutexGuard,
    VOption,
    VPtr,
    VStr,
    VThreadHandle,
    VUninit,
    VUnit,
    Value,
)

UNIT = VUnit()


def _int(value: Value, span: Span, what: str = "integer") -> int:
    if isinstance(value, VInt):
        return value.value
    if isinstance(value, VBool):
        return int(value.value)
    raise InterpUnsupported(f"expected {what}, got {type(value).__name__}", span)


def _ptr(value: Value, span: Span) -> VPtr:
    if isinstance(value, VPtr):
        return value
    raise InterpUnsupported(
        f"expected pointer, got {type(value).__name__}", span)


def _layout_of(generic_args, interp, span: Span) -> ty.Ty:
    if not generic_args:
        raise InterpUnsupported("missing turbofish type argument", span)
    return generic_args[0]


# ---------------------------------------------------------------------------
# mem::*


def shim_transmute(interp, args, generic_args, tid, span):
    if len(generic_args) != 2:
        raise InterpUnsupported("transmute requires ::<Src, Dst>", span)
    src_ty, dst_ty = generic_args
    src_size = ty.size_of(src_ty, interp.memory.structs)
    dst_size = ty.size_of(dst_ty, interp.memory.structs)
    if src_size != dst_size:
        from .errors import CompileError
        raise CompileError(
            f"cannot transmute between types of different sizes: {src_ty} "
            f"({src_size} bytes) vs {dst_ty} ({dst_size} bytes)",
            span,
        )
    data, relocs = interp.memory.encode(args[0], src_ty, span)
    return interp.memory.decode(data, relocs, dst_ty, span)


def shim_size_of(interp, args, generic_args, tid, span):
    target = _layout_of(generic_args, interp, span)
    return VInt(ty.size_of(target, interp.memory.structs), ty.USIZE)


def shim_align_of(interp, args, generic_args, tid, span):
    target = _layout_of(generic_args, interp, span)
    return VInt(ty.align_of(target, interp.memory.structs), ty.USIZE)


def shim_forget(interp, args, generic_args, tid, span):
    return UNIT


def shim_zeroed(interp, args, generic_args, tid, span):
    target = _layout_of(generic_args, interp, span)
    size = ty.size_of(target, interp.memory.structs)
    return interp.memory.decode(b"\x00" * size, {}, target, span)


def shim_swap(interp, args, generic_args, tid, span):
    a, b = _ptr(args[0], span), _ptr(args[1], span)
    align = ty.align_of(a.pointee, interp.memory.structs)
    size = ty.size_of(a.pointee, interp.memory.structs)
    data_a, rel_a = interp.memory.read_bytes(a, size, align, tid, span)
    data_b, rel_b = interp.memory.read_bytes(b, size, align, tid, span)
    interp.memory.write_bytes(a, data_b, rel_b, align, tid, span)
    interp.memory.write_bytes(b, data_a, rel_a, align, tid, span)
    return UNIT


def shim_replace(interp, args, generic_args, tid, span):
    dest = _ptr(args[0], span)
    old = interp.read_place(dest, tid, span)
    interp.write_place(dest, args[1], tid, span)
    return old


def shim_drop(interp, args, generic_args, tid, span):
    """``drop(x)``: runs the destructor for Box / Vec / MutexGuard values."""
    value = args[0]
    if isinstance(value, VMutexGuard):
        interp.unlock_mutex(value, tid, span)
        return UNIT
    if isinstance(value, VPtr) and value.alloc_id is not None and value.pointee is not None:
        alloc = interp.memory.allocations.get(value.alloc_id)
        if alloc is not None and alloc.kind is AllocKind.HEAP and interp.is_owned_ptr(value):
            interp.memory.deallocate(value.alloc_id, span)
            return UNIT
    if isinstance(value, VAggregate) and isinstance(value.ty, ty.TyPath) \
            and value.ty.name == "Vec":
        data_ptr = value.elems[0]
        if isinstance(data_ptr, VPtr) and data_ptr.alloc_id is not None:
            interp.memory.deallocate(data_ptr.alloc_id, span)
        return UNIT
    return UNIT


# ---------------------------------------------------------------------------
# ptr::*


def shim_ptr_null(interp, args, generic_args, tid, span):
    pointee = generic_args[0] if generic_args else ty.U8
    return VPtr(None, 0, None, pointee, mutable=False)


def shim_ptr_null_mut(interp, args, generic_args, tid, span):
    pointee = generic_args[0] if generic_args else ty.U8
    return VPtr(None, 0, None, pointee, mutable=True)


def shim_ptr_read(interp, args, generic_args, tid, span):
    return interp.read_place(_ptr(args[0], span), tid, span)


def shim_ptr_write(interp, args, generic_args, tid, span):
    interp.write_place(_ptr(args[0], span), args[1], tid, span)
    return UNIT


def shim_ptr_copy(interp, args, generic_args, tid, span):
    src, dst = _ptr(args[0], span), _ptr(args[1], span)
    count = _int(args[2], span)
    size = ty.size_of(src.pointee, interp.memory.structs)
    align = ty.align_of(src.pointee, interp.memory.structs)
    data, relocs = interp.memory.read_bytes(src, size * count, align, tid, span,
                                            require_init=False)
    interp.memory.write_bytes(dst, data, relocs, align, tid, span)
    return UNIT


# ---------------------------------------------------------------------------
# Box


def shim_box_new(interp, args, generic_args, tid, span):
    value = args[0]
    value_ty = generic_args[0] if generic_args else interp.type_of_value(value)
    size = ty.size_of(value_ty, interp.memory.structs)
    align = ty.align_of(value_ty, interp.memory.structs)
    alloc = interp.memory.allocate(max(size, 1), align, AllocKind.HEAP, "Box")
    box_ptr = VPtr(alloc.id, alloc.base_addr, alloc.base_tag, value_ty,
                   mutable=True, is_box=True)
    if size:
        interp.write_place(box_ptr.with_pointee(value_ty), value, tid, span)
    interp.owned_boxes.add(alloc.id)
    return box_ptr


def shim_box_into_raw(interp, args, generic_args, tid, span):
    box_ptr = _ptr(args[0], span)
    interp.owned_boxes.discard(box_ptr.alloc_id)
    return VPtr(box_ptr.alloc_id, box_ptr.addr, box_ptr.tag, box_ptr.pointee,
                mutable=True)


def shim_box_from_raw(interp, args, generic_args, tid, span):
    raw = _ptr(args[0], span)
    if raw.alloc_id is not None:
        interp.owned_boxes.add(raw.alloc_id)
    return VPtr(raw.alloc_id, raw.addr, raw.tag, raw.pointee, mutable=True,
                is_box=True)


def shim_box_leak(interp, args, generic_args, tid, span):
    box_ptr = _ptr(args[0], span)
    interp.owned_boxes.discard(box_ptr.alloc_id)
    return VPtr(box_ptr.alloc_id, box_ptr.addr, box_ptr.tag, box_ptr.pointee,
                mutable=True, is_ref=True)


# ---------------------------------------------------------------------------
# Vec (three-word struct: data ptr, capacity, length)


def _vec_elem_ty(vec_ty: ty.Ty, span: Span) -> ty.Ty:
    if isinstance(vec_ty, ty.TyPath) and vec_ty.name == "Vec" and vec_ty.args:
        return vec_ty.args[0]
    raise InterpUnsupported(f"cannot determine Vec element type of {vec_ty}", span)


def vec_value(data_ptr: VPtr | None, cap: int, length: int,
              vec_ty: ty.Ty) -> VAggregate:
    ptr = data_ptr if data_ptr is not None else VPtr(
        None, 0, None, _vec_elem_ty(vec_ty, Span(0, 0, 0, 0)), mutable=True)
    return VAggregate(vec_ty, (ptr, VInt(cap, ty.USIZE), VInt(length, ty.USIZE)))


def shim_vec_new(interp, args, generic_args, tid, span):
    elem = generic_args[0] if generic_args else None
    vec_ty = ty.TyPath("Vec", (elem,)) if elem else ty.TyPath("Vec", ())
    return vec_value(None, 0, 0, vec_ty if elem else ty.TyPath("Vec", (ty.INFER,)))


def shim_vec_with_capacity(interp, args, generic_args, tid, span):
    cap = _int(args[0], span)
    elem = generic_args[0] if generic_args else ty.INFER
    vec_ty = ty.TyPath("Vec", (elem,))
    if isinstance(elem, ty.TyInfer) or cap == 0:
        return vec_value(None, cap, 0, vec_ty)
    alloc = _vec_alloc(interp, elem, cap, span)
    ptr = VPtr(alloc.id, alloc.base_addr, alloc.base_tag, elem, mutable=True)
    return vec_value(ptr, cap, 0, vec_ty)


def _vec_alloc(interp, elem_ty: ty.Ty, cap: int, span: Span):
    size = ty.size_of(elem_ty, interp.memory.structs)
    align = ty.align_of(elem_ty, interp.memory.structs)
    return interp.memory.allocate(max(size * cap, 1), max(align, 1),
                                  AllocKind.HEAP, "Vec buffer")


def _read_vec(interp, place: VPtr, tid, span):
    """Read the (ptr, cap, len) triple from a Vec place."""
    vec_ty = place.pointee
    elem = _vec_elem_ty(vec_ty, span)
    value = interp.read_place(place, tid, span)
    data_ptr, cap, length = value.elems
    return elem, data_ptr, cap.value, length.value


def _write_vec(interp, place: VPtr, data_ptr, cap, length, tid, span):
    interp.write_place(
        place, vec_value(data_ptr, cap, length, place.pointee), tid, span)


def method_vec_push(interp, place, args, generic_args, tid, span):
    elem, data_ptr, cap, length = _read_vec(interp, place, tid, span)
    if isinstance(elem, ty.TyInfer):
        elem = interp.type_of_value(args[0])
        place = place.with_pointee(ty.TyPath("Vec", (elem,)))
    size = ty.size_of(elem, interp.memory.structs)
    if length == cap:
        new_cap = max(4, cap * 2)
        new_alloc = _vec_alloc(interp, elem, new_cap, span)
        if cap and data_ptr.alloc_id is not None:
            old = interp.memory.allocations[data_ptr.alloc_id]
            new_alloc.data[: size * length] = old.data[: size * length]
            new_alloc.init[: size * length] = old.init[: size * length]
            new_alloc.relocations.update(old.relocations)
            interp.memory.deallocate(data_ptr.alloc_id, span)
        data_ptr = VPtr(new_alloc.id, new_alloc.base_addr, new_alloc.base_tag,
                        elem, mutable=True)
        cap = new_cap
    slot = VPtr(data_ptr.alloc_id, data_ptr.addr + size * length,
                data_ptr.tag, elem, mutable=True)
    interp.write_place(slot, args[0], tid, span)
    _write_vec(interp, place, data_ptr, cap, length + 1, tid, span)
    return UNIT


def method_vec_pop(interp, place, args, generic_args, tid, span):
    elem, data_ptr, cap, length = _read_vec(interp, place, tid, span)
    if length == 0:
        return VOption(None, elem)
    size = ty.size_of(elem, interp.memory.structs)
    slot = VPtr(data_ptr.alloc_id, data_ptr.addr + size * (length - 1),
                data_ptr.tag, elem, mutable=True)
    value = interp.read_place(slot, tid, span)
    _write_vec(interp, place, data_ptr, cap, length - 1, tid, span)
    return VOption(value, elem)


def method_vec_len(interp, place, args, generic_args, tid, span):
    _, _, _, length = _read_vec(interp, place, tid, span)
    return VInt(length, ty.USIZE)


def method_vec_capacity(interp, place, args, generic_args, tid, span):
    _, _, cap, _ = _read_vec(interp, place, tid, span)
    return VInt(cap, ty.USIZE)


def method_vec_is_empty(interp, place, args, generic_args, tid, span):
    _, _, _, length = _read_vec(interp, place, tid, span)
    return VBool(length == 0)


def method_vec_as_ptr(interp, place, args, generic_args, tid, span):
    return _vec_raw_ptr(interp, place, tid, span, mutable=False)


def method_vec_as_mut_ptr(interp, place, args, generic_args, tid, span):
    return _vec_raw_ptr(interp, place, tid, span, mutable=True)


def _vec_raw_ptr(interp, place, tid, span, mutable):
    elem, data_ptr, cap, length = _read_vec(interp, place, tid, span)
    if data_ptr.alloc_id is None:
        # Empty vec: NonNull::dangling — any use will be dangling/provenance UB.
        align = 1 if isinstance(elem, ty.TyInfer) else \
            ty.align_of(elem, interp.memory.structs)
        return VPtr(None, align, None, elem, mutable=mutable)
    alloc = interp.memory.allocations[data_ptr.alloc_id]
    if alloc.live:
        from .borrows import BorrowError
        try:
            tag = alloc.borrows.retag_raw(data_ptr.tag, mutable, span)
        except BorrowError as err:
            raise UbSignal(err.error) from None
        return VPtr(alloc.id, data_ptr.addr, tag, elem, mutable=mutable)
    return VPtr(alloc.id, data_ptr.addr, data_ptr.tag, elem, mutable=mutable)


def method_vec_get(interp, place, args, generic_args, tid, span):
    elem, data_ptr, cap, length = _read_vec(interp, place, tid, span)
    index = _int(args[0], span)
    if index >= length:
        return VOption(None, elem)
    size = ty.size_of(elem, interp.memory.structs)
    slot = VPtr(data_ptr.alloc_id, data_ptr.addr + size * index,
                data_ptr.tag, elem, mutable=False)
    return VOption(interp.read_place(slot, tid, span), elem)


def method_vec_get_unchecked(interp, place, args, generic_args, tid, span):
    elem, data_ptr, cap, length = _read_vec(interp, place, tid, span)
    index = _int(args[0], span)
    size = ty.size_of(elem, interp.memory.structs)
    slot = VPtr(data_ptr.alloc_id, data_ptr.addr + size * index,
                data_ptr.tag, elem, mutable=False)
    return interp.read_place(slot, tid, span)


def method_vec_set_len(interp, place, args, generic_args, tid, span):
    elem, data_ptr, cap, length = _read_vec(interp, place, tid, span)
    _write_vec(interp, place, data_ptr, cap, _int(args[0], span), tid, span)
    return UNIT


def method_vec_truncate(interp, place, args, generic_args, tid, span):
    elem, data_ptr, cap, length = _read_vec(interp, place, tid, span)
    new_len = min(length, _int(args[0], span))
    _write_vec(interp, place, data_ptr, cap, new_len, tid, span)
    return UNIT


def method_vec_clear(interp, place, args, generic_args, tid, span):
    elem, data_ptr, cap, length = _read_vec(interp, place, tid, span)
    _write_vec(interp, place, data_ptr, cap, 0, tid, span)
    return UNIT


def method_vec_resize(interp, place, args, generic_args, tid, span):
    elem, data_ptr, cap, length = _read_vec(interp, place, tid, span)
    new_len = _int(args[0], span)
    fill = args[1]
    size = ty.size_of(elem, interp.memory.structs)
    if new_len > cap:
        new_cap = max(new_len, max(4, cap * 2))
        new_alloc = _vec_alloc(interp, elem, new_cap, span)
        if cap and data_ptr.alloc_id is not None:
            old = interp.memory.allocations[data_ptr.alloc_id]
            new_alloc.data[: size * length] = old.data[: size * length]
            new_alloc.init[: size * length] = old.init[: size * length]
            new_alloc.relocations.update(old.relocations)
            interp.memory.deallocate(data_ptr.alloc_id, span)
        data_ptr = VPtr(new_alloc.id, new_alloc.base_addr, new_alloc.base_tag,
                        elem, mutable=True)
        cap = new_cap
    for index in range(length, new_len):
        slot = VPtr(data_ptr.alloc_id, data_ptr.addr + size * index,
                    data_ptr.tag, elem, mutable=True)
        interp.write_place(slot, fill, tid, span)
    _write_vec(interp, place, data_ptr, cap, new_len, tid, span)
    return UNIT


def method_vec_remove(interp, place, args, generic_args, tid, span):
    elem, data_ptr, cap, length = _read_vec(interp, place, tid, span)
    index = _int(args[0], span)
    if index >= length:
        raise PanicSignal(f"removal index (is {index}) should be < len (is {length})", span)
    size = ty.size_of(elem, interp.memory.structs)
    slot = VPtr(data_ptr.alloc_id, data_ptr.addr + size * index,
                data_ptr.tag, elem, mutable=True)
    removed = interp.read_place(slot, tid, span)
    alloc = interp.memory.allocations[data_ptr.alloc_id]
    start = data_ptr.addr - alloc.base_addr
    for i in range(index, length - 1):
        src = start + size * (i + 1)
        dst = start + size * i
        alloc.data[dst : dst + size] = alloc.data[src : src + size]
        alloc.init[dst : dst + size] = alloc.init[src : src + size]
    _write_vec(interp, place, data_ptr, cap, length - 1, tid, span)
    return removed


VEC_METHODS = {
    "push": method_vec_push,
    "pop": method_vec_pop,
    "len": method_vec_len,
    "capacity": method_vec_capacity,
    "is_empty": method_vec_is_empty,
    "as_ptr": method_vec_as_ptr,
    "as_mut_ptr": method_vec_as_mut_ptr,
    "get": method_vec_get,
    "get_unchecked": method_vec_get_unchecked,
    "get_unchecked_mut": method_vec_get_unchecked,
    "set_len": method_vec_set_len,
    "truncate": method_vec_truncate,
    "clear": method_vec_clear,
    "resize": method_vec_resize,
    "remove": method_vec_remove,
}


# ---------------------------------------------------------------------------
# MaybeUninit


def shim_maybe_uninit_uninit(interp, args, generic_args, tid, span):
    target = generic_args[0] if generic_args else ty.INFER
    return VUninit(target)


def shim_maybe_uninit_zeroed(interp, args, generic_args, tid, span):
    target = _layout_of(generic_args, interp, span)
    size = ty.size_of(target, interp.memory.structs)
    # Zeroed bytes are *initialised*; decoding checks validity lazily.
    return VAggregate(ty.TyPath("MaybeUninit", (target,)),
                      (interp.memory.decode(b"\x00" * size, {}, target, span),))


def shim_maybe_uninit_new(interp, args, generic_args, tid, span):
    inner_ty = generic_args[0] if generic_args else interp.type_of_value(args[0])
    return VAggregate(ty.TyPath("MaybeUninit", (inner_ty,)), (args[0],))


def method_mu_write(interp, place, args, generic_args, tid, span):
    inner_ty = place.pointee.args[0]
    inner_place = place.with_pointee(inner_ty, mutable=True)
    interp.write_place(inner_place, args[0], tid, span)
    return UNIT


def method_mu_assume_init(interp, place, args, generic_args, tid, span):
    inner_ty = place.pointee.args[0]
    return interp.read_place(place.with_pointee(inner_ty), tid, span)


def method_mu_as_ptr(interp, place, args, generic_args, tid, span):
    return interp.raw_ptr_to(place, place.pointee.args[0], mutable=False, span=span)


def method_mu_as_mut_ptr(interp, place, args, generic_args, tid, span):
    return interp.raw_ptr_to(place, place.pointee.args[0], mutable=True, span=span)


MAYBE_UNINIT_METHODS = {
    "write": method_mu_write,
    "assume_init": method_mu_assume_init,
    "as_ptr": method_mu_as_ptr,
    "as_mut_ptr": method_mu_as_mut_ptr,
}


# ---------------------------------------------------------------------------
# Raw pointer methods


def method_ptr_offset(interp, recv: VPtr, args, generic_args, tid, span):
    count = _int(args[0], span)
    return _ptr_offset_checked(interp, recv, count, span)


def method_ptr_add(interp, recv: VPtr, args, generic_args, tid, span):
    return _ptr_offset_checked(interp, recv, _int(args[0], span), span)


def method_ptr_sub(interp, recv: VPtr, args, generic_args, tid, span):
    return _ptr_offset_checked(interp, recv, -_int(args[0], span), span)


def _ptr_offset_checked(interp, recv: VPtr, count: int, span: Span) -> VPtr:
    size = ty.size_of(recv.pointee, interp.memory.structs)
    delta = size * count
    new_addr = recv.addr + delta
    if recv.alloc_id is not None:
        alloc = interp.memory.allocations.get(recv.alloc_id)
        if alloc is not None:
            if not alloc.live:
                raise UbSignal(MiriError(
                    UbKind.DANGLING_POINTER,
                    "pointer arithmetic on a dangling pointer (its allocation "
                    "has been freed)",
                    span,
                ))
            offset = new_addr - alloc.base_addr
            if offset < 0 or offset > alloc.size:
                raise UbSignal(MiriError(
                    UbKind.DANGLING_POINTER,
                    f"out-of-bounds pointer arithmetic: expected a pointer to "
                    f"the end of {alloc.size} bytes of memory, but got a "
                    f"pointer to offset {offset}",
                    span,
                ))
    return VPtr(recv.alloc_id, new_addr, recv.tag, recv.pointee,
                mutable=recv.mutable, meta_len=None)


def method_ptr_wrapping_add(interp, recv: VPtr, args, generic_args, tid, span):
    size = ty.size_of(recv.pointee, interp.memory.structs)
    return VPtr(recv.alloc_id, recv.addr + size * _int(args[0], span),
                recv.tag, recv.pointee, mutable=recv.mutable)


def method_ptr_wrapping_offset(interp, recv, args, generic_args, tid, span):
    return method_ptr_wrapping_add(interp, recv, args, generic_args, tid, span)


def method_ptr_read(interp, recv: VPtr, args, generic_args, tid, span):
    return interp.read_place(recv, tid, span)


def method_ptr_write(interp, recv: VPtr, args, generic_args, tid, span):
    interp.write_place(recv, args[0], tid, span)
    return UNIT


def method_ptr_cast(interp, recv: VPtr, args, generic_args, tid, span):
    target = generic_args[0] if generic_args else ty.U8
    return recv.with_pointee(target)


def method_ptr_read_unaligned(interp, recv: VPtr, args, generic_args, tid, span):
    """Typed read without the alignment requirement."""
    size = ty.size_of(recv.pointee, interp.memory.structs)
    data, relocs = interp.memory.read_bytes(recv, size, 1, tid, span)
    return interp.memory.decode(data, relocs, recv.pointee, span)


def method_ptr_write_unaligned(interp, recv: VPtr, args, generic_args, tid, span):
    data, relocs = interp.memory.encode(
        args[0], recv.pointee, span)
    interp.memory.write_bytes(recv, data, relocs, 1, tid, span)
    return UNIT


def method_ptr_is_null(interp, recv: VPtr, args, generic_args, tid, span):
    return VBool(recv.addr == 0)


PTR_METHODS = {
    "offset": method_ptr_offset,
    "add": method_ptr_add,
    "sub": method_ptr_sub,
    "wrapping_add": method_ptr_wrapping_add,
    "wrapping_offset": method_ptr_wrapping_offset,
    "read": method_ptr_read,
    "write": method_ptr_write,
    "read_unaligned": method_ptr_read_unaligned,
    "write_unaligned": method_ptr_write_unaligned,
    "cast": method_ptr_cast,
    "is_null": method_ptr_is_null,
}


# ---------------------------------------------------------------------------
# Integer methods


def _int_binop_method(name):
    def method(interp, recv: VInt, args, generic_args, tid, span):
        other = _int(args[0], span)
        raw = {
            "wrapping_add": recv.value + other,
            "wrapping_sub": recv.value - other,
            "wrapping_mul": recv.value * other,
            "saturating_add": recv.value + other,
            "saturating_sub": recv.value - other,
            "saturating_mul": recv.value * other,
        }[name]
        if name.startswith("saturating"):
            clamped = max(recv.ty.min_value, min(recv.ty.max_value, raw))
            return VInt(clamped, recv.ty)
        return VInt(recv.ty.wrap(raw), recv.ty)
    return method


def method_int_checked_add(interp, recv: VInt, args, generic_args, tid, span):
    result = recv.value + _int(args[0], span)
    if recv.ty.in_range(result):
        return VOption(VInt(result, recv.ty), recv.ty)
    return VOption(None, recv.ty)


def method_int_pow(interp, recv: VInt, args, generic_args, tid, span):
    result = recv.value ** _int(args[0], span)
    if not recv.ty.in_range(result):
        raise PanicSignal("attempt to multiply with overflow", span)
    return VInt(result, recv.ty)


def method_int_to_le_bytes(interp, recv: VInt, args, generic_args, tid, span):
    size = recv.ty.bits // 8
    wrapped = recv.ty.wrap(recv.value)
    data = wrapped.to_bytes(size, "little", signed=wrapped < 0)
    return VAggregate(ty.TyArray(ty.U8, size),
                      tuple(VInt(b, ty.U8) for b in data))


def method_int_abs(interp, recv: VInt, args, generic_args, tid, span):
    if recv.value == recv.ty.min_value and recv.ty.signed:
        raise PanicSignal("attempt to negate with overflow", span)
    return VInt(abs(recv.value), recv.ty)


def method_int_min(interp, recv: VInt, args, generic_args, tid, span):
    return VInt(min(recv.value, _int(args[0], span)), recv.ty)


def method_int_max(interp, recv: VInt, args, generic_args, tid, span):
    return VInt(max(recv.value, _int(args[0], span)), recv.ty)


def method_int_count_ones(interp, recv: VInt, args, generic_args, tid, span):
    return VInt(bin(recv.ty.wrap(recv.value) & ((1 << recv.ty.bits) - 1)).count("1"),
                ty.U32)


INT_METHODS = {
    "wrapping_add": _int_binop_method("wrapping_add"),
    "wrapping_sub": _int_binop_method("wrapping_sub"),
    "wrapping_mul": _int_binop_method("wrapping_mul"),
    "saturating_add": _int_binop_method("saturating_add"),
    "saturating_sub": _int_binop_method("saturating_sub"),
    "saturating_mul": _int_binop_method("saturating_mul"),
    "checked_add": method_int_checked_add,
    "pow": method_int_pow,
    "to_le_bytes": method_int_to_le_bytes,
    "abs": method_int_abs,
    "min": method_int_min,
    "max": method_int_max,
    "count_ones": method_int_count_ones,
}


# ---------------------------------------------------------------------------
# Option / Result


def method_option_unwrap(interp, recv: VOption, args, generic_args, tid, span):
    if recv.inner is None:
        raise PanicSignal("called `Option::unwrap()` on a `None` value", span)
    return recv.inner


def method_option_expect(interp, recv: VOption, args, generic_args, tid, span):
    if recv.inner is None:
        message = args[0].value if args and isinstance(args[0], VStr) else "expect failed"
        raise PanicSignal(message, span)
    return recv.inner


def method_option_is_some(interp, recv, args, generic_args, tid, span):
    return VBool(recv.inner is not None)


def method_option_is_none(interp, recv, args, generic_args, tid, span):
    return VBool(recv.inner is None)


def method_option_unwrap_or(interp, recv, args, generic_args, tid, span):
    return recv.inner if recv.inner is not None else args[0]


OPTION_METHODS = {
    "unwrap": method_option_unwrap,
    "expect": method_option_expect,
    "is_some": method_option_is_some,
    "is_none": method_option_is_none,
    "unwrap_or": method_option_unwrap_or,
}


# ---------------------------------------------------------------------------
# std::alloc


def shim_layout_new(interp, args, generic_args, tid, span):
    target = _layout_of(generic_args, interp, span)
    return VLayout(ty.size_of(target, interp.memory.structs),
                   ty.align_of(target, interp.memory.structs))


def shim_layout_from_size_align(interp, args, generic_args, tid, span):
    size, align = _int(args[0], span), _int(args[1], span)
    if align == 0 or (align & (align - 1)) != 0:
        return VOption(None, ty.TyPath("Layout"))
    return VOption(VLayout(size, align), ty.TyPath("Layout"))


def shim_layout_array(interp, args, generic_args, tid, span):
    target = _layout_of(generic_args, interp, span)
    count = _int(args[0], span)
    return VOption(
        VLayout(ty.size_of(target, interp.memory.structs) * count,
                ty.align_of(target, interp.memory.structs)),
        ty.TyPath("Layout"),
    )


def _as_layout(value: Value, span: Span) -> VLayout:
    if isinstance(value, VLayout):
        return value
    if isinstance(value, VOption) and isinstance(value.inner, VLayout):
        return value.inner
    raise InterpUnsupported("expected Layout", span)


def shim_alloc(interp, args, generic_args, tid, span):
    layout = _as_layout(args[0], span)
    if layout.size == 0:
        raise UbSignal(MiriError(
            UbKind.ALLOC,
            "creating allocation with size 0 is undefined behavior in "
            "`alloc` (use `Layout` of nonzero size)",
            span,
        ))
    alloc = interp.memory.allocate(layout.size, layout.align, AllocKind.HEAP,
                                   "heap allocation")
    return VPtr(alloc.id, alloc.base_addr, alloc.base_tag, ty.U8, mutable=True)


def shim_alloc_zeroed(interp, args, generic_args, tid, span):
    ptr = shim_alloc(interp, args, generic_args, tid, span)
    alloc = interp.memory.allocations[ptr.alloc_id]
    for index in range(alloc.size):
        alloc.init[index] = 1
    return ptr


def shim_dealloc(interp, args, generic_args, tid, span):
    pointer = _ptr(args[0], span)
    layout = _as_layout(args[1], span)
    if pointer.alloc_id is None:
        raise UbSignal(MiriError(
            UbKind.PROVENANCE,
            "deallocating a pointer that has no provenance", span))
    interp.memory.deallocate(pointer.alloc_id, span,
                             expected_size=layout.size,
                             expected_align=layout.align)
    return UNIT


# ---------------------------------------------------------------------------
# Threads / sync


def shim_thread_spawn(interp, args, generic_args, tid, span):
    closure = args[0]
    return interp.spawn_thread(closure, tid, span)


def shim_thread_sleep(interp, args, generic_args, tid, span):
    return UNIT


def shim_mutex_new(interp, args, generic_args, tid, span):
    return interp.make_mutex(args[0], generic_args, tid, span)


def shim_atomic_new(interp, args, generic_args, tid, span):
    # Atomics are represented as their raw value; the *allocation* they land
    # in becomes the synchronisation object.
    return args[0]


def method_handle_join(interp, recv: VThreadHandle, args, generic_args, tid, span):
    return interp.join_thread(recv, tid, span)


# ---------------------------------------------------------------------------
# from_le_bytes / from_be_bytes


def _shim_from_bytes(int_name: str, endian: str):
    def shim(interp, args, generic_args, tid, span):
        target = ty.INT_TYPES[int_name]
        value = args[0]
        if isinstance(value, VAggregate):
            data = bytes(_int(e, span) & 0xFF for e in value.elems)
        else:
            raise InterpUnsupported("from_*_bytes expects a byte array", span)
        if len(data) != target.bits // 8:
            from .errors import CompileError
            raise CompileError(
                f"{int_name}::from_{endian}_bytes expects "
                f"[u8; {target.bits // 8}], got [u8; {len(data)}]",
                span,
            )
        return VInt(
            int.from_bytes(data, "little" if endian == "le" else "big",
                           signed=target.signed),
            target,
        )
    return shim


# ---------------------------------------------------------------------------
# Registry

CALL_SHIMS = {
    "mem::transmute": shim_transmute,
    "transmute": shim_transmute,
    "mem::size_of": shim_size_of,
    "size_of": shim_size_of,
    "mem::align_of": shim_align_of,
    "align_of": shim_align_of,
    "mem::forget": shim_forget,
    "forget": shim_forget,
    "mem::zeroed": shim_zeroed,
    "zeroed": shim_zeroed,
    "mem::swap": shim_swap,
    "swap": shim_swap,
    "mem::replace": shim_replace,
    "replace": shim_replace,
    "mem::drop": shim_drop,
    "drop": shim_drop,
    "ptr::null": shim_ptr_null,
    "ptr::null_mut": shim_ptr_null_mut,
    "ptr::read": shim_ptr_read,
    "ptr::write": shim_ptr_write,
    "ptr::copy": shim_ptr_copy,
    "ptr::copy_nonoverlapping": shim_ptr_copy,
    "Box::new": shim_box_new,
    "Box::into_raw": shim_box_into_raw,
    "Box::from_raw": shim_box_from_raw,
    "Box::leak": shim_box_leak,
    "Vec::new": shim_vec_new,
    "Vec::with_capacity": shim_vec_with_capacity,
    "MaybeUninit::uninit": shim_maybe_uninit_uninit,
    "MaybeUninit::zeroed": shim_maybe_uninit_zeroed,
    "MaybeUninit::new": shim_maybe_uninit_new,
    "Layout::new": shim_layout_new,
    "Layout::from_size_align": shim_layout_from_size_align,
    "Layout::array": shim_layout_array,
    "alloc::alloc": shim_alloc,
    "alloc": shim_alloc,
    "alloc::alloc_zeroed": shim_alloc_zeroed,
    "alloc_zeroed": shim_alloc_zeroed,
    "alloc::dealloc": shim_dealloc,
    "dealloc": shim_dealloc,
    "thread::spawn": shim_thread_spawn,
    "thread::sleep": shim_thread_sleep,
    "Mutex::new": shim_mutex_new,
    "AtomicUsize::new": shim_atomic_new,
    "AtomicI64::new": shim_atomic_new,
    "AtomicBool::new": shim_atomic_new,
    "hint::black_box": lambda interp, args, g, tid, span: args[0],
    "black_box": lambda interp, args, g, tid, span: args[0],
    "char::from_u32": lambda interp, args, g, tid, span: _char_from_u32(args, span),
}


def _char_from_u32(args, span):
    code = _int(args[0], span)
    if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
        return VOption(None, ty.CHAR)
    from .values import VChar
    return VOption(VChar(chr(code)), ty.CHAR)

for _name in ty.INT_TYPES:
    CALL_SHIMS[f"{_name}::from_le_bytes"] = _shim_from_bytes(_name, "le")
    CALL_SHIMS[f"{_name}::from_be_bytes"] = _shim_from_bytes(_name, "be")


def normalize_path(segments: list[str]) -> str:
    """Strip the ``std``/``core``/``sync``/``atomic`` prefixes from a path."""
    parts = [s for s in segments if s not in ("std", "core", "sync", "atomic", "hint")]
    return "::".join(parts)
