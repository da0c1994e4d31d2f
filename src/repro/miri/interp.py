"""Tree-walking abstract interpreter with UB detection.

Executes a parsed mini-Rust program against the byte-level memory model.
Every load/store goes through the provenance / liveness / bounds / alignment
/ stacked-borrows / data-race checks in :mod:`repro.miri.memory`, so the UB
classes the paper's dataset exercises are *detected*, not pattern-matched.

Unsafe-context enforcement (the analogue of rustc's E0133) happens here
dynamically: dereferencing a raw pointer, calling an unsafe function, touching
a ``static mut``, or reading a union field outside an ``unsafe`` scope raises
a :class:`CompileError` — exactly what a hallucinated repair that deletes an
``unsafe`` block should run into.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from ..lang import ast_nodes as ast
from ..lang import types as ty
from ..lang.span import DUMMY_SPAN, Span
from .borrows import BorrowError, reset_tags
from .errors import (
    CompileError,
    InterpUnsupported,
    MiriError,
    MiriReport,
    PanicSignal,
    UbKind,
    UbSignal,
)
from .memory import AllocKind, Memory
from .shims import (
    CALL_SHIMS,
    INT_METHODS,
    MAYBE_UNINIT_METHODS,
    OPTION_METHODS,
    PTR_METHODS,
    VEC_METHODS,
    method_handle_join,
    normalize_path,
)
from .values import (
    UNIT_VALUE,
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
    VRangeIter,
    VStr,
    VThreadHandle,
    VUninit,
    VUnit,
    Value,
)

DEFAULT_FUEL = 1_000_000

#: Explicit interpreter call-depth ceiling (user fns, closures, spawned
#: thread bodies).  Counting interpreted calls makes "stack overflow"
#: fire at a fixed interpreted depth (and step count), independent of
#: CPython's recursion limit and of how many Python frames each
#: interpreted call happens to consume; the ceiling is low enough that
#: it is always hit before CPython's own limit.
MAX_CALL_DEPTH = 56

_UNSAFE_SHIMS = {
    "mem::transmute", "transmute", "mem::zeroed", "zeroed",
    "ptr::read", "ptr::write", "ptr::copy", "ptr::copy_nonoverlapping",
    "alloc::alloc", "alloc", "alloc::alloc_zeroed", "alloc_zeroed",
    "alloc::dealloc", "dealloc", "Box::from_raw",
}

_UNSAFE_PTR_METHODS = {"offset", "add", "sub", "read", "write",
                       "read_unaligned", "write_unaligned"}
_UNSAFE_VEC_METHODS = {"get_unchecked", "get_unchecked_mut", "set_len"}
_UNSAFE_MU_METHODS = {"assume_init"}


class FuelExhausted(Exception):
    pass


class _Break(Exception):
    def __init__(self, value: Value):
        self.value = value


class _Continue(Exception):
    pass


class _Return(Exception):
    def __init__(self, value: Value):
        self.value = value


class _CollectAbort(Exception):
    """Stop error-collection mode (duplicate or too many errors)."""


@dataclass
class Local:
    alloc_id: int
    ty: ty.Ty
    mutable: bool


class Env:
    """Lexical scope chain mapping names to stack locals."""

    __slots__ = ("vars", "parent")

    def __init__(self, parent: "Env | None" = None):
        self.vars: dict[str, Local] = {}
        self.parent = parent

    def lookup(self, name: str) -> Local | None:
        env: Env | None = self
        while env is not None:
            local = env.vars.get(name)
            if local is not None:
                return local
            env = env.parent
        return None

    def define(self, name: str, local: Local) -> None:
        self.vars[name] = local

    def flatten(self) -> dict[str, Local]:
        merged: dict[str, Local] = {}
        chain: list[Env] = []
        env: Env | None = self
        while env is not None:
            chain.append(env)
            env = env.parent
        for scope in reversed(chain):
            merged.update(scope.vars)
        return merged


@dataclass(frozen=True)
class VUnionInit(Value):
    """A union literal: only one field is written; the rest stays uninit."""

    union_ty: ty.TyPath
    field: str
    value: Value

    def __str__(self) -> str:
        return f"{self.union_ty.name} {{ {self.field}: {self.value} }}"


@dataclass(frozen=True, eq=False)
class VClosure(Value):
    """A closure value: parameters, body AST, and its captured environment."""

    params: list[str]
    body: ast.Expr
    env: Env
    is_move: bool

    def __str__(self) -> str:
        return "<closure>"


@dataclass
class ThreadRecord:
    tid: int
    result: Value = UNIT_VALUE
    joined: bool = False


@dataclass
class MutexRecord:
    mutex_id: int
    data_ptr: VPtr
    inner_ty: ty.Ty
    locked: bool = False


def run_program(program: ast.Program, *, fuel: int = DEFAULT_FUEL,
                collect: bool = False, max_errors: int = 8,
                debug: bool = False) -> MiriReport:
    """Construct-and-run one interpreter over ``program``.

    The single execution point shared by :func:`repro.miri.detect_ub` and
    :func:`repro.miri.detect_ub_batch` — detector-invocation accounting
    hangs off calls to this function, so batched verification can prove it
    executes strictly fewer interpreters than one-call-per-candidate.

    The interpreter never writes to ``program``, so callers may hand it a
    tree shared with other readers (the detector runs the parse memo's
    tree directly; ``tests/miri/test_differential.py`` gates this).
    """
    interp = Interpreter(program, fuel=fuel, collect=collect,
                         max_errors=max_errors, debug=debug)
    return interp.run()


class Interpreter:
    """One program execution. Use :func:`repro.miri.detect_ub` normally."""

    def __init__(self, program: ast.Program, *, fuel: int = DEFAULT_FUEL,
                 collect: bool = False, max_errors: int = 8,
                 debug: bool = False):
        self.program = program
        self.debug = debug
        # Tag numbers surface in diagnostics; restart them so a program's
        # report is identical no matter what executed before it.
        reset_tags()
        self.memory = Memory()
        self.report = MiriReport()
        self.fuel = fuel
        self.collect = collect
        self.max_errors = max_errors
        self.unsafe_depth = 0
        self.globals = Env()
        self.consts: dict[str, Value] = {}
        self.threads: dict[int, ThreadRecord] = {}
        self.mutexes: dict[int, MutexRecord] = {}
        self.owned_boxes: set[int] = set()
        self.closures: dict[int, VClosure] = {}
        self._next_closure_id = 1
        self._static_mut: set[str] = set()
        self._error_keys: set[tuple[UbKind, int, int]] = set()
        self._call_depth = 0

    # ==================================================================
    # Top level

    def run(self) -> MiriReport:
        try:
            self._register_types()
            self._init_consts_and_statics()
            main = self.program.fn("main")
            if main is None:
                raise CompileError("`main` function not found")
            if main.params:
                raise CompileError("`main` must take no arguments")
            self._call_user_fn(main, [], tid=0, span=main.span)
            self._check_thread_leaks()
        except UbSignal as signal:
            self._record(signal.error)
        except PanicSignal as signal:
            self._record(signal.error)
        except CompileError as err:
            self._record(err.error)
        except InterpUnsupported as err:
            self._record(err.error)
        except _CollectAbort:
            pass
        except FuelExhausted:
            self._record(MiriError(
                UbKind.RESOURCE,
                "interpreter ran out of fuel (possible infinite loop)"))
        except RecursionError:
            self._record(MiriError(UbKind.RESOURCE, "stack overflow"))
        except (_Break, _Continue):
            self._record(MiriError(
                UbKind.COMPILE, "`break`/`continue` outside of a loop"))
        except ty.LayoutError as err:
            self._record(MiriError(UbKind.COMPILE, f"layout error: {err}"))
        except Exception as err:
            # The detector must never crash: repair agents feed it arbitrary
            # (possibly hallucinated) rewrites. In debug mode we re-raise so
            # the test suite surfaces genuine interpreter bugs.
            if self.debug:
                raise
            self._record(MiriError(
                UbKind.UNSUPPORTED,
                f"interpreter error: {type(err).__name__}: {err}"))
        return self.report

    def _record(self, error: MiriError) -> None:
        self.report.errors.append(error)

    def _record_collected(self, error: MiriError) -> None:
        key = (error.kind, error.span.line, error.span.col)
        if key in self._error_keys or len(self.report.errors) >= self.max_errors:
            raise _CollectAbort()
        self._error_keys.add(key)
        self.report.errors.append(error)

    def _burn(self, span: Span) -> None:
        self.fuel -= 1
        self.report.steps += 1
        if self.fuel <= 0:
            raise FuelExhausted()

    # ==================================================================
    # Program setup

    def _register_types(self) -> None:
        for item in self.program.items:
            if isinstance(item, ast.StructItem):
                self.memory.structs[item.name] = ty.StructLayout.for_struct(
                    item.name, item.fields, self.memory.structs)
            elif isinstance(item, ast.UnionItem):
                self.memory.structs[item.name] = ty.StructLayout.for_union(
                    item.name, item.fields, self.memory.structs)

    def _init_consts_and_statics(self) -> None:
        for item in self.program.items:
            if isinstance(item, ast.ConstItem):
                value = self.eval_expr(item.init, self.globals, tid=0)
                self.consts[item.name] = value
            elif isinstance(item, ast.StaticItem):
                value = self.eval_expr(item.init, self.globals, tid=0)
                static_ty = item.ty or self.type_of_value(value)
                size = ty.size_of(static_ty, self.memory.structs)
                align = ty.align_of(static_ty, self.memory.structs)
                alloc = self.memory.allocate(max(size, 1), align,
                                             AllocKind.STATIC, item.name)
                place = VPtr(alloc.id, alloc.base_addr, alloc.base_tag,
                             static_ty, mutable=True)
                if size:
                    self.write_place(place, value, tid=0, span=item.span)
                self.globals.define(item.name, Local(alloc.id, static_ty,
                                                     item.mutable))
                if item.mutable:
                    self._static_mut.add(item.name)

    def _check_thread_leaks(self) -> None:
        for record in self.threads.values():
            if not record.joined:
                raise UbSignal(MiriError(
                    UbKind.CONCURRENCY,
                    "the main thread terminated without waiting for all "
                    "remaining threads (JoinHandle never joined)",
                ))

    # ==================================================================
    # Unsafe-context enforcement

    def require_unsafe(self, what: str, span: Span) -> None:
        if self.unsafe_depth == 0:
            raise CompileError(
                f"{what} is unsafe and requires an unsafe function or block "
                f"[E0133]",
                span,
            )

    # ==================================================================
    # Memory bridging

    def read_place(self, place: VPtr, tid: int, span: Span = DUMMY_SPAN) -> Value:
        place_ty = place.pointee
        if isinstance(place_ty, ty.TyUnit):
            return UNIT_VALUE
        size = ty.size_of(place_ty, self.memory.structs)
        align = ty.align_of(place_ty, self.memory.structs)
        data, relocs = self.memory.read_bytes(place, size, align, tid, span)
        if isinstance(place_ty, ty.TyPath) and place_ty.name == "Closure":
            closure = self.closures.get(int.from_bytes(data[:8], "little"))
            if closure is None:
                raise InterpUnsupported("dangling closure value", span)
            return closure
        return self.memory.decode(data, relocs, place_ty, span)

    def write_place(self, place: VPtr, value: Value, tid: int,
                    span: Span = DUMMY_SPAN) -> None:
        place_ty = place.pointee
        if isinstance(place_ty, ty.TyUnit) or isinstance(value, VUnit):
            return
        if isinstance(value, VUninit):
            size = ty.size_of(place_ty, self.memory.structs)
            align = ty.align_of(place_ty, self.memory.structs)
            self.memory.write_bytes(place, b"\x00" * size, {}, align, tid, span)
            alloc = self.memory.allocations[place.alloc_id]
            offset = place.addr - alloc.base_addr
            for index in range(size):
                alloc.init[offset + index] = 0
            return
        if isinstance(value, VClosure):
            closure_id = self._next_closure_id
            self._next_closure_id += 1
            self.closures[closure_id] = value
            data = closure_id.to_bytes(8, "little")
            self.memory.write_bytes(place, data, {}, 8, tid, span)
            return
        if isinstance(value, VUnionInit):
            # Write only the initialised field; the remaining bytes of the
            # union stay uninitialised (reading them through another field
            # is the classic `uninit` UB).
            layout = self.memory.structs[value.union_ty.name]
            field_ty = layout.type_of(value.field)
            size = ty.size_of(place_ty, self.memory.structs)
            align = ty.align_of(place_ty, self.memory.structs)
            self.memory.write_bytes(place, b"\x00" * size, {}, align, tid, span)
            alloc = self.memory.allocations[place.alloc_id]
            offset = place.addr - alloc.base_addr
            for index in range(size):
                alloc.init[offset + index] = 0
            field_place = VPtr(place.alloc_id, place.addr, place.tag,
                               field_ty, mutable=True)
            self.write_place(field_place, value.value, tid, span)
            return
        data, relocs = self.memory.encode(value, place_ty, span)
        # Array-ref → slice-ref coercion: attach the length metadata.
        if (isinstance(place_ty, (ty.TyRef, ty.TyRawPtr))
                and isinstance(place_ty.target, ty.TySlice)
                and isinstance(value, VPtr) and value.meta_len is None
                and isinstance(value.pointee, ty.TyArray)):
            data = data[:8] + value.pointee.length.to_bytes(8, "little")
            if 0 in relocs:
                relocs[0] = dataclasses.replace(
                    relocs[0], meta_len=value.pointee.length)
        align = ty.align_of(place_ty, self.memory.structs)
        self.memory.write_bytes(place, data, relocs, align, tid, span)

    def raw_ptr_to(self, place: VPtr, pointee: ty.Ty, mutable: bool,
                   span: Span) -> VPtr:
        """Create a raw pointer into ``place`` (retagging its allocation)."""
        alloc = self.memory.allocations.get(place.alloc_id)
        if alloc is None or not alloc.live:
            return VPtr(place.alloc_id, place.addr, place.tag, pointee,
                        mutable=mutable)
        try:
            tag = alloc.borrows.retag_raw(place.tag, mutable, span)
        except BorrowError as err:
            raise UbSignal(err.error) from None
        return VPtr(place.alloc_id, place.addr, tag, pointee, mutable=mutable)

    def type_of_value(self, value: Value) -> ty.Ty:
        if isinstance(value, VInt):
            return value.ty
        if isinstance(value, VBool):
            return ty.BOOL
        if isinstance(value, VChar):
            return ty.CHAR
        if isinstance(value, VUnit):
            return ty.UNIT
        if isinstance(value, VStr):
            return ty.TyRef(ty.TyStr(), False)
        if isinstance(value, VPtr):
            if value.is_box:
                return ty.TyPath("Box", (value.pointee,))
            if value.is_ref:
                target = value.pointee
                if value.meta_len is not None and isinstance(target, ty.TyArray):
                    target = ty.TySlice(target.elem)
                return ty.TyRef(target, value.mutable)
            return ty.TyRawPtr(value.pointee, value.mutable)
        if isinstance(value, VFnPtr):
            return value.sig or ty.TyFn((), ty.UNIT)
        if isinstance(value, VAggregate):
            return value.ty
        if isinstance(value, VOption):
            return ty.TyPath("Option", (value.inner_ty,))
        if isinstance(value, VThreadHandle):
            return ty.TyPath("JoinHandle", (ty.UNIT,))
        if isinstance(value, VMutexRef):
            return ty.TyPath("Mutex", (value.inner_ty,))
        if isinstance(value, VMutexGuard):
            return ty.TyPath("MutexGuard", (value.data_ptr.pointee,))
        if isinstance(value, VLayout):
            return ty.TyPath("Layout")
        if isinstance(value, VClosure):
            return ty.TyPath("Closure")
        if isinstance(value, VUninit):
            return ty.TyPath("MaybeUninit", (value.ty,))
        if isinstance(value, VUnionInit):
            return value.union_ty
        raise InterpUnsupported(f"cannot type value {type(value).__name__}")

    # ==================================================================
    # Function calls

    def _call_user_fn(self, fn: ast.FnItem, args: list[Value], tid: int,
                      span: Span) -> Value:
        if len(args) != len(fn.params):
            raise UbSignal(MiriError(
                UbKind.FUNC_CALL,
                f"calling function `{fn.name}` with {len(args)} argument(s), "
                f"but it expects {len(fn.params)}",
                span,
            ))
        env = Env(self.globals)
        for param, arg in zip(fn.params, args):
            param_ty = param.ty or self.type_of_value(arg)
            if isinstance(param_ty, ty.TyInfer):
                param_ty = self.type_of_value(arg)
            local = self._alloc_local(param.name, param_ty, True, env,
                                      label=f"arg {param.name}")
            self.write_place(self._local_place(local), arg, tid, span)
        saved_unsafe = self.unsafe_depth
        self.unsafe_depth = 1 if fn.is_unsafe else 0
        self._call_depth += 1
        try:
            if self._call_depth > MAX_CALL_DEPTH:
                raise RecursionError("interpreter call depth exceeded")
            result = self.eval_block(fn.body, env, tid)
        except _Return as ret:
            result = ret.value
        finally:
            self._call_depth -= 1
            self.unsafe_depth = saved_unsafe
        return result

    def call_fn_value(self, callee: Value, args: list[Value], tid: int,
                      span: Span) -> Value:
        if isinstance(callee, VFnPtr):
            target = self.program.fn(callee.fn_name)
            if target is None:
                raise UbSignal(MiriError(
                    UbKind.FUNC_POINTER,
                    f"calling a function pointer that does not point to a "
                    f"live function ({callee.fn_name})",
                    span,
                ))
            if callee.sig is not None:
                self._check_fn_sig(callee.sig, target, span)
            if target.is_unsafe:
                self.require_unsafe(f"call to unsafe function `{target.name}`",
                                    span)
            return self._call_user_fn(target, args, tid, span)
        if isinstance(callee, VClosure):
            return self._call_closure(callee, args, tid, span)
        raise UbSignal(MiriError(
            UbKind.FUNC_POINTER,
            f"calling a non-function value ({type(callee).__name__})", span))

    def _check_fn_sig(self, sig: ty.TyFn, target: ast.FnItem, span: Span) -> None:
        actual_params = tuple(p.ty for p in target.params)
        actual_ret = target.ret or ty.UNIT
        declared_ret = sig.ret
        if len(sig.params) != len(actual_params):
            raise UbSignal(MiriError(
                UbKind.FUNC_POINTER,
                f"calling a function through a pointer with a different "
                f"number of arguments: pointer has {len(sig.params)}, "
                f"function `{target.name}` has {len(actual_params)}",
                span,
            ))
        for declared, actual in zip(sig.params, actual_params):
            if actual is not None and str(declared) != str(actual):
                raise UbSignal(MiriError(
                    UbKind.FUNC_POINTER,
                    f"calling a function through a pointer of incompatible "
                    f"type: argument declared as {declared}, but function "
                    f"`{target.name}` expects {actual}",
                    span,
                ))
        if str(declared_ret) != str(actual_ret):
            raise UbSignal(MiriError(
                UbKind.FUNC_POINTER,
                f"calling a function through a pointer of incompatible type: "
                f"return type declared as {declared_ret}, but function "
                f"`{target.name}` returns {actual_ret}",
                span,
            ))

    def _call_closure(self, closure: VClosure, args: list[Value], tid: int,
                      span: Span) -> Value:
        env = Env(closure.env)
        for name, arg in zip(closure.params, args):
            arg_ty = self.type_of_value(arg)
            local = self._alloc_local(name, arg_ty, True, env)
            self.write_place(self._local_place(local), arg, tid, span)
        return self._run_closure_body(closure, env, tid)

    def _run_closure_body(self, closure: VClosure, env: Env,
                          tid: int) -> Value:
        """Execute a closure body in ``env``: shared unsafe/`return`/depth
        bookkeeping for direct calls and spawned threads alike."""
        saved_unsafe = self.unsafe_depth
        self.unsafe_depth = 0
        self._call_depth += 1
        try:
            if self._call_depth > MAX_CALL_DEPTH:
                raise RecursionError("interpreter call depth exceeded")
            if isinstance(closure.body, ast.Block):
                return self.eval_block(closure.body, env, tid)
            return self.eval_expr(closure.body, env, tid)
        except _Return as ret:
            return ret.value
        finally:
            self._call_depth -= 1
            self.unsafe_depth = saved_unsafe

    # ==================================================================
    # Threads / sync (called from shims)

    def spawn_thread(self, closure: Value, parent_tid: int, span: Span) -> Value:
        if not isinstance(closure, VClosure):
            raise InterpUnsupported("thread::spawn expects a closure", span)
        child_tid = self.memory.races.spawn(parent_tid)
        record = ThreadRecord(child_tid)
        self.threads[child_tid] = record
        env = Env(self._capture_env(closure) if closure.is_move else closure.env)
        record.result = self._run_closure_body(closure, env, child_tid)
        return VThreadHandle(child_tid)

    def _capture_env(self, closure: VClosure) -> Env:
        """Move-capture: copy every visible local into fresh allocations."""
        snapshot = Env(self.globals)
        for name, local in closure.env.flatten().items():
            if self.globals.lookup(name) is local:
                continue  # statics stay shared
            source = self.memory.allocations.get(local.alloc_id)
            if source is None:
                continue
            copy = self.memory.allocate(source.size, source.align,
                                        AllocKind.STACK, f"moved {name}")
            copy.data[:] = source.data
            copy.init[:] = source.init
            copy.relocations.update(source.relocations)
            snapshot.define(name, Local(copy.id, local.ty, local.mutable))
        return snapshot

    def join_thread(self, handle: VThreadHandle, tid: int, span: Span) -> Value:
        record = self.threads.get(handle.thread_id)
        if record is None:
            raise InterpUnsupported("joining unknown thread", span)
        record.joined = True
        self.memory.races.join(tid, handle.thread_id)
        return record.result

    def make_mutex(self, value: Value, generic_args, tid: int, span: Span) -> Value:
        inner_ty = generic_args[0] if generic_args else self.type_of_value(value)
        size = ty.size_of(inner_ty, self.memory.structs)
        align = ty.align_of(inner_ty, self.memory.structs)
        alloc = self.memory.allocate(max(size, 1), align, AllocKind.HEAP,
                                     "Mutex data")
        data_ptr = VPtr(alloc.id, alloc.base_addr, alloc.base_tag, inner_ty,
                        mutable=True)
        if size:
            self.write_place(data_ptr, value, tid, span)
        mutex_id = len(self.mutexes) + 1
        self.mutexes[mutex_id] = MutexRecord(mutex_id, data_ptr, inner_ty)
        return VMutexRef(mutex_id, inner_ty)

    def lock_mutex(self, place: VPtr, tid: int, span: Span) -> Value:
        value = self.read_place(place, tid, span)
        if not isinstance(value, VMutexRef):
            raise InterpUnsupported("lock() on a non-Mutex", span)
        record = self.mutexes.get(value.mutex_id)
        if record is None:
            raise InterpUnsupported("unknown mutex", span)
        if record.locked:
            raise UbSignal(MiriError(
                UbKind.CONCURRENCY,
                "deadlock: the evaluated program attempted to lock a mutex it "
                "already holds",
                span,
            ))
        record.locked = True
        self.memory.races.acquire(tid, 10_000 + record.mutex_id)
        return VMutexGuard(record.mutex_id, record.data_ptr)

    def unlock_mutex(self, guard: VMutexGuard, tid: int, span: Span) -> None:
        record = self.mutexes.get(guard.mutex_id)
        if record is None or not record.locked:
            raise UbSignal(MiriError(
                UbKind.CONCURRENCY, "unlocking a mutex that is not locked",
                span,
            ))
        record.locked = False
        self.memory.races.release(tid, 10_000 + record.mutex_id)

    def is_owned_ptr(self, value: Value) -> bool:
        return (isinstance(value, VPtr) and value.is_box
                and value.alloc_id in self.owned_boxes)

    # ==================================================================
    # Statements / blocks

    def eval_block(self, block: ast.Block, parent_env: Env, tid: int) -> Value:
        env = Env(parent_env)
        if block.is_unsafe:
            self.unsafe_depth += 1
        try:
            for stmt in block.stmts:
                self._exec_stmt(stmt, env, tid)
            if block.tail is not None:
                return self.eval_expr(block.tail, env, tid)
            return UNIT_VALUE
        finally:
            if block.is_unsafe:
                self.unsafe_depth -= 1

    def _exec_stmt(self, stmt: ast.Stmt, env: Env, tid: int) -> None:
        self._burn(stmt.span)
        if not self.collect:
            self._exec_stmt_inner(stmt, env, tid)
            return
        try:
            self._exec_stmt_inner(stmt, env, tid)
        except UbSignal as signal:
            if not signal.error.kind.is_ub:
                raise
            self._record_collected(signal.error)
        except CompileError as err:
            self._record_collected(err.error)

    def _exec_stmt_inner(self, stmt: ast.Stmt, env: Env, tid: int) -> None:
        if isinstance(stmt, ast.LetStmt):
            self._exec_let(stmt, env, tid)
        elif isinstance(stmt, ast.ExprStmt):
            self.eval_expr(stmt.expr, env, tid)
        else:
            raise InterpUnsupported(
                f"statement {type(stmt).__name__}", stmt.span)

    def _exec_let(self, stmt: ast.LetStmt, env: Env, tid: int) -> None:
        declared = stmt.ty
        if stmt.init is None:
            if declared is None:
                raise CompileError(
                    f"type annotations needed for `{stmt.name}`", stmt.span)
            local = self._alloc_local(stmt.name, declared, stmt.mutable, env)
            return
        value = self.eval_expr(stmt.init, env, tid)
        self._bind_let(stmt, value, env, tid)

    def _bind_let(self, stmt: ast.LetStmt, value: Value, env: Env,
                  tid: int) -> None:
        """Bind an evaluated initializer to a fresh local."""
        declared = stmt.ty
        let_ty = declared if declared is not None and not isinstance(
            declared, ty.TyInfer) else self.type_of_value(value)
        let_ty = self._refine_vec_ty(let_ty, value)
        value = self._materialize_vec(let_ty, value, stmt.span, tid)
        local = self._alloc_local(stmt.name, let_ty, stmt.mutable, env)
        self.write_place(self._local_place(local), value, tid, stmt.span)

    def _refine_vec_ty(self, let_ty: ty.Ty, value: Value) -> ty.Ty:
        """``let v: Vec<i32> = Vec::new()`` refines the element type."""
        if (isinstance(let_ty, ty.TyPath) and let_ty.name == "Vec"
                and let_ty.args and isinstance(let_ty.args[0], ty.TyInfer)
                and isinstance(value, VAggregate)
                and isinstance(value.ty, ty.TyPath) and value.ty.args
                and not isinstance(value.ty.args[0], ty.TyInfer)):
            return value.ty
        return let_ty

    def _materialize_vec(self, let_ty: ty.Ty, value: Value, span: Span,
                         tid: int) -> Value:
        """Allocate a ``Vec::with_capacity`` buffer once the element type is
        known from the binding annotation."""
        if not (isinstance(let_ty, ty.TyPath) and let_ty.name == "Vec"
                and let_ty.args
                and not isinstance(let_ty.args[0], ty.TyInfer)
                and isinstance(value, VAggregate)
                and isinstance(value.ty, ty.TyPath)
                and value.ty.name == "Vec"):
            return value
        data_ptr, cap, length = value.elems
        if not (isinstance(data_ptr, VPtr) and data_ptr.alloc_id is None
                and isinstance(cap, VInt) and cap.value > 0):
            return value
        from .shims import _vec_alloc, vec_value
        elem_ty = let_ty.args[0]
        alloc = _vec_alloc(self, elem_ty, cap.value, span)
        new_ptr = VPtr(alloc.id, alloc.base_addr, alloc.base_tag, elem_ty,
                       mutable=True)
        return vec_value(new_ptr, cap.value, length.value, let_ty)

    def _alloc_local(self, name: str, local_ty: ty.Ty, mutable: bool,
                     env: Env, label: str | None = None) -> Local:
        if isinstance(local_ty, ty.TyInfer):
            raise CompileError(f"type annotations needed for `{name}`")
        size = ty.size_of(local_ty, self.memory.structs)
        align = ty.align_of(local_ty, self.memory.structs)
        alloc = self.memory.allocate(max(size, 1), max(align, 1),
                                     AllocKind.STACK, label or name)
        local = Local(alloc.id, local_ty, mutable)
        env.define(name, local)
        return local

    def _local_place(self, local: Local) -> VPtr:
        alloc = self.memory.allocations[local.alloc_id]
        return VPtr(alloc.id, alloc.base_addr, alloc.base_tag, local.ty,
                    mutable=True)

    # ==================================================================
    # Places (lvalues)

    def eval_place(self, expr: ast.Expr, env: Env, tid: int,
                   for_write: bool = False) -> VPtr:
        self._burn(expr.span)
        if isinstance(expr, ast.PathExpr) and expr.is_local:
            return self._place_for_name(expr.name, env, expr.span, for_write)
        if isinstance(expr, ast.Unary) and expr.op == "*":
            return self._place_deref(expr, env, tid, for_write)
        if isinstance(expr, ast.FieldAccess):
            return self._place_field(expr, env, tid, for_write)
        if isinstance(expr, ast.Index):
            return self._place_index(expr, env, tid, for_write)
        # Not a place: materialise a temporary.
        value = self.eval_expr(expr, env, tid)
        return self._temp_place(value, expr.span, tid)

    def _temp_place(self, value: Value, span: Span, tid: int) -> VPtr:
        value_ty = self.type_of_value(value)
        size = ty.size_of(value_ty, self.memory.structs)
        align = ty.align_of(value_ty, self.memory.structs)
        alloc = self.memory.allocate(max(size, 1), max(align, 1),
                                     AllocKind.STACK, "temporary")
        place = VPtr(alloc.id, alloc.base_addr, alloc.base_tag, value_ty,
                     mutable=True)
        if size:
            self.write_place(place, value, tid, span)
        return place

    def _place_for_name(self, name: str, env: Env, span: Span,
                        for_write: bool) -> VPtr:
        local = env.lookup(name)
        if local is None:
            raise CompileError(f"cannot find value `{name}` in this scope", span)
        if name in self._static_mut:
            self.require_unsafe(f"use of mutable static `{name}`", span)
        is_global = self.globals.lookup(name) is local
        if for_write and not local.mutable:
            target = "immutable static" if is_global else "immutable variable"
            raise CompileError(
                f"cannot assign to {target} `{name}` (not declared `mut`)",
                span,
            )
        place = self._local_place(local)
        if for_write and not local.mutable:
            place = dataclasses.replace(place, mutable=False)
        return place

    def _place_deref(self, expr: ast.Unary, env: Env, tid: int,
                     for_write: bool) -> VPtr:
        value = self.eval_expr(expr.operand, env, tid)
        return self._deref_place(value, expr.span, for_write)

    def _deref_place(self, value: Value, span: Span, for_write: bool) -> VPtr:
        """The place a dereference of an evaluated ``value`` designates."""
        if isinstance(value, VMutexGuard):
            return value.data_ptr
        if isinstance(value, VPtr):
            if not value.is_ref and not value.is_box:
                self.require_unsafe("dereference of raw pointer", span)
            if for_write and not value.mutable:
                raise CompileError(
                    "cannot assign through a `*const` pointer or `&` reference",
                    span,
                )
            return value
        raise CompileError(
            f"type `{self.type_of_value(value)}` cannot be dereferenced",
            span,
        )

    def _autoderef(self, place: VPtr, tid: int, span: Span) -> VPtr:
        """Follow references and boxes to the underlying place."""
        seen = 0
        while isinstance(place.pointee, (ty.TyRef, ty.TyPath)) and seen < 8:
            if isinstance(place.pointee, ty.TyRef):
                value = self.read_place(place, tid, span)
                if not isinstance(value, VPtr):
                    break
                place = value.with_pointee(place.pointee.target,
                                           place.pointee.mutable)
                place = dataclasses.replace(
                    place, is_ref=True, meta_len=value.meta_len)
            elif isinstance(place.pointee, ty.TyPath) and \
                    place.pointee.name == "Box":
                value = self.read_place(place, tid, span)
                if not isinstance(value, VPtr):
                    break
                place = value.with_pointee(place.pointee.args[0], True)
            else:
                break
            seen += 1
        return place

    def _place_field(self, expr: ast.FieldAccess, env: Env, tid: int,
                     for_write: bool) -> VPtr:
        base = self.eval_place(expr.obj, env, tid)
        base = self._autoderef(base, tid, expr.span)
        return self._field_place(base, expr.field, expr.span)

    def _field_place(self, base: VPtr, field_name: str, span: Span) -> VPtr:
        """Project a field out of an already-autoderef'd base place."""
        base_ty = base.pointee
        if isinstance(base_ty, ty.TyTuple):
            index = int(field_name)
            if index >= len(base_ty.elems):
                raise CompileError(
                    f"no field `{field_name}` on type `{base_ty}`", span)
            offsets = self.memory._aggregate_offsets(base_ty, list(base_ty.elems))
            return VPtr(base.alloc_id, base.addr + offsets[index], base.tag,
                        base_ty.elems[index], mutable=base.mutable)
        if isinstance(base_ty, ty.TyPath) and base_ty.name in self.memory.structs:
            layout = self.memory.structs[base_ty.name]
            if field_name not in layout.field_names:
                raise CompileError(
                    f"no field `{field_name}` on type `{base_ty}`", span)
            if layout.is_union:
                self.require_unsafe(
                    f"access to union field `{field_name}`", span)
            return VPtr(base.alloc_id, base.addr + layout.offset_of(field_name),
                        base.tag, layout.type_of(field_name),
                        mutable=base.mutable)
        raise CompileError(
            f"no field `{field_name}` on type `{base_ty}`", span)

    def _place_index(self, expr: ast.Index, env: Env, tid: int,
                     for_write: bool) -> VPtr:
        base = self.eval_place(expr.obj, env, tid)
        base = self._autoderef(base, tid, expr.span)
        index_value = self.eval_expr(expr.index, env, tid)
        return self._index_place(base, index_value, tid, expr.span)

    def _index_place(self, base: VPtr, index_value: Value, tid: int,
                     span: Span) -> VPtr:
        """Project an element out of an already-autoderef'd base place."""
        if not isinstance(index_value, VInt):
            raise CompileError("slice indices must be integers", span)
        index = index_value.value
        base_ty = base.pointee
        if isinstance(base_ty, ty.TyArray):
            if index < 0 or index >= base_ty.length:
                raise PanicSignal(
                    f"index out of bounds: the len is {base_ty.length} but "
                    f"the index is {index}",
                    span,
                )
            elem_size = ty.size_of(base_ty.elem, self.memory.structs)
            return VPtr(base.alloc_id, base.addr + index * elem_size, base.tag,
                        base_ty.elem, mutable=base.mutable)
        if isinstance(base_ty, ty.TySlice):
            length = base.meta_len if base.meta_len is not None else 0
            if index < 0 or index >= length:
                raise PanicSignal(
                    f"index out of bounds: the len is {length} but the index "
                    f"is {index}",
                    span,
                )
            elem_size = ty.size_of(base_ty.elem, self.memory.structs)
            return VPtr(base.alloc_id, base.addr + index * elem_size, base.tag,
                        base_ty.elem, mutable=base.mutable)
        if isinstance(base_ty, ty.TyPath) and base_ty.name == "Vec":
            from .shims import _read_vec
            elem, data_ptr, cap, length = _read_vec(self, base, tid, span)
            if index < 0 or index >= length:
                raise PanicSignal(
                    f"index out of bounds: the len is {length} but the index "
                    f"is {index}",
                    span,
                )
            elem_size = ty.size_of(elem, self.memory.structs)
            return VPtr(data_ptr.alloc_id, data_ptr.addr + index * elem_size,
                        data_ptr.tag, elem, mutable=True)
        raise CompileError(f"type `{base_ty}` cannot be indexed", span)

    # ==================================================================
    # Expressions

    def eval_expr(self, expr: ast.Expr, env: Env, tid: int) -> Value:
        self._burn(expr.span)
        method = getattr(self, f"_eval_{type(expr).__name__}", None)
        if method is None:
            raise InterpUnsupported(
                f"expression {type(expr).__name__}", expr.span)
        return method(expr, env, tid)

    # --- literals ------------------------------------------------------

    def _eval_IntLit(self, expr: ast.IntLit, env: Env, tid: int) -> Value:
        int_ty = ty.INT_TYPES.get(expr.suffix or "i32", ty.I32)
        return VInt(expr.value, int_ty)

    def _eval_BoolLit(self, expr: ast.BoolLit, env: Env, tid: int) -> Value:
        return VBool(expr.value)

    def _eval_CharLit(self, expr: ast.CharLit, env: Env, tid: int) -> Value:
        return VChar(expr.value)

    def _eval_StrLit(self, expr: ast.StrLit, env: Env, tid: int) -> Value:
        return VStr(expr.value)

    # --- paths ----------------------------------------------------------

    def _eval_PathExpr(self, expr: ast.PathExpr, env: Env, tid: int) -> Value:
        if expr.is_local:
            name = expr.name
            local = env.lookup(name)
            if local is not None:
                return self.read_place(
                    self._place_for_name(name, env, expr.span, False),
                    tid, expr.span)
            if name in self.consts:
                return self.consts[name]
            if name == "None":
                return VOption(None, ty.INFER)
            fn = self.program.fn(name)
            if fn is not None:
                sig = ty.TyFn(tuple(p.ty for p in fn.params),
                              fn.ret or ty.UNIT, fn.is_unsafe)
                return VFnPtr(name, self.memory.fn_addr(name), sig)
            raise CompileError(
                f"cannot find value `{name}` in this scope", expr.span)
        # Qualified path constants: i32::MAX, usize::MAX, Ordering::SeqCst...
        if len(expr.segments) == 2:
            head, tail = expr.segments
            if head in ty.INT_TYPES:
                int_ty = ty.INT_TYPES[head]
                if tail == "MAX":
                    return VInt(int_ty.max_value, int_ty)
                if tail == "MIN":
                    return VInt(int_ty.min_value, int_ty)
                if tail == "BITS":
                    return VInt(int_ty.bits, ty.U32)
            if head == "Ordering":
                return VInt(0, ty.I32)  # memory orderings are erased
        normalized = normalize_path(expr.segments)
        if normalized == "Option::None" or normalized == "None":
            return VOption(None, ty.INFER)
        raise CompileError(
            f"cannot find path `{expr.full}` in this scope", expr.span)

    # --- operators -------------------------------------------------------

    def _eval_Unary(self, expr: ast.Unary, env: Env, tid: int) -> Value:
        if expr.op == "*":
            place = self._place_deref(expr, env, tid, for_write=False)
            return self.read_place(place, tid, expr.span)
        if expr.op in ("&", "&mut"):
            return self._make_ref(expr.operand, expr.op == "&mut", env, tid,
                                  expr.span)
        value = self.eval_expr(expr.operand, env, tid)
        return self._unary_value(expr.op, value, expr.span)

    def _unary_value(self, op: str, value: Value, span: Span) -> Value:
        """Non-place unary operators on an evaluated operand."""
        if op == "-":
            if isinstance(value, VInt):
                result = -value.value
                if not value.ty.in_range(result):
                    raise PanicSignal("attempt to negate with overflow",
                                      span)
                return VInt(result, value.ty)
            raise CompileError("cannot negate this type", span)
        if op == "!":
            if isinstance(value, VBool):
                return VBool(not value.value)
            if isinstance(value, VInt):
                return VInt(value.ty.wrap(~value.value), value.ty)
        raise InterpUnsupported(f"unary {op}", span)

    def _make_ref(self, operand: ast.Expr, mutable: bool, env: Env, tid: int,
                  span: Span) -> Value:
        place = self.eval_place(operand, env, tid, for_write=mutable)
        return self._ref_from_place(place, mutable, span)

    def _ref_from_place(self, place: VPtr, mutable: bool, span: Span) -> Value:
        """Retag and build a reference from an evaluated place."""
        alloc = self.memory.allocations.get(place.alloc_id)
        if alloc is None:
            raise UbSignal(MiriError(
                UbKind.DANGLING_POINTER,
                "taking a reference to a dangling place", span))
        if not alloc.live:
            raise UbSignal(MiriError(
                UbKind.DANGLING_POINTER,
                f"taking a reference into freed memory "
                f"({alloc.label or f'alloc{alloc.id}'})",
                span,
            ))
        try:
            if mutable:
                tag = alloc.borrows.retag_mut(place.tag, span)
            else:
                tag = alloc.borrows.retag_shared(place.tag, span)
        except BorrowError as err:
            raise UbSignal(err.error) from None
        meta = None
        if isinstance(place.pointee, ty.TyArray):
            meta = place.meta_len  # preserved only through slice coercion
        return VPtr(place.alloc_id, place.addr, tag, place.pointee,
                    mutable=mutable, is_ref=True,
                    meta_len=place.meta_len if place.meta_len else meta)

    def _eval_Binary(self, expr: ast.Binary, env: Env, tid: int) -> Value:
        op = expr.op
        if op in ("&&", "||"):
            left = self.eval_expr(expr.left, env, tid)
            if not isinstance(left, VBool):
                raise CompileError("logical op needs bool operands", expr.span)
            if op == "&&" and not left.value:
                return VBool(False)
            if op == "||" and left.value:
                return VBool(True)
            right = self.eval_expr(expr.right, env, tid)
            if not isinstance(right, VBool):
                raise CompileError("logical op needs bool operands", expr.span)
            return VBool(right.value)
        left = self.eval_expr(expr.left, env, tid)
        right = self.eval_expr(expr.right, env, tid)
        return self._binop(op, left, right, expr.span)

    def _binop(self, op: str, left: Value, right: Value, span: Span) -> Value:
        if op in ("==", "!="):
            equal = self._values_equal(left, right, span)
            return VBool(equal if op == "==" else not equal)
        if isinstance(left, VInt) and isinstance(right, VInt):
            return self._int_binop(op, left, right, span)
        if isinstance(left, VPtr) and isinstance(right, VPtr):
            if op in ("<", ">", "<=", ">="):
                table = {"<": left.addr < right.addr,
                         ">": left.addr > right.addr,
                         "<=": left.addr <= right.addr,
                         ">=": left.addr >= right.addr}
                return VBool(table[op])
        if isinstance(left, VBool) and isinstance(right, VBool):
            if op == "&":
                return VBool(left.value and right.value)
            if op == "|":
                return VBool(left.value or right.value)
            if op == "^":
                return VBool(left.value != right.value)
        raise CompileError(
            f"cannot apply `{op}` to {self.type_of_value(left)} and "
            f"{self.type_of_value(right)}",
            span,
        )

    def _int_binop(self, op: str, left: VInt, right: VInt, span: Span) -> Value:
        a, b = left.value, right.value
        result_ty = left.ty
        if op in ("<", ">", "<=", ">="):
            table = {"<": a < b, ">": a > b, "<=": a <= b, ">=": a >= b}
            return VBool(table[op])
        if op in ("/", "%") and b == 0:
            raise PanicSignal(
                "attempt to divide by zero" if op == "/" else
                "attempt to calculate the remainder with a divisor of zero",
                span,
            )
        if op in ("<<", ">>") and (b < 0 or b >= result_ty.bits):
            raise PanicSignal(
                f"attempt to shift {'left' if op == '<<' else 'right'} with "
                f"overflow",
                span,
            )
        if op == "+":
            raw = a + b
        elif op == "-":
            raw = a - b
        elif op == "*":
            raw = a * b
        elif op == "/":
            raw = int(a / b)  # truncates toward zero, like Rust
        elif op == "%":
            raw = a - int(a / b) * b
        elif op == "&":
            raw = a & b
        elif op == "|":
            raw = a | b
        elif op == "^":
            raw = a ^ b
        elif op == "<<":
            raw = a << b
        elif op == ">>":
            raw = a >> b
        else:
            raise CompileError(f"unknown integer operator `{op}`", span)
        if op in ("+", "-", "*") and not result_ty.in_range(raw):
            verb = {"+": "add", "-": "subtract", "*": "multiply"}[op]
            raise PanicSignal(f"attempt to {verb} with overflow", span)
        return VInt(result_ty.wrap(raw), result_ty)

    def _values_equal(self, left: Value, right: Value, span: Span) -> bool:
        if isinstance(left, VInt) and isinstance(right, VInt):
            return left.value == right.value
        if isinstance(left, VBool) and isinstance(right, VBool):
            return left.value == right.value
        if isinstance(left, VChar) and isinstance(right, VChar):
            return left.value == right.value
        if isinstance(left, VStr) and isinstance(right, VStr):
            return left.value == right.value
        if isinstance(left, VPtr) and isinstance(right, VPtr):
            return left.addr == right.addr
        if isinstance(left, VUnit) and isinstance(right, VUnit):
            return True
        if isinstance(left, VAggregate) and isinstance(right, VAggregate):
            return len(left.elems) == len(right.elems) and all(
                self._values_equal(l, r, span)
                for l, r in zip(left.elems, right.elems)
            )
        if isinstance(left, VOption) and isinstance(right, VOption):
            if left.inner is None or right.inner is None:
                return (left.inner is None) == (right.inner is None)
            return self._values_equal(left.inner, right.inner, span)
        raise CompileError("cannot compare these types", span)

    # --- assignment ------------------------------------------------------

    def _eval_Assign(self, expr: ast.Assign, env: Env, tid: int) -> Value:
        value = self.eval_expr(expr.value, env, tid)
        place = self.eval_place(expr.target, env, tid, for_write=True)
        self.write_place(place, value, tid, expr.span)
        return UNIT_VALUE

    def _eval_CompoundAssign(self, expr: ast.CompoundAssign, env: Env,
                             tid: int) -> Value:
        place = self.eval_place(expr.target, env, tid, for_write=True)
        current = self.read_place(place, tid, expr.span)
        operand = self.eval_expr(expr.value, env, tid)
        result = self._binop(expr.op, current, operand, expr.span)
        self.write_place(place, result, tid, expr.span)
        return UNIT_VALUE

    # --- calls -----------------------------------------------------------

    def _eval_Call(self, expr: ast.Call, env: Env, tid: int) -> Value:
        callee = expr.func
        args = [self.eval_expr(a, env, tid) for a in expr.args]
        if isinstance(callee, ast.PathExpr):
            return self._call_path(callee, args, env, tid, expr.span)
        value = self.eval_expr(callee, env, tid)
        return self.call_fn_value(value, args, tid, expr.span)

    def _call_path(self, path: ast.PathExpr, args: list[Value], env: Env,
                   tid: int, span: Span) -> Value:
        # Local bindings (closures / fn pointers) shadow everything.
        if path.is_local:
            local = env.lookup(path.name)
            if local is not None:
                value = self.read_place(
                    self._place_for_name(path.name, env, span, False),
                    tid, span)
                return self.call_fn_value(value, args, tid, span)
            if path.name == "Some":
                inner_ty = self.type_of_value(args[0])
                return VOption(args[0], inner_ty)
            if path.name == "drop":
                from .shims import shim_drop
                return shim_drop(self, args, path.generic_args, tid, span)
            fn = self.program.fn(path.name)
            if fn is not None:
                if fn.is_unsafe:
                    self.require_unsafe(
                        f"call to unsafe function `{fn.name}`", span)
                return self._call_user_fn(fn, args, tid, span)
        normalized = normalize_path(path.segments)
        shim = CALL_SHIMS.get(normalized)
        if shim is not None:
            if normalized in _UNSAFE_SHIMS:
                self.require_unsafe(f"call to `{path.full}`", span)
            return shim(self, args, path.generic_args, tid, span)
        if normalized == "Some":
            return VOption(args[0], self.type_of_value(args[0]))
        raise CompileError(
            f"cannot find function `{path.full}` in this scope", span)

    # --- method calls ------------------------------------------------------

    _PLACE_DISPATCH_TYPES = ("Vec", "MaybeUninit", "Mutex", "AtomicUsize",
                             "AtomicI64", "AtomicBool")

    def _eval_MethodCall(self, expr: ast.MethodCall, env: Env, tid: int) -> Value:
        args = [self.eval_expr(a, env, tid) for a in expr.args]
        receiver = expr.receiver
        is_place_expr = isinstance(
            receiver, (ast.PathExpr, ast.FieldAccess, ast.Index)
        ) or (isinstance(receiver, ast.Unary) and receiver.op == "*")
        if is_place_expr:
            place = self.eval_place(receiver, env, tid)
            place = self._autoderef_for_method(place, tid, expr.span)
            return self._dispatch_method_on_place(place, expr, args, tid)
        value = self.eval_expr(receiver, env, tid)
        return self._dispatch_method_on_value(value, expr, args, tid)

    def _autoderef_for_method(self, place: VPtr, tid: int, span: Span) -> VPtr:
        while isinstance(place.pointee, ty.TyRef):
            value = self.read_place(place, tid, span)
            if not isinstance(value, VPtr):
                break
            target = place.pointee.target
            place = dataclasses.replace(
                value, pointee=target, is_ref=True,
                mutable=place.pointee.mutable,
                meta_len=value.meta_len,
            )
        return place

    def _dispatch_method_on_place(self, place: VPtr, expr: ast.MethodCall,
                                  args: list[Value], tid: int) -> Value:
        name = expr.method
        place_ty = place.pointee
        span = expr.span
        if isinstance(place_ty, ty.TyPath):
            if place_ty.name == "Vec":
                handler = VEC_METHODS.get(name)
                if handler is not None:
                    if name in _UNSAFE_VEC_METHODS:
                        self.require_unsafe(f"call to `Vec::{name}`", span)
                    return handler(self, place, args, expr.generic_args, tid, span)
            if place_ty.name == "MaybeUninit":
                handler = MAYBE_UNINIT_METHODS.get(name)
                if handler is not None:
                    if name in _UNSAFE_MU_METHODS:
                        self.require_unsafe(
                            f"call to `MaybeUninit::{name}`", span)
                    return handler(self, place, args, expr.generic_args, tid, span)
            if place_ty.name == "Mutex" and name == "lock":
                return self.lock_mutex(place, tid, span)
            if place_ty.name.startswith("Atomic"):
                return self._atomic_method(place, name, args, tid, span)
        if isinstance(place_ty, ty.TyArray):
            return self._array_method(place, name, args, tid, span)
        if isinstance(place_ty, ty.TySlice):
            return self._slice_method(place, name, args, tid, span)
        # Fall back to value dispatch.
        value = self.read_place(place, tid, span)
        return self._dispatch_method_on_value(value, expr, args, tid)

    def _dispatch_method_on_value(self, value: Value, expr: ast.MethodCall,
                                  args: list[Value], tid: int) -> Value:
        name = expr.method
        span = expr.span
        if isinstance(value, VPtr) and not value.is_ref:
            handler = PTR_METHODS.get(name)
            if handler is not None:
                if name in _UNSAFE_PTR_METHODS:
                    self.require_unsafe(
                        f"call to raw-pointer method `{name}`", span)
                return handler(self, value, args, expr.generic_args, tid, span)
        if isinstance(value, VInt):
            handler = INT_METHODS.get(name)
            if handler is not None:
                return handler(self, value, args, expr.generic_args, tid, span)
        if isinstance(value, VOption):
            handler = OPTION_METHODS.get(name)
            if handler is not None:
                return handler(self, value, args, expr.generic_args, tid, span)
        if isinstance(value, VThreadHandle) and name == "join":
            return method_handle_join(self, value, args, expr.generic_args,
                                      tid, span)
        if isinstance(value, VAggregate) and isinstance(value.ty, ty.TyPath) \
                and value.ty.name == "Vec":
            place = self._temp_place(value, span, tid)
            return self._dispatch_method_on_place(place, expr, args, tid)
        if isinstance(value, VStr) and name == "len":
            return VInt(len(value.value.encode("utf-8")), ty.USIZE)
        if isinstance(value, VPtr) and value.is_ref:
            # Methods on references: deref and retry on the pointee place.
            place = value.with_pointee(value.pointee, value.mutable)
            place = dataclasses.replace(place, is_ref=True,
                                        meta_len=value.meta_len)
            return self._dispatch_method_on_place(place, expr, args, tid)
        raise CompileError(
            f"no method named `{name}` found for type "
            f"`{self.type_of_value(value)}`",
            span,
        )

    def _array_method(self, place: VPtr, name: str, args: list[Value],
                      tid: int, span: Span) -> Value:
        arr_ty = place.pointee
        if name == "len":
            return VInt(arr_ty.length, ty.USIZE)
        if name == "as_ptr":
            return self.raw_ptr_to(place, arr_ty.elem, mutable=False, span=span)
        if name == "as_mut_ptr":
            return self.raw_ptr_to(place, arr_ty.elem, mutable=True, span=span)
        if name == "get":
            index = args[0].value
            if index >= arr_ty.length:
                return VOption(None, arr_ty.elem)
            elem_size = ty.size_of(arr_ty.elem, self.memory.structs)
            elem_place = VPtr(place.alloc_id, place.addr + index * elem_size,
                              place.tag, arr_ty.elem)
            return VOption(self.read_place(elem_place, tid, span), arr_ty.elem)
        raise CompileError(f"no method `{name}` on arrays", span)

    def _slice_method(self, place: VPtr, name: str, args: list[Value],
                      tid: int, span: Span) -> Value:
        slice_ty = place.pointee
        length = place.meta_len if place.meta_len is not None else 0
        if name == "len":
            return VInt(length, ty.USIZE)
        if name == "as_ptr":
            return self.raw_ptr_to(place, slice_ty.elem, mutable=False, span=span)
        if name in ("get_unchecked", "get_unchecked_mut"):
            self.require_unsafe(f"call to `slice::{name}`", span)
            index = args[0].value
            elem_size = ty.size_of(slice_ty.elem, self.memory.structs)
            elem_place = VPtr(place.alloc_id, place.addr + index * elem_size,
                              place.tag, slice_ty.elem, mutable=place.mutable)
            return self.read_place(elem_place, tid, span)
        raise CompileError(f"no method `{name}` on slices", span)

    def _atomic_method(self, place: VPtr, name: str, args: list[Value],
                       tid: int, span: Span) -> Value:
        alloc = self.memory.allocations.get(place.alloc_id)
        if alloc is None or not alloc.live:
            raise UbSignal(MiriError(
                UbKind.DANGLING_POINTER, "atomic access to freed memory", span))
        sync_id = 20_000 + alloc.id
        offset = place.addr - alloc.base_addr
        atomic_name = place.pointee.name
        size = 1 if atomic_name == "AtomicBool" else 8
        value_ty = ty.BOOL if atomic_name == "AtomicBool" else (
            ty.ISIZE if atomic_name == "AtomicI64" else ty.USIZE)

        def raw_read() -> int:
            data = bytes(alloc.data[offset : offset + size])
            return int.from_bytes(
                data, "little",
                signed=isinstance(value_ty, ty.TyInt) and value_ty.signed)

        def raw_write(number: int) -> None:
            if isinstance(value_ty, ty.TyInt):
                number = value_ty.wrap(number)
            alloc.data[offset : offset + size] = number.to_bytes(
                size, "little", signed=number < 0)
            for i in range(size):
                alloc.init[offset + i] = 1

        races = self.memory.races
        if name == "load":
            races.acquire(tid, sync_id)
            number = raw_read()
            return VBool(bool(number)) if atomic_name == "AtomicBool" \
                else VInt(number, value_ty)
        if name == "store":
            arg = args[0]
            number = int(arg.value) if isinstance(arg, (VInt, VBool)) else 0
            raw_write(number)
            races.release(tid, sync_id)
            return UNIT_VALUE
        if name in ("fetch_add", "fetch_sub", "swap"):
            races.acquire(tid, sync_id)
            old = raw_read()
            operand = int(args[0].value)
            new = {"fetch_add": old + operand, "fetch_sub": old - operand,
                   "swap": operand}[name]
            raw_write(new)
            races.release(tid, sync_id)
            return VInt(old, value_ty)
        raise CompileError(f"no atomic method `{name}`", span)

    # --- aggregate literals ------------------------------------------------

    def _eval_TupleLit(self, expr: ast.TupleLit, env: Env, tid: int) -> Value:
        if not expr.elems:
            return UNIT_VALUE
        elems = tuple(self.eval_expr(e, env, tid) for e in expr.elems)
        return self._tuple_value(elems)

    def _tuple_value(self, elems: tuple[Value, ...]) -> Value:
        tuple_ty = ty.TyTuple(tuple(self.type_of_value(e) for e in elems))
        return VAggregate(tuple_ty, elems)

    def _eval_ArrayLit(self, expr: ast.ArrayLit, env: Env, tid: int) -> Value:
        elems = tuple(self.eval_expr(e, env, tid) for e in expr.elems)
        return self._array_value(elems, expr.span)

    def _array_value(self, elems: tuple[Value, ...], span: Span) -> Value:
        if not elems:
            raise InterpUnsupported("empty array literals need annotations",
                                    span)
        elem_ty = self.type_of_value(elems[0])
        return VAggregate(ty.TyArray(elem_ty, len(elems)), elems)

    def _eval_ArrayRepeat(self, expr: ast.ArrayRepeat, env: Env, tid: int) -> Value:
        elem = self.eval_expr(expr.elem, env, tid)
        count_value = self.eval_expr(expr.count, env, tid)
        return self._repeat_value(elem, count_value)

    def _repeat_value(self, elem: Value, count_value: Value) -> Value:
        count = count_value.value if isinstance(count_value, VInt) else 0
        elem_ty = self.type_of_value(elem)
        return VAggregate(ty.TyArray(elem_ty, count), tuple([elem] * count))

    def _eval_StructLit(self, expr: ast.StructLit, env: Env, tid: int) -> Value:
        layout = self.memory.structs.get(expr.name)
        if layout is None:
            raise CompileError(f"cannot find struct `{expr.name}`", expr.span)
        provided = {name: self.eval_expr(value, env, tid)
                    for name, value in expr.fields}
        return self._struct_value(expr.name, provided, expr.span)

    def _struct_value(self, name: str, provided: dict[str, Value],
                      span: Span) -> Value:
        """Assemble a struct/union literal from evaluated fields (the
        struct's existence was already checked before field evaluation)."""
        layout = self.memory.structs[name]
        if layout.is_union:
            if len(provided) != 1:
                raise CompileError(
                    "union literals must initialise exactly one field",
                    span,
                )
            field_name, value = next(iter(provided.items()))
            if field_name not in layout.field_names:
                raise CompileError(
                    f"no field `{field_name}` on union `{name}`",
                    span,
                )
            return VUnionInit(ty.TyPath(name, ()), field_name, value)
        elems = []
        for field_name in layout.field_names:
            if field_name not in provided:
                raise CompileError(
                    f"missing field `{field_name}` in initializer of "
                    f"`{name}`",
                    span,
                )
            elems.append(provided[field_name])
        return VAggregate(ty.TyPath(name, ()), tuple(elems))

    # --- casts ---------------------------------------------------------------

    def _eval_Cast(self, expr: ast.Cast, env: Env, tid: int) -> Value:
        # `&mut x as *mut T` must retag from the place, not collapse to a ref.
        value = self.eval_expr(expr.expr, env, tid)
        return self._cast_value(value, expr.ty, expr.span)

    def _cast_value(self, value: Value, target: ty.Ty, span: Span) -> Value:
        """``as``-cast an evaluated value."""
        if isinstance(target, ty.TyInt):
            if isinstance(value, VInt):
                return VInt(target.wrap(value.value), target)
            if isinstance(value, VBool):
                return VInt(int(value.value), target)
            if isinstance(value, VChar):
                return VInt(target.wrap(ord(value.value)), target)
            if isinstance(value, VPtr):
                return VInt(target.wrap(value.addr), target)
            if isinstance(value, VFnPtr):
                return VInt(target.wrap(value.addr), target)
        if isinstance(target, ty.TyChar):
            if isinstance(value, VInt):
                return VChar(chr(value.value & 0xFF))
        if isinstance(target, ty.TyBool):
            raise CompileError("cannot cast to bool with `as`", span)
        if isinstance(target, ty.TyRawPtr):
            if isinstance(value, VInt):
                return VPtr(None, value.value, None, target.target,
                            mutable=target.mutable)
            if isinstance(value, VPtr):
                if value.is_ref or value.is_box:
                    alloc = self.memory.allocations.get(value.alloc_id)
                    if alloc is not None and alloc.live:
                        try:
                            tag = alloc.borrows.retag_raw(
                                value.tag, target.mutable, span)
                        except BorrowError as err:
                            raise UbSignal(err.error) from None
                        return VPtr(value.alloc_id, value.addr, tag,
                                    target.target, mutable=target.mutable)
                return VPtr(value.alloc_id, value.addr, value.tag,
                            target.target, mutable=target.mutable,
                            meta_len=value.meta_len)
            if isinstance(value, VFnPtr):
                return VPtr(None, value.addr, None, target.target,
                            mutable=target.mutable)
        if isinstance(target, ty.TyFn):
            if isinstance(value, VFnPtr):
                return VFnPtr(value.fn_name, value.addr, target)
            if isinstance(value, VInt):
                fn_name = self.memory.fns_by_addr.get(value.value)
                if fn_name is None:
                    raise CompileError(
                        "casting an integer to a function pointer requires "
                        "`transmute`",
                        span,
                    )
                return VFnPtr(fn_name, value.value, target)
        raise CompileError(
            f"invalid cast of {self.type_of_value(value)} to {target}", span)

    # --- control flow ----------------------------------------------------------

    def _eval_Block(self, expr: ast.Block, env: Env, tid: int) -> Value:
        return self.eval_block(expr, env, tid)

    def _eval_IfExpr(self, expr: ast.IfExpr, env: Env, tid: int) -> Value:
        cond = self.eval_expr(expr.cond, env, tid)
        if not isinstance(cond, VBool):
            raise CompileError("`if` condition must be `bool`", expr.span)
        if cond.value:
            return self.eval_block(expr.then_block, env, tid)
        if expr.else_block is not None:
            if isinstance(expr.else_block, ast.Block):
                return self.eval_block(expr.else_block, env, tid)
            return self.eval_expr(expr.else_block, env, tid)
        return UNIT_VALUE

    def _eval_WhileExpr(self, expr: ast.WhileExpr, env: Env, tid: int) -> Value:
        while True:
            self._burn(expr.span)
            cond = self.eval_expr(expr.cond, env, tid)
            if not isinstance(cond, VBool):
                raise CompileError("`while` condition must be `bool`", expr.span)
            if not cond.value:
                return UNIT_VALUE
            try:
                self.eval_block(expr.body, env, tid)
            except _Break:
                return UNIT_VALUE
            except _Continue:
                continue

    def _eval_LoopExpr(self, expr: ast.LoopExpr, env: Env, tid: int) -> Value:
        while True:
            self._burn(expr.span)
            try:
                self.eval_block(expr.body, env, tid)
            except _Break as brk:
                return brk.value
            except _Continue:
                continue

    def _eval_ForExpr(self, expr: ast.ForExpr, env: Env, tid: int) -> Value:
        iterable = self.eval_expr(expr.iterable, env, tid)
        if not isinstance(iterable, VRangeIter):
            raise InterpUnsupported(
                "`for` loops support only range iterables", expr.span)
        hi = iterable.hi + 1 if iterable.inclusive else iterable.hi
        loop_env = Env(env)
        local = self._alloc_local(expr.var, ty.USIZE
                                  if iterable.lo >= 0 else ty.I64,
                                  False, loop_env)
        for current in range(iterable.lo, hi):
            self._burn(expr.span)
            self.write_place(self._local_place(local),
                             VInt(current, local.ty), tid, expr.span)
            try:
                self.eval_block(expr.body, loop_env, tid)
            except _Break:
                return UNIT_VALUE
            except _Continue:
                continue
        return UNIT_VALUE

    def _eval_RangeExpr(self, expr: ast.RangeExpr, env: Env, tid: int) -> Value:
        lo = self.eval_expr(expr.lo, env, tid) if expr.lo is not None else VInt(0, ty.I64)
        hi = self.eval_expr(expr.hi, env, tid) if expr.hi is not None else None
        if hi is None:
            raise InterpUnsupported("unbounded ranges", expr.span)
        return self._range_value(lo, hi, expr.inclusive, expr.span)

    def _range_value(self, lo: Value, hi: Value, inclusive: bool,
                     span: Span) -> Value:
        if not isinstance(lo, VInt) or not isinstance(hi, VInt):
            raise CompileError("range bounds must be integers", span)
        return VRangeIter(lo.value, hi.value, inclusive)

    def _eval_ReturnExpr(self, expr: ast.ReturnExpr, env: Env, tid: int) -> Value:
        value = self.eval_expr(expr.value, env, tid) \
            if expr.value is not None else UNIT_VALUE
        raise _Return(value)

    def _eval_BreakExpr(self, expr: ast.BreakExpr, env: Env, tid: int) -> Value:
        value = self.eval_expr(expr.value, env, tid) \
            if expr.value is not None else UNIT_VALUE
        raise _Break(value)

    def _eval_ContinueExpr(self, expr: ast.ContinueExpr, env: Env, tid: int) -> Value:
        raise _Continue()

    # --- field/index as rvalues ---------------------------------------------

    def _eval_FieldAccess(self, expr: ast.FieldAccess, env: Env, tid: int) -> Value:
        place = self._place_field(expr, env, tid, for_write=False)
        return self.read_place(place, tid, expr.span)

    def _eval_Index(self, expr: ast.Index, env: Env, tid: int) -> Value:
        place = self._place_index(expr, env, tid, for_write=False)
        return self.read_place(place, tid, expr.span)

    # --- closures / macros -----------------------------------------------------

    def _eval_Closure(self, expr: ast.Closure, env: Env, tid: int) -> Value:
        return VClosure(list(expr.params), expr.body, env, expr.is_move)

    def _eval_MacroCall(self, expr: ast.MacroCall, env: Env, tid: int) -> Value:
        name = expr.name
        span = expr.span
        if name == "assert":
            cond = self.eval_expr(expr.args[0], env, tid)
            if not isinstance(cond, VBool):
                raise CompileError("assert! needs a bool", span)
            if not cond.value:
                message = "assertion failed"
                if len(expr.args) > 1:
                    extra = self.eval_expr(expr.args[1], env, tid)
                    if isinstance(extra, VStr):
                        message = extra.value
                raise PanicSignal(message, span)
            return UNIT_VALUE
        if name in ("assert_eq", "assert_ne"):
            left = self.eval_expr(expr.args[0], env, tid)
            right = self.eval_expr(expr.args[1], env, tid)
            equal = self._values_equal(left, right, span)
            if name == "assert_eq" and not equal:
                raise PanicSignal(
                    f"assertion `left == right` failed\n  left: {left}\n "
                    f"right: {right}",
                    span,
                )
            if name == "assert_ne" and equal:
                raise PanicSignal(
                    f"assertion `left != right` failed (both are {left})",
                    span,
                )
            return UNIT_VALUE
        if name in ("panic", "unreachable"):
            message = "explicit panic" if name == "panic" else \
                "internal error: entered unreachable code"
            if expr.args:
                first = self.eval_expr(expr.args[0], env, tid)
                if isinstance(first, VStr):
                    message = first.value
            raise PanicSignal(message, span)
        if name in ("println", "print"):
            self._do_println(expr.args, env, tid, span)
            return UNIT_VALUE
        if name == "vec":
            return self._make_vec([self.eval_expr(a, env, tid)
                                   for a in expr.args], span, tid)
        if name == "vec_repeat":
            elem = self.eval_expr(expr.args[0], env, tid)
            count = self.eval_expr(expr.args[1], env, tid)
            if not isinstance(count, VInt):
                raise CompileError("vec! repeat count must be an integer", span)
            return self._make_vec([elem] * count.value, span, tid,
                                  elem_hint=self.type_of_value(elem))
        if name == "dbg":
            value = self.eval_expr(expr.args[0], env, tid)
            self.report.stdout.append(f"[dbg] {self._display(value, tid, span)}")
            return value
        raise InterpUnsupported(f"macro `{name}!`", span)

    def _make_vec(self, elems: list[Value], span: Span, tid: int,
                  elem_hint: ty.Ty | None = None) -> Value:
        from .shims import _vec_alloc, vec_value
        if not elems:
            return vec_value(None, 0, 0, ty.TyPath("Vec", (elem_hint or ty.INFER,)))
        elem_ty = elem_hint or self.type_of_value(elems[0])
        vec_ty = ty.TyPath("Vec", (elem_ty,))
        alloc = _vec_alloc(self, elem_ty, len(elems), span)
        size = ty.size_of(elem_ty, self.memory.structs)
        for index, elem in enumerate(elems):
            slot = VPtr(alloc.id, alloc.base_addr + index * size,
                        alloc.base_tag, elem_ty, mutable=True)
            self.write_place(slot, elem, tid, span)
        data_ptr = VPtr(alloc.id, alloc.base_addr, alloc.base_tag, elem_ty,
                        mutable=True)
        return vec_value(data_ptr, len(elems), len(elems), vec_ty)

    def _do_println(self, args: list[ast.Expr], env: Env, tid: int,
                    span: Span) -> None:
        if not args:
            self.report.stdout.append("")
            return
        fmt_value = self.eval_expr(args[0], env, tid)
        if not isinstance(fmt_value, VStr):
            raise CompileError("format string must be a string literal", span)
        values = [self.eval_expr(a, env, tid) for a in args[1:]]
        rendered = self._format(fmt_value.value, values, tid, span)
        self.report.stdout.append(rendered)

    def _format(self, fmt: str, values: list[Value], tid: int,
                span: Span) -> str:
        out: list[str] = []
        index = 0
        value_index = 0
        while index < len(fmt):
            ch = fmt[index]
            if ch == "{" and index + 1 < len(fmt) and fmt[index + 1] == "{":
                out.append("{")
                index += 2
                continue
            if ch == "}" and index + 1 < len(fmt) and fmt[index + 1] == "}":
                out.append("}")
                index += 2
                continue
            if ch == "{":
                close = fmt.find("}", index)
                if close == -1:
                    raise CompileError("unterminated `{` in format string", span)
                spec = fmt[index + 1 : close]
                if value_index >= len(values):
                    raise CompileError(
                        "not enough arguments for format string", span)
                value = values[value_index]
                value_index += 1
                out.append(self._display(value, tid, span, spec))
                index = close + 1
                continue
            out.append(ch)
            index += 1
        return "".join(out)

    def _display(self, value: Value, tid: int, span: Span,
                 spec: str = "") -> str:
        if isinstance(value, VPtr) and isinstance(value.pointee, ty.TyStr):
            size = value.meta_len or 0
            data, _ = self.memory.read_bytes(value, size, 1, tid, span)
            return data.decode("utf-8", errors="replace")
        if ":x" in spec and isinstance(value, VInt):
            return format(value.value, "x")
        if ":p" in spec and isinstance(value, VPtr):
            return f"0x{value.addr:x}"
        return str(value)
