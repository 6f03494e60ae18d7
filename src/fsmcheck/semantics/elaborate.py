"""Elaboration: expand the module instance tree into a flat system.

Parameter passing is by expression aliasing: each parameter occurrence is
replaced by its argument expression resolved in the caller's scope, so all
rules end up over qualified variable names and are evaluated against the
current state only. DEFINEs are inlined into rules but also kept (flattened)
on the system for spec-atom resolution and diagnostics.
"""
from __future__ import annotations

from typing import Optional, Union

from ..lang import ast
from .system import (
    BoolDomain, Const, EnumDomain, FBinary, FCase, FChoice, FExpr,
    FUnary, IntDomain, TransitionSystem, VarDef, VarRef,
)


class ElaborationError(Exception):
    def __init__(self, message: str, span: Optional[ast.Span] = None):
        self.span = span
        if span is not None:
            message = f"{span}: {message}"
        super().__init__(message)


def elaborate(model: ast.ModelAst, source_name: str = "<model>") -> TransitionSystem:
    """Flatten a validated model into a TransitionSystem.

    Precondition: validate_model returned no errors. Raises ElaborationError
    for the residual dynamic checks (argument arity, non-constant range
    bounds, unresolved names in hand-built ASTs).
    """
    main = model.main
    if main is None:
        raise ElaborationError("no module named main")
    symbols: set[str] = set()
    for mod in model.modules:
        for v in mod.vars:
            if isinstance(v.vartype, ast.EnumType):
                symbols.update(v.vartype.symbols)

    builder = _Builder(model, symbols)
    root = builder.build_tree(main, path="")
    builder.assign_indices(root)
    builder.flatten(root)
    return TransitionSystem(
        tuple(builder.vardefs),
        defines=builder.defines,
        source_name=source_name,
    )


class _Inst:
    def __init__(self, module: ast.ModuleDecl, path: str):
        self.module = module
        self.path = path
        self.children: dict[str, "_Inst"] = {}
        self.params: dict[str, Union[tuple, "_Inst"]] = {}  # ("value", expr, owner) | alias
        self.var_index: dict[str, int] = {}
        self.define_cache: dict[str, FExpr] = {}

    def qualify(self, local: str) -> str:
        return f"{self.path}.{local}" if self.path else local


class _Builder:
    def __init__(self, model: ast.ModelAst, symbols: set[str]):
        self.model = model
        self.symbols = symbols
        self.vardefs: list[VarDef] = []
        self.defines: dict[str, FExpr] = {}
        self._order: list[tuple[_Inst, ast.VarDecl]] = []

    def build_tree(self, module: ast.ModuleDecl, path: str) -> _Inst:
        inst = _Inst(module, path)
        for decl in module.instances:
            target = self.model.module(decl.module)
            if target is None:
                raise ElaborationError(f"undeclared module {decl.module!r}", decl.span)
            if len(decl.args) != len(target.params):
                raise ElaborationError(
                    f"{decl.module} expects {len(target.params)} argument(s), "
                    f"got {len(decl.args)}",
                    decl.span,
                )
            child = self.build_tree(target, inst.qualify(decl.name))
            inst.children[decl.name] = child
        return inst

    def assign_indices(self, inst: _Inst) -> None:
        for v in inst.module.vars:
            inst.var_index[v.name] = len(self._order)
            self._order.append((inst, v))
        for decl in inst.module.instances:
            self.assign_indices(inst.children[decl.name])

    def flatten(self, root: _Inst) -> None:
        self._bind_params(root)
        # domains first (range bounds must fold to constants)
        for inst, decl in self._order:
            self.vardefs.append(VarDef(inst.qualify(decl.name), self._domain(inst, decl)))
        self._flatten_rules(root)

    def _bind_params(self, inst: _Inst) -> None:
        for decl in inst.module.instances:
            child = inst.children[decl.name]
            target = child.module
            for pname, arg in zip(target.params, decl.args):
                alias = self._alias_of(inst, arg)
                child.params[pname] = alias if alias is not None else ("value", arg, inst)
            self._bind_params(child)

    def _alias_of(self, inst: _Inst, expr: ast.Expr) -> Optional[_Inst]:
        if not isinstance(expr, ast.Name):
            return None
        cur: Optional[_Inst] = inst
        for part in expr.parts:
            if cur is None:
                return None
            nxt = cur.children.get(part)
            if nxt is None:
                bound = cur.params.get(part)
                nxt = bound if isinstance(bound, _Inst) else None
            if nxt is None:
                return None
            cur = nxt
        return cur

    def _domain(self, inst: _Inst, decl: ast.VarDecl):
        vt = decl.vartype
        if isinstance(vt, ast.BoolType):
            return BoolDomain()
        if isinstance(vt, ast.EnumType):
            return EnumDomain(vt.symbols)
        if isinstance(vt, ast.RangeType):
            lo = self._const_int(inst, vt.lo, decl)
            hi = self._const_int(inst, vt.hi, decl)
            if lo > hi:
                raise ElaborationError(
                    f"range for {inst.qualify(decl.name)!r} is empty ({lo}..{hi})", decl.span
                )
            return IntDomain(lo, hi)
        raise ElaborationError(f"unknown type for {decl.name!r}", decl.span)

    def _const_int(self, inst: _Inst, expr: ast.Expr, decl: ast.VarDecl) -> int:
        flat = self._flatten_expr(inst, expr)
        folded = _fold(flat)
        if not (isinstance(folded, Const) and isinstance(folded.value, int)
                and not isinstance(folded.value, bool)):
            raise ElaborationError(
                f"range bound of {inst.qualify(decl.name)!r} does not resolve "
                "to an integer constant",
                decl.span,
            )
        return folded.value

    def _flatten_rules(self, inst: _Inst) -> None:
        for d in inst.module.defines:
            self.defines[inst.qualify(d.name)] = self._define(inst, d.name)
        rules: dict[tuple[str, str], FExpr] = {}
        for rule in inst.module.assigns:
            rules[(rule.kind, rule.target)] = self._flatten_expr(inst, rule.expr)
        for name, idx in inst.var_index.items():
            base = self.vardefs[idx]
            self.vardefs[idx] = VarDef(
                base.name,
                base.domain,
                init=rules.get(("init", name)),
                next=rules.get(("next", name)),
            )
        for child in inst.children.values():
            self._flatten_rules(child)

    def _define(self, inst: _Inst, name: str) -> FExpr:
        cached = inst.define_cache.get(name)
        if cached is not None:
            return cached
        decl = next(d for d in inst.module.defines if d.name == name)
        inst.define_cache[name] = Const(False)  # placeholder; validator bars cycles
        flat = self._flatten_expr(inst, decl.expr)
        inst.define_cache[name] = flat
        return flat

    def _flatten_expr(self, inst: _Inst, expr: ast.Expr) -> FExpr:
        if isinstance(expr, ast.BoolLit):
            return Const(expr.value)
        if isinstance(expr, ast.IntLit):
            return Const(expr.value)
        if isinstance(expr, ast.Name):
            return self._flatten_name(inst, expr)
        if isinstance(expr, ast.Unary):
            return FUnary(expr.op, self._flatten_expr(inst, expr.operand))
        if isinstance(expr, ast.Binary):
            return FBinary(
                expr.op,
                self._flatten_expr(inst, expr.left),
                self._flatten_expr(inst, expr.right),
            )
        if isinstance(expr, ast.Case):
            arms = tuple(
                (self._flatten_expr(inst, a.guard), self._flatten_expr(inst, a.result))
                for a in expr.arms
            )
            return FCase(arms)
        if isinstance(expr, ast.SetLit):
            return FChoice(tuple(self._flatten_expr(inst, i) for i in expr.items))
        raise ElaborationError(f"unsupported expression node {type(expr).__name__}")

    def _flatten_name(self, inst: _Inst, name: ast.Name) -> FExpr:
        cur = inst
        parts = name.parts
        for i, part in enumerate(parts):
            last = i == len(parts) - 1
            if part in cur.var_index:
                if not last:
                    raise ElaborationError(f"{part!r} is not an instance", name.span)
                idx = cur.var_index[part]
                return VarRef(idx, cur.qualify(part))
            if any(d.name == part for d in cur.module.defines):
                if not last:
                    raise ElaborationError(f"{part!r} is not an instance", name.span)
                return self._define(cur, part)
            if part in cur.children:
                if last:
                    raise ElaborationError(f"instance {part!r} used as a value", name.span)
                cur = cur.children[part]
                continue
            bound = cur.params.get(part)
            if bound is not None:
                if isinstance(bound, _Inst):
                    if last:
                        raise ElaborationError(f"instance {part!r} used as a value", name.span)
                    cur = bound
                    continue
                _, arg_expr, owner = bound
                if not last:
                    raise ElaborationError(f"parameter {part!r} is not an instance", name.span)
                return self._flatten_expr(owner, arg_expr)
            if last and len(parts) == 1 and part in self.symbols:
                return Const(part)
            raise ElaborationError(f"unresolved identifier {name.text!r}", name.span)
        raise ElaborationError(f"unresolved identifier {name.text!r}", name.span)


def _fold(e: FExpr) -> FExpr:
    if isinstance(e, FUnary):
        inner = _fold(e.operand)
        if isinstance(inner, Const):
            if e.op == "-" and isinstance(inner.value, int):
                return Const(-inner.value)
            if e.op == "!" and isinstance(inner.value, bool):
                return Const(not inner.value)
        return FUnary(e.op, inner)
    if isinstance(e, FBinary):
        left, right = _fold(e.left), _fold(e.right)
        if isinstance(left, Const) and isinstance(right, Const):
            a, b = left.value, right.value
            if e.op == "+" and isinstance(a, int) and isinstance(b, int):
                return Const(a + b)
            if e.op == "-" and isinstance(a, int) and isinstance(b, int):
                return Const(a - b)
        return FBinary(e.op, left, right)
    return e
