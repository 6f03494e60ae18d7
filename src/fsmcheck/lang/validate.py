"""Static checks and flattening of parsed models, in one walk.

`bind_model` checks each module on its own (module table, names, enum
symbols, rule targets, the instantiation graph, and, in one walk over each
expression, choice positions and case defaults) and then walks the
instance tree from main once. The walk binds each instance's parameters
(an argument that names an instance is an alias for it) and resolves each
expression once, to its flat `FExpr` and its type together. It reports
what it finds as diagnostics instead of raising.

`validate_model` returns those diagnostics, and `semantics.elaborate`
returns the flat system or raises on them, so an empty error list means the
model elaborates. The system keeps each define's type next to its flat
expression.

`bind_atom` runs the same two walks, the shape check and the binding walk,
over one spec atom against a flat system: only name lookup differs, so a
spec atom is accepted or rejected by the rules, and with the diagnostics,
that govern model text.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..semantics.system import (
    BoolDomain, Const, Domain, EnumDomain, FBinary, FCase, FChoice, FExpr,
    FUnary, IntDomain, TransitionSystem, VarDef, VarRef, fold,
)
from .ast import (
    Binary, BoolLit, BoolType, Case, DefineDecl, EnumType, Expr, IntLit,
    ModelAst, ModuleDecl, Name, RangeType, SetLit, Span, Unary, VarDecl,
    VarType,
)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    code: str
    message: str
    span: Optional[Span] = None

    def __str__(self) -> str:
        where = f" at {self.span}" if self.span else ""
        return f"{self.severity}[{self.code}]{where}: {self.message}"


# Inferred expression types. Enum values carry the set of symbols the
# expression can produce when statically known (None = unknown membership).
_BOOL = ("bool", None)
_INT = ("int", None)
_ERROR = ("error", None)


def _enum(symbols: Optional[frozenset]) -> tuple:
    return ("enum", symbols)


def validate_model(ast: ModelAst) -> list[Diagnostic]:
    """The model's diagnostics; with no error among them, it elaborates."""
    return bind_model(ast)[0]


def bind_model(
    ast: ModelAst, source_name: str = "<model>",
) -> tuple[list[Diagnostic], Optional[TransitionSystem]]:
    """The model's diagnostics, and its flat system if none is an error."""
    v = _Validator(ast)
    ts = v.run(source_name)
    # Instantiating a module twice re-checks it under each binding; drop
    # exact repeats so one syntactic defect reports once per context only.
    seen = set()
    out = []
    for d in v.diags:
        key = (d.code, d.message, d.span)
        if key not in seen:
            seen.add(key)
            out.append(d)
    return out, ts


class _Validator:
    def __init__(self, ast: ModelAst):
        self.ast = ast
        self.diags: list[Diagnostic] = []
        self.modules: dict[str, ModuleDecl] = {}
        self.symbols: set[str] = set()
        self.scopes: list[_Scope] = []  # every instance, in pre-order
        self.n_vars = 0
        self.active: set[tuple] = set()  # defines being resolved

    def error(self, code: str, message: str, span: Optional[Span] = None) -> None:
        self.diags.append(Diagnostic("error", code, message, span))

    def run(self, source_name: str) -> Optional[TransitionSystem]:
        self._check_module_table()
        for mod in self.ast.modules:
            self._check_module_locals(mod)
        main = self.ast.main
        if not self._check_instance_graph() or main is None:
            return None
        if main.params:
            self.error("main-params", "module main must have no parameters", main.span)
        self._bind(self._scope(main, ""))
        if any(d.severity == "error" for d in self.diags):
            return None
        variables, defines, types = [], {}, {}
        for scope in self.scopes:
            for v in scope.module.vars:
                variables.append(VarDef(
                    scope.qualify(v.name), scope.domains[v.name],
                    init=scope.rules.get(("init", v.name)),
                    next=scope.rules.get(("next", v.name)),
                ))
            for d in scope.module.defines:
                name = scope.qualify(d.name)
                defines[name], types[name] = scope.resolved[d.name]
        return TransitionSystem(tuple(variables), defines=defines,
                                source_name=source_name, define_types=types)

    # -- module table and per-module syntactic checks --------------------

    def _check_module_table(self) -> None:
        mains = 0
        for mod in self.ast.modules:
            if mod.name in self.modules:
                code = "duplicate-main" if mod.name == "main" else "duplicate-module"
                self.error(code, f"duplicate module {mod.name!r}", mod.span)
            else:
                self.modules[mod.name] = mod
            if mod.name == "main":
                mains += 1
            for v in mod.vars:
                if isinstance(v.vartype, EnumType):
                    self.symbols.update(v.vartype.symbols)
        if mains == 0:
            self.error("missing-main", "no module named main")

    def _check_module_locals(self, mod: ModuleDecl) -> None:
        names: dict[str, str] = {}
        for p in mod.params:
            if p in names:
                self.error("duplicate-name", f"duplicate parameter {p!r} in {mod.name}", mod.span)
            names[p] = "param"
        for v in mod.vars:
            if v.name in names:
                self.error("duplicate-name", f"duplicate name {v.name!r} in {mod.name}", v.span)
            names[v.name] = "var"
            if isinstance(v.vartype, EnumType):
                if len(set(v.vartype.symbols)) != len(v.vartype.symbols):
                    self.error("enum-dup-symbol", f"enum for {v.name!r} repeats a symbol", v.span)
                if len(v.vartype.symbols) < 2:
                    self.error("enum-too-small", f"enum for {v.name!r} needs at least 2 symbols", v.span)
        for inst in mod.instances:
            if inst.name in names:
                self.error("duplicate-name", f"duplicate name {inst.name!r} in {mod.name}", inst.span)
            names[inst.name] = "instance"
        for d in mod.defines:
            if d.name in names:
                self.error("duplicate-name", f"duplicate name {d.name!r} in {mod.name}", d.span)
            names[d.name] = "define"

        var_names = {v.name for v in mod.vars}
        rules_seen: set[tuple[str, str]] = set()
        for rule in mod.assigns:
            if rule.target not in var_names:
                self.error(
                    "assign-target",
                    f"{rule.kind}() target {rule.target!r} is not a declared variable of {mod.name}",
                    rule.span,
                )
            key = (rule.kind, rule.target)
            if key in rules_seen:
                self.error(
                    "duplicate-rule",
                    f"variable {rule.target!r} has more than one {rule.kind} rule",
                    rule.span,
                )
            rules_seen.add(key)
            self._check_shape(rule.expr, choice_ok=True)
        for d in mod.defines:
            self._check_shape(d.expr)
        for inst in mod.instances:
            for a in inst.args:
                self._check_shape(a)

    def _check_shape(self, expr: Expr, choice_ok: bool = False) -> None:
        """A case must end in a literal TRUE default arm. Set literals may
        appear only as a rule's right side (choice_ok) or as case arm
        results within one; their items must be choice-free values."""
        if isinstance(expr, SetLit):
            if not choice_ok:
                self.error(
                    "choice-position",
                    "set literal is only allowed as the right side of an init/next rule",
                    expr.span,
                )
            for item in expr.items:
                self._check_shape(item)
        elif isinstance(expr, Case):
            last = expr.arms[-1]
            if not (isinstance(last.guard, BoolLit) and last.guard.value):
                self.error(
                    "case-default",
                    "case expression must end in a literal TRUE default arm",
                    expr.span,
                )
            for arm in expr.arms:
                self._check_shape(arm.guard)
                self._check_shape(arm.result, choice_ok)
        elif isinstance(expr, Unary):
            self._check_shape(expr.operand)
        elif isinstance(expr, Binary):
            self._check_shape(expr.left)
            self._check_shape(expr.right)

    # -- instance graph ---------------------------------------------------

    def _check_instance_graph(self) -> bool:
        ok = True
        for mod in self.ast.modules:
            for inst in mod.instances:
                target = self.modules.get(inst.module)
                if target is None:
                    self.error(
                        "unresolved-module",
                        f"instantiation of undeclared module {inst.module!r}",
                        inst.span,
                    )
                    ok = False
                elif len(inst.args) != len(target.params):
                    self.error(
                        "arity",
                        f"{inst.module} expects {len(target.params)} argument(s), got {len(inst.args)}",
                        inst.span,
                    )
        # cycle detection over the module instantiation graph
        color: dict[str, int] = {}

        def visit(name: str) -> bool:
            state = color.get(name, 0)
            if state == 1:
                return False
            if state == 2:
                return True
            color[name] = 1
            mod = self.modules.get(name)
            acyclic = True
            if mod is not None:
                for inst in mod.instances:
                    if inst.module in self.modules and not visit(inst.module):
                        acyclic = False
            color[name] = 2
            return acyclic

        for name in self.modules:
            if not visit(name):
                self.error("instantiation-cycle", f"recursive instantiation through {name!r}")
                return False
        return ok

    # -- binding walk ------------------------------------------------------

    def _scope(self, module: ModuleDecl, path: str) -> "_Scope":
        """The instance tree under module; variables are numbered in
        pre-order, which is the order of the flat system."""
        scope = _Scope(module, path)
        self.scopes.append(scope)
        for v in module.vars:
            scope.vars[v.name] = (self.n_vars, v.vartype)
            self.n_vars += 1
        for inst in module.instances:
            target = self.modules.get(inst.module)
            if target is not None and len(inst.args) == len(target.params):
                scope.children[inst.name] = self._scope(target, scope.qualify(inst.name))
        return scope

    def _bind(self, scope: "_Scope") -> None:
        for inst in scope.module.instances:
            child = scope.children.get(inst.name)
            if child is None:
                continue
            for pname, arg in zip(child.module.params, inst.args):
                alias = self._name(scope, arg, alias=True) if isinstance(arg, Name) else None
                child.params[pname] = alias if alias is not None else (arg, scope)
            self._bind(child)
        for d in scope.module.defines:
            self._define(scope, d)
        for rule in scope.module.assigns:
            var = scope.vars.get(rule.target)
            if var is None:
                continue
            flat, t = self._expr(scope, rule.expr)
            self._check_assign_compat(rule.target, var[1], t, rule.span)
            scope.rules[(rule.kind, rule.target)] = flat
        for v in scope.module.vars:
            scope.domains[v.name] = self._domain(scope, v)

    def _domain(self, scope: "_Scope", decl: VarDecl) -> Optional[Domain]:
        vt = decl.vartype
        if isinstance(vt, BoolType):
            return BoolDomain()
        if isinstance(vt, EnumType):
            return EnumDomain(vt.symbols)
        qualified = scope.qualify(decl.name)
        bounds = []
        for bound in (vt.lo, vt.hi):
            flat, t = self._expr(scope, bound)
            if t[0] not in ("int", "error"):
                self.error(
                    "range-bound-type",
                    f"range bound of {decl.name!r} must be an integer expression",
                    decl.span,
                )
            if t[0] == "error":
                continue
            value = fold(flat)
            if isinstance(value, Const) and type(value.value) is int:
                bounds.append(value.value)
            else:
                self.error(
                    "range-bound-const",
                    f"range bound of {qualified!r} does not resolve to an integer constant",
                    decl.span,
                )
        if len(bounds) < 2:
            return None
        lo, hi = bounds
        if lo > hi:
            self.error("range-empty", f"range for {qualified!r} is empty ({lo}..{hi})", decl.span)
            return None
        return IntDomain(lo, hi)

    def _define(self, scope: "_Scope", d: DefineDecl) -> tuple:
        done = scope.resolved.get(d.name)
        if done is not None:
            return done
        key = (scope, d.name)
        if key in self.active:
            self.error("define-cycle", f"combinational cycle through define {d.name!r}", d.span)
            scope.resolved[d.name] = _FAILED
            return _FAILED
        self.active.add(key)
        out = scope.resolved[d.name] = self._expr(scope, d.expr)
        self.active.discard(key)
        return out

    def _check_assign_compat(self, name: str, vt: VarType, rhs: tuple, span) -> None:
        kind = rhs[0]
        if kind == "error":
            return
        if isinstance(vt, BoolType) and kind != "bool":
            self.error("assign-type", f"rule for boolean {name!r} produces {kind}", span)
        elif isinstance(vt, RangeType) and kind != "int":
            self.error("assign-type", f"rule for integer {name!r} produces {kind}", span)
        elif isinstance(vt, EnumType):
            if kind != "enum":
                self.error("assign-type", f"rule for enum {name!r} produces {kind}", span)
            elif rhs[1] is not None:
                extra = rhs[1] - set(vt.symbols)
                if extra:
                    self.error(
                        "assign-type",
                        f"rule for {name!r} may produce symbol(s) outside its domain: "
                        + ", ".join(sorted(extra)),
                        span,
                    )

    def _join(self, ts: list[tuple], span) -> tuple:
        kinds = {t[0] for t in ts if t[0] != "error"}
        if not kinds:
            return _ERROR
        if len(kinds) > 1:
            self.error("type-mix", f"mixed result types {sorted(kinds)}", span)
            return _ERROR
        kind = kinds.pop()
        if kind == "enum":
            syms = set()
            for t in ts:
                if t[0] == "enum":
                    if t[1] is None:
                        return _enum(None)
                    syms |= t[1]
            return _enum(frozenset(syms))
        return (kind, None)

    def _guard(self, scope: "_Scope", expr: Expr) -> FExpr:
        flat, t = self._expr(scope, expr)
        if t[0] not in ("bool", "error"):
            self.error("guard-type", "guard must be boolean", _span_of(expr))
        return flat

    def _expr(self, scope: "_Scope", expr: Expr) -> tuple[FExpr, tuple]:
        """expr resolved in scope: its flat expression and its type."""
        if isinstance(expr, BoolLit):
            return Const(expr.value), _BOOL
        if isinstance(expr, IntLit):
            return Const(expr.value), _INT
        if isinstance(expr, Name):
            return self._name(scope, expr)
        if isinstance(expr, Unary):
            operand, t = self._expr(scope, expr.operand)
            want = "bool" if expr.op == "!" else "int"
            if t[0] not in (want, "error"):
                self.error("op-type", f"operator {expr.op!r} needs {want}, got {t[0]}", expr.span)
                return _FAILED
            return FUnary(expr.op, operand), (_BOOL if want == "bool" else _INT)
        if isinstance(expr, Binary):
            left, lt = self._expr(scope, expr.left)
            right, rt = self._expr(scope, expr.right)
            return FBinary(expr.op, left, right), self._type_binary(expr, lt, rt)
        if isinstance(expr, Case):
            guards = [self._guard(scope, arm.guard) for arm in expr.arms]
            results = [self._expr(scope, arm.result) for arm in expr.arms]
            arms = tuple((g, flat) for g, (flat, _) in zip(guards, results))
            return FCase(arms), self._join([t for _, t in results], expr.span)
        if isinstance(expr, SetLit):
            # position errors are reported by _check_shape
            items = [self._expr(scope, item) for item in expr.items]
            return FChoice(tuple(flat for flat, _ in items)), self._join([t for _, t in items], expr.span)
        raise TypeError(f"unknown expression node {expr!r}")

    def _type_binary(self, expr: Binary, lt: tuple, rt: tuple) -> tuple:
        op = expr.op
        if op in ("&", "|", "->"):
            for t, side in ((lt, expr.left), (rt, expr.right)):
                if t[0] not in ("bool", "error"):
                    self.error("op-type", f"operator {op!r} needs boolean operands", _span_of(side))
            return _BOOL
        if op in ("+", "-"):
            for t, side in ((lt, expr.left), (rt, expr.right)):
                if t[0] not in ("int", "error"):
                    self.error("op-type", f"operator {op!r} needs integer operands", _span_of(side))
            return _INT
        if op in ("<", "<=", ">", ">="):
            for t, side in ((lt, expr.left), (rt, expr.right)):
                if t[0] not in ("int", "error"):
                    self.error("op-type", f"comparison {op!r} needs integer operands", _span_of(side))
            return _BOOL
        # = and != : operands must share a kind; enum/symbol membership checked
        if lt[0] == "error" or rt[0] == "error":
            return _BOOL
        if lt[0] != rt[0]:
            self.error("cmp-type", f"cannot compare {lt[0]} with {rt[0]}", expr.span)
            return _BOOL
        if lt[0] == "enum" and lt[1] is not None and rt[1] is not None:
            if not (lt[1] & rt[1]):
                self.error("cmp-type", "enum comparison can never hold (disjoint symbols)", expr.span)
        return _BOOL

    def _name(self, scope: "_Scope", name: Name, alias: bool = False):
        """Resolve a plain or dotted name in scope, to (flat, type). With
        alias=True, return the instance the name denotes, or None (and
        report nothing) if it denotes none."""
        cur = scope
        for i, part in enumerate(name.parts):
            last = i == len(name.parts) - 1
            kind, found = cur.lookup(part)
            if kind == "instance":
                if not last:
                    cur = found
                    continue
                if alias:
                    return found
                self.error("instance-value", f"instance {part!r} used as a value", name.span)
                return _FAILED
            if alias:
                return None
            if kind is None:
                if last and len(name.parts) == 1 and part in self.symbols:
                    return Const(part), _enum(frozenset([part]))
                self.error("unresolved", f"unresolved identifier {name.text!r}", name.span)
                return _FAILED
            if not last:
                what = {
                    "var": f"{part!r} is a variable,",
                    "define": f"{part!r} is a define,",
                    "param": f"parameter {part!r} is",
                }[kind]
                self.error("not-instance", f"{what} not an instance", name.span)
                return _FAILED
            if kind == "var":
                index, vartype = found
                return VarRef(index, cur.qualify(part)), _type_of_var(vartype)
            if kind == "define":
                return self._define(cur, found)
            arg, owner = found
            return self._expr(owner, arg)


def bind_atom(ts: TransitionSystem, expr: Expr) -> tuple[FExpr, str, list[Diagnostic]]:
    """A spec atom resolved against a flat system: its flat expression, its
    kind ('bool', 'int', 'enum' or 'error') and its diagnostics, by the rules
    that type model text. A name is a variable of ts, else one of its
    defines, else one of its enum symbols."""
    b = _AtomBinder(ts)
    b._check_shape(expr)
    flat, t = b._expr(None, expr)
    return flat, t[0], b.diags


class _AtomBinder(_Validator):
    """The binding walk over a flat system: only name lookup differs."""

    def __init__(self, ts: TransitionSystem):
        # the walk over one expression needs none of the module state
        self.ts = ts
        self.diags: list[Diagnostic] = []

    def _name(self, scope, name: Name, alias: bool = False):
        qname = name.text
        index = self.ts.index.get(qname)
        if index is not None:
            return VarRef(index, qname), _type_of_domain(self.ts.variables[index].domain)
        if qname in self.ts.defines:
            return self.ts.defines[qname], self.ts.define_types[qname]
        if len(name.parts) == 1 and qname in self.ts.symbol_universe():
            return Const(qname), _enum(frozenset([qname]))
        self.error("unresolved", f"unresolved identifier {qname!r}", name.span)
        return _FAILED


# What an expression that did not resolve stands for; a model with any error
# diagnostic gets no system, so the placeholder never reaches one.
_FAILED = (Const(False), _ERROR)


def _type_of_var(vt: VarType) -> tuple:
    if isinstance(vt, BoolType):
        return _BOOL
    if isinstance(vt, RangeType):
        return _INT
    if isinstance(vt, EnumType):
        return _enum(frozenset(vt.symbols))
    return _ERROR


def _type_of_domain(domain: Domain) -> tuple:
    if isinstance(domain, IntDomain):
        return _INT
    if isinstance(domain, EnumDomain):
        return _enum(frozenset(domain.symbols))
    return _BOOL


def _span_of(expr: Expr) -> Optional[Span]:
    return getattr(expr, "span", None)


class _Scope:
    """One instance of a module, and what the walk resolved in it."""

    def __init__(self, module: ModuleDecl, path: str):
        self.module = module
        self.path = path
        self.vars: dict[str, tuple[int, VarType]] = {}  # name -> (flat index, type)
        self.defines = {d.name: d for d in module.defines}
        self.children: dict[str, _Scope] = {}
        # parameter -> the instance it aliases, or (argument, caller scope)
        self.params: dict[str, Union[_Scope, tuple[Expr, _Scope]]] = {}
        self.resolved: dict[str, tuple[FExpr, tuple]] = {}  # define -> (flat, type)
        self.rules: dict[tuple[str, str], FExpr] = {}
        self.domains: dict[str, Optional[Domain]] = {}

    def qualify(self, local: str) -> str:
        return f"{self.path}.{local}" if self.path else local

    def lookup(self, name: str) -> tuple[Optional[str], object]:
        if name in self.vars:
            return "var", self.vars[name]
        if name in self.defines:
            return "define", self.defines[name]
        if name in self.children:
            return "instance", self.children[name]
        bound = self.params.get(name)
        if bound is None:
            return None, None
        return ("instance" if isinstance(bound, _Scope) else "param"), bound
