"""Model enrichment: turn the template into a per-combination instance.

The template pins every failure axis FALSE. `instance_system` builds an
instance on the elaborated template: the injected axes get init/next rules
realizing the occurrence assumptions, and a `<var>_occurred` latch per
injected axis is appended after the template's variables, so no variable
index of the template moves:

* a failure occurs exactly once per run (a monotone has-occurred latch
  blocks re-arming) and is forced to start within its window;
* the start step is nondeterministic within [start_min, start_max] and the
  duration nondeterministic, possibly to the end of the run;
* for ordered pairs the first failure starts strictly before the second
  (windows are staggered by one step so both always fit), which realizes
  the start_A <= start_B ordering; sequential and overlapping activity are
  both reachable, including no overlap at all.

`check_injection` raises InstantiationError wherever the builder cannot
serve a task, so a batch fails before any work is dispatched.

`instantiate_model` is the independent text reference: it splices the same
rules as model text into the template's marked injection region, then
parses and validates the instance. The tests hold the flat builder equal to
it, and filed traces can be replayed from the instance text.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..lang import parse_model, validate_model
from ..semantics.system import (
    BoolDomain, Const, FBinary, FCase, FChoice, FUnary, TransitionSystem,
    VarDef, VarRef,
)
from .plan import PlannedTask
from .specs import SpecCatalog

MARK_BEGIN = "-- #injection:begin"
MARK_END = "-- #injection:end"


class InstantiationError(Exception):
    pass


@dataclass(frozen=True)
class ModelInstance:
    task: PlannedTask
    source: str
    specs: tuple[tuple[str, str], ...]       # (name, substituted formula)
    window: tuple[int, int]


def instantiate_model(
    template: str,
    task: PlannedTask,
    window: tuple[int, int],
    spec_catalog: SpecCatalog,
) -> ModelInstance:
    lo, hi = window
    if lo < 0 or lo > hi:
        raise InstantiationError(f"bad injection window [{lo}, {hi}]")
    if task.scenario == "double" and lo + 1 > hi:
        raise InstantiationError(
            f"window [{lo}, {hi}] is too small for an ordered pair"
        )
    begin = template.find(MARK_BEGIN)
    end = template.find(MARK_END)
    if begin < 0 or end < 0 or end < begin:
        raise InstantiationError("template is missing the marked injection region")
    head = template[: begin + len(MARK_BEGIN)]
    region = template[begin + len(MARK_BEGIN): end]
    tail = template[end:]

    va = task.axis_a.variable
    injected = [va]
    blocks = []
    if task.scenario == "single":
        blocks.append(_injection_block(va, lo, hi, precondition=None))
    else:
        vb = task.axis_b.variable
        injected.append(vb)
        blocks.append(_injection_block(va, lo, hi - 1, precondition=None))
        blocks.append(_injection_block(vb, lo + 1, hi, precondition=va))

    kept = _drop_pins(region, injected)
    source = head + kept + "".join(blocks) + tail
    spec_texts = spec_formulas(task, window, spec_catalog)

    model = parse_model(source)
    diags = [d for d in validate_model(model) if d.severity == "error"]
    if diags:
        raise InstantiationError(
            f"instance {task.model_id} does not validate: {diags[0]}"
        )
    known_vars = {v.name for m in model.modules for v in m.vars}
    for var in injected:
        if var not in known_vars:
            raise InstantiationError(
                f"failure variable {var!r} does not resolve in the template"
            )

    return ModelInstance(
        task=task,
        source=source,
        specs=spec_texts,
        window=window,
    )


def spec_formulas(task: PlannedTask, window: tuple[int, int],
                  spec_catalog: SpecCatalog) -> tuple[tuple[str, str], ...]:
    """(name, formula) of each spec of the task, placeholders substituted."""
    substitutions = {
        "FAIL_A": task.axis_a.variable,
        "WINDOW_LO": str(window[0]),
        "WINDOW_HI": str(window[1]),
    }
    if task.scenario == "double":
        substitutions["FAIL_B"] = task.axis_b.variable
    if task.target is not None:
        substitutions["TARGET_MODE"] = task.target
    return tuple(
        (name, spec_catalog.get(name).instantiate(substitutions))
        for name in task.specs
    )


_FALSE = Const(False)
_TRUE = Const(True)


def check_injection(
    template: TransitionSystem, task: PlannedTask, window: tuple[int, int],
) -> list[tuple[str, int, int, Optional[str]]]:
    """The injections of a task as (axis, first start, last start, the axis
    that must have started first); raises InstantiationError where
    instance_system cannot build the instance."""
    lo, hi = window
    if lo < 0 or lo > hi:
        raise InstantiationError(f"bad injection window [{lo}, {hi}]")
    va = task.axis_a.variable
    if task.scenario == "single":
        injections = [(va, lo, hi, None)]
    else:
        if lo + 1 > hi:
            raise InstantiationError(
                f"window [{lo}, {hi}] is too small for an ordered pair"
            )
        injections = [(va, lo, hi - 1, None), (task.axis_b.variable, lo + 1, hi, va)]
    if "Step" not in template.index:
        raise InstantiationError("template has no Step variable")
    for var, *_ in injections:
        v = template.var(var) if var in template.index else None
        if v is None or not isinstance(v.domain, BoolDomain) or not all(
            isinstance(rule, Const) and rule.value is False for rule in (v.init, v.next)
        ):
            raise InstantiationError(
                f"failure variable {var!r} is not a boolean template variable "
                "pinned FALSE"
            )
        latch = f"{var}_occurred"
        if latch in template.index or latch in template.defines:
            raise InstantiationError(f"latch name {latch!r} is taken in the template")
    return injections


def instance_system(
    template: TransitionSystem, task: PlannedTask, window: tuple[int, int],
) -> TransitionSystem:
    """The instance of a task, built on the elaborated template with the
    rules that _injection_block writes as text, derived from the template
    (its `base`): only the injected axes are replaced."""
    injections = check_injection(template, task, window)
    next_step = FBinary("+", VarRef(template.index["Step"], "Step"), Const(1))
    variables = list(template.variables)
    refs: dict[str, VarRef] = {}
    for var, lo, hi, pre in injections:
        axis = refs[var] = VarRef(template.index[var], var)
        latch = refs[f"{var}_occurred"] = VarRef(len(variables), f"{var}_occurred")
        armed = FUnary("!", latch)
        if pre is not None:
            armed = FBinary("&", armed, FBinary("|", refs[pre], refs[f"{pre}_occurred"]))
        start = FCase((
            (axis, FChoice((_TRUE, _FALSE))),
            (FBinary("&", FBinary("&", armed, FBinary(">=", next_step, Const(lo))),
                     FBinary("<", next_step, Const(hi))), FChoice((_FALSE, _TRUE))),
            (FBinary("&", armed, FBinary("=", next_step, Const(hi))), _TRUE),
            (_TRUE, _FALSE),
        ))
        variables[axis.index] = VarDef(var, BoolDomain(), init=_FALSE, next=start)
        variables.append(VarDef(latch.name, BoolDomain(), init=_FALSE,
                                next=FBinary("|", latch, axis)))
    return TransitionSystem(
        tuple(variables),
        defines=template.defines,
        source_name=template.source_name,
        define_types=template.define_types,
        base=template,
    )


def injection_assertions(task: PlannedTask, window: tuple[int, int],
                         bound: int) -> list[tuple[str, str]]:
    """Auxiliary soundness specs for an instance: no activation before the
    window start, no reactivation, and the ordered-pair start constraint."""
    lo, hi = window
    va = task.axis_a.variable
    out = [
        (f"no_early_{va}", f"G[0,{bound}] ({va} -> Step >= {lo})"),
        (f"no_rearm_{va}", f"G[0,{bound}] !({va} & Y (!{va} & {va}_occurred))"),
    ]
    if task.scenario == "double":
        vb = task.axis_b.variable
        out.append((f"no_early_{vb}", f"G[0,{bound}] ({vb} -> Step >= {lo + 1})"))
        out.append((f"no_rearm_{vb}", f"G[0,{bound}] !({vb} & Y (!{vb} & {vb}_occurred))"))
        out.append(
            ("ordered_start",
             f"G[0,{bound}] !({vb} & !{vb}_occurred & !({va} | {va}_occurred))")
        )
    return out


def _injection_block(var: str, lo: int, hi: int, precondition: Optional[str]) -> str:
    pre = f"({precondition} | {precondition}_occurred) & " if precondition else ""
    lines = [
        "",
        "VAR",
        f"  {var}_occurred : boolean;",
        "ASSIGN",
        f"  init({var}) := FALSE;",
        f"  next({var}) :=",
        "    case",
        f"      {var} : {{TRUE, FALSE}};",
        f"      !{var}_occurred & {pre}Step + 1 >= {lo} & Step + 1 < {hi} : {{FALSE, TRUE}};",
        f"      !{var}_occurred & {pre}Step + 1 = {hi} : TRUE;",
        "      TRUE : FALSE;",
        "    esac;",
        f"  init({var}_occurred) := FALSE;",
        f"  next({var}_occurred) := {var}_occurred | {var};",
        "",
    ]
    return "\n".join(lines)


def _drop_pins(region: str, injected: list[str]) -> str:
    """Remove the template's FALSE pins for the injected variables."""
    targets = {f"({v})" for v in injected}
    kept = []
    for line in region.splitlines():
        stripped = line.strip()
        if any(t in stripped for t in targets) and (
            stripped.startswith("init(") or stripped.startswith("next(")
        ):
            continue
        kept.append(line)
    return "\n".join(kept)
