"""Shared test utilities: fixture loading and seeded random generators."""
from __future__ import annotations

import random
from pathlib import Path

from fsmcheck.checker import core
from fsmcheck.checker.core import (
    BOT, TOP, Counterexample, ModelError, NoCounterexampleWithinBound, Poison, TimeoutBudget,
)
from fsmcheck.lang import ast
from fsmcheck.lang.lexer import _PUNCT, KEYWORDS, ParseError, Token
from fsmcheck.semantics import IntDomain, State, Trace, first_choice
from fsmcheck.semantics.exec import ModelStepError, eval_fexpr

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def eval_expr(e, s):
    """The value of a choice-free flat expression on a state."""
    return eval_fexpr(e, s.values)


def as_dict(s) -> dict:
    """A state as a map from each variable's name to its value."""
    return {v.name: s.values[i] for i, v in enumerate(s.system.variables)}


def scripted_chooser(script: dict, default=first_choice):
    """A chooser for `simulate` that resolves the listed (step, var)
    decisions from script and the rest with default.

    Step 0 chooses initial values; step t>0 chooses the value entering state t.
    """

    def choose(step: int, var: str, candidates: tuple):
        key = (step, var)
        if key in script:
            value = script[key]
            if value not in candidates:
                raise ValueError(
                    f"scripted value {value!r} for {var!r} at step {step} "
                    f"is not among candidates {candidates!r}"
                )
            return value
        return default(step, var, candidates)

    return choose


# --- random AST generation (round-trip property tests) -------------------

_IDENT_POOL = ["alpha", "beta", "gamma", "delta", "mode", "timer", "sig", "flag"]


def random_expr(rng: random.Random, names: list[str], depth: int = 3) -> ast.Expr:
    if depth <= 0 or rng.random() < 0.3:
        pick = rng.randrange(4)
        if pick == 0:
            return ast.BoolLit(rng.random() < 0.5)
        if pick == 1:
            return ast.IntLit(rng.randrange(-5, 20))
        if pick == 2:
            return ast.Name((rng.choice(names),))
        return ast.Name((rng.choice(names), rng.choice(names)))
    pick = rng.randrange(8)
    if pick == 0:
        return ast.Unary("!", random_expr(rng, names, depth - 1))
    if pick == 1:
        # parse canonicalizes -<int literal>, so keep the operand symbolic
        return ast.Unary("-", ast.Name((rng.choice(names),)))
    if pick < 6:
        op = rng.choice(["&", "|", "->", "=", "!=", "<", "<=", ">", ">=", "+", "-"])
        return ast.Binary(
            op,
            random_expr(rng, names, depth - 1),
            random_expr(rng, names, depth - 1),
        )
    arms = tuple(
        ast.CaseArm(random_expr(rng, names, depth - 1), random_expr(rng, names, depth - 1))
        for _ in range(rng.randrange(1, 4))
    ) + (ast.CaseArm(ast.BoolLit(True), random_expr(rng, names, depth - 1)),)
    return ast.Case(arms)


def random_rule_expr(rng: random.Random, names: list[str]) -> ast.Expr:
    if rng.random() < 0.3:
        items = tuple(random_expr(rng, names, 1) for _ in range(rng.randrange(2, 4)))
        return ast.SetLit(items)
    return random_expr(rng, names, 3)


def random_module(rng: random.Random, name: str, module_names: list[str]) -> ast.ModuleDecl:
    params = tuple(f"p{i}" for i in range(rng.randrange(0, 3)))
    names = list(_IDENT_POOL)
    n_vars = rng.randrange(1, 4)
    vars_ = []
    for i in range(n_vars):
        vname = f"v{i}"
        kind = rng.randrange(3)
        if kind == 0:
            vt = ast.BoolType()
        elif kind == 1:
            vt = ast.EnumType(tuple(rng.sample(["Aa", "Bb", "Cc", "Dd"], rng.randrange(2, 4))))
        else:
            vt = ast.RangeType(ast.IntLit(0), ast.IntLit(rng.randrange(1, 9)))
        vars_.append(ast.VarDecl(vname, vt))
        names.append(vname)
    instances = []
    if module_names and rng.random() < 0.5:
        target = rng.choice(module_names)
        args = tuple(random_expr(rng, names, 1) for _ in range(rng.randrange(0, 3)))
        instances.append(ast.InstanceDecl("sub", target, args))
    defines = []
    for i in range(rng.randrange(0, 3)):
        defines.append(ast.DefineDecl(f"d{i}", random_expr(rng, names, 2)))
    assigns = []
    for v in vars_:
        if rng.random() < 0.8:
            assigns.append(ast.AssignRule("init", v.name, random_rule_expr(rng, names)))
        if rng.random() < 0.8:
            assigns.append(ast.AssignRule("next", v.name, random_rule_expr(rng, names)))
    return ast.ModuleDecl(
        name, params, vars=tuple(vars_), instances=tuple(instances),
        defines=tuple(defines), assigns=tuple(assigns),
    )


def random_model(rng: random.Random) -> ast.ModelAst:
    others = [f"M_{i}" for i in range(rng.randrange(0, 3))]
    modules = [random_module(rng, n, []) for n in others]
    modules.append(random_module(rng, "main", others))
    return ast.ModelAst(tuple(modules))


# --- random checking workloads (oracle-equivalence suites) -----------------


def random_bool_expr(rng: random.Random, names: list[str], depth: int) -> str:
    if depth <= 0 or rng.random() < 0.35:
        name = rng.choice(names)
        return name if rng.random() < 0.7 else f"!{name}"
    op = rng.choice(["&", "|", "->"])
    return (
        f"({random_bool_expr(rng, names, depth - 1)} {op} "
        f"{random_bool_expr(rng, names, depth - 1)})"
    )


def random_bool_model(rng: random.Random, n_vars: int, n_nondet: int) -> str:
    """Boolean model source with bounded nondeterminism so full path
    enumeration stays feasible for the brute-force oracle."""
    names = [f"v{i}" for i in range(n_vars)]
    nondet = set(rng.sample(range(n_vars), min(n_nondet, n_vars)))
    lines = ["MODULE main", "VAR"]
    for n in names:
        lines.append(f"  {n} : boolean;")
    lines.append("ASSIGN")
    for i, n in enumerate(names):
        if rng.random() < 0.85:
            lines.append(f"  init({n}) := {rng.choice(['TRUE', 'FALSE'])};")
        if i in nondet:
            style = rng.randrange(3)
            if style == 0:
                pass  # free: no next rule
            elif style == 1:
                lines.append(f"  next({n}) := {{TRUE, FALSE}};")
            else:
                guard = random_bool_expr(rng, names, 1)
                lines.append(
                    f"  next({n}) := case {guard} : {{TRUE, FALSE}}; TRUE : {n}; esac;"
                )
        else:
            lines.append(f"  next({n}) := {random_bool_expr(rng, names, 2)};")
    return "\n".join(lines) + "\n"


def random_future_formula(rng: random.Random, names: list[str], depth: int) -> str:
    if depth <= 0 or rng.random() < 0.3:
        return random_bool_expr(rng, names, 1)
    pick = rng.randrange(10)
    sub = random_future_formula(rng, names, depth - 1)
    if pick == 0:
        return f"X ({sub})"
    if pick == 1:
        return f"!({sub})"
    if pick == 2:
        lo = rng.randrange(0, 3)
        return f"F[{lo},{lo + rng.randrange(0, 4)}] ({sub})"
    if pick == 3:
        lo = rng.randrange(0, 3)
        return f"G[{lo},{lo + rng.randrange(0, 4)}] ({sub})"
    if pick == 8:
        return f"F ({sub})"
    if pick == 9:
        return f"G ({sub})"
    other = random_future_formula(rng, names, depth - 1)
    if pick == 4:
        return f"({sub}) U ({other})"
    if pick == 5:
        return f"({sub}) R ({other})"
    op = rng.choice(["&", "|", "->"])
    return f"({sub}) {op} ({other})"


def random_past_formula(rng: random.Random, names: list[str], depth: int) -> str:
    """Formulas mixing O/Y/H (over state bodies) with future structure."""
    body = random_bool_expr(rng, names, 1)
    past = body
    for _ in range(rng.randrange(1, depth + 1)):
        past = f"{rng.choice(['O', 'Y', 'H'])} ({past})"
    shell = rng.randrange(4)
    if shell == 0:
        return past
    if shell == 1:
        return f"G[0,{rng.randrange(2, 8)}] !({past})"
    if shell == 2:
        other = random_bool_expr(rng, names, 1)
        return f"({past}) & X ({other})"
    second = f"{rng.choice(['O', 'H'])} ({random_bool_expr(rng, names, 1)})"
    return f"!(({past}) & ({second}))"


def random_int_model(rng: random.Random, counter: bool = False) -> str:
    """Model source with small int-range variables whose next rules can leave
    their range, sometimes inside a {...} choice, plus free booleans. At most
    two ints and one boolean keep path enumeration small for the oracle.

    With counter, a step counter t is declared among them: it starts at a
    constant and counts up to its top, where it stays or wraps to 0. Some
    int rules and the boolean's rule are guarded by it, as the injection
    window guards of an instance are, and int_model_atoms reads it."""
    n_ints = rng.randrange(1, 3)
    n_bools = rng.randrange(0, 2)
    ints = [f"n{i}" for i in range(n_ints)]
    his = [rng.randrange(1, 4) for _ in ints]
    decls = [f"  {n} : 0..{hi};" for n, hi in zip(ints, his)]
    decls += [f"  b{j} : boolean;" for j in range(n_bools)]
    rules = []
    for n, hi in zip(ints, his):
        pick = rng.randrange(3)
        if pick == 0:
            rules.append(f"  init({n}) := {rng.randrange(0, hi + 1)};")
        elif pick == 1:
            rules.append(f"  init({n}) := {{0, {hi}}};")
        other = rng.choice(ints)
        step = rng.choice([f"{other} + 1", f"{n} - 1", f"{n} + {other}"])
        options = [
            step,
            f"{{{step}, 0}}",
            f"{{{n}, {step}}}",
            f"case {n} >= {hi} : 0; TRUE : {n} + 1; esac",
        ]
        if n_bools:
            options.append(f"case b{rng.randrange(n_bools)} : {step}; TRUE : {n}; esac")
        if counter and rng.random() < 0.7:
            c = rng.randrange(0, 5)
            options = [
                f"case t >= {c} : {step}; TRUE : {n}; esac",
                f"case t + 1 = {c} : {{{n}, {step}}}; {n} < t : {n} + 1; TRUE : {n}; esac",
                f"case t < {c} & {n} = 0 : {{0, 1}}; TRUE : {n}; esac",
            ]
        rules.append(f"  next({n}) := {rng.choice(options)};")
    if counter:
        top = rng.randrange(1, 6)
        end = rng.choice(["t", "0"])
        decls.insert(rng.randrange(len(decls) + 1), f"  t : 0..{top};")
        rules.append(f"  init(t) := {rng.randrange(0, top + 1)};")
        rules.append(f"  next(t) := case t = {top} : {end}; TRUE : t + 1; esac;")
        if n_bools and rng.random() < 0.7:
            lo = rng.randrange(0, top + 1)
            rules.append(f"  next(b0) := case b0 : {{TRUE, FALSE}}; "
                         f"t + 1 >= {lo} & t < {top} : {{FALSE, TRUE}}; TRUE : FALSE; esac;")
    return "\n".join(["MODULE main", "VAR", *decls, "ASSIGN", *rules]) + "\n"


def random_merging_model(rng: random.Random) -> str:
    """Model source with one small int variable whose next value is chosen
    from a random set that depends on its value. So a state often has
    several parents at one depth, and a formula over it can hold on the
    path through the first parent and fail through a later one."""
    hi = rng.randrange(2, 5)

    def choice() -> str:
        values = rng.sample(range(hi + 1), rng.randrange(1, 4))
        return str(values[0]) if len(values) == 1 else "{" + ", ".join(map(str, values)) + "}"

    arms = " ".join(f"n = {v} : {choice()};" for v in range(hi))
    return (f"MODULE main\nVAR\n  n : 0..{hi};\nASSIGN\n  init(n) := {choice()};\n"
            f"  next(n) := case {arms} TRUE : {choice()}; esac;\n")


def int_model_atoms(ts) -> list[str]:
    """Atoms `(n < c)` over the int variables of a system, and its booleans."""
    atoms = []
    for v in ts.variables:
        if isinstance(v.domain, IntDomain):
            atoms.extend(f"({v.name} < {c})" for c in range(v.domain.lo + 1, v.domain.hi + 1))
        else:
            atoms.append(v.name)
    return atoms


def random_constant_model(rng: random.Random) -> tuple[str, set[str], set[str]]:
    """Model source mixing sequential constants with variables that only
    look constant, declared in a shuffled order. Returns the source, the
    variables that are sequential constants by construction, and some that
    are not.

    Pinned: an int k and a boolean c (next is the init literal or the
    variable itself) and a pair p, q that keep each other constant. Not
    pinned: r, which a free input b can set; s, which r can set; a, whose
    init reads k; and sometimes x, whose constant init lies outside its
    domain. n, whose rule can leave its range only through k, is pinned for
    some values of k.
    """
    k = rng.randrange(0, 4)
    c = rng.choice(["TRUE", "FALSE"])
    pq = rng.choice(["TRUE", "FALSE"])
    decls = ["k : 0..3;", "c : boolean;", "p : boolean;", "q : boolean;",
             "r : boolean;", "s : boolean;", "b : boolean;", "a : 0..3;", "n : 0..1;"]
    rules = [
        f"init(k) := {k};", f"next(k) := {rng.choice(['k', str(k)])};",
        f"init(c) := {c};", f"next(c) := {rng.choice(['c', c])};",
        f"init(p) := {pq};", "next(p) := q;",
        f"init(q) := {pq};", "next(q) := p;",
        "init(r) := FALSE;",
        f"next(r) := {rng.choice(['r | b', 'case b : TRUE; TRUE : r; esac'])};",
        "init(s) := FALSE;", "next(s) := s | r;",
        f"init(a) := {rng.choice(['{k, 0}', '{0, k}', 'case c : {k, 3}; TRUE : {k, 0}; esac'])};",
        f"next(a) := {rng.choice(['a', '{a, k}', 'a + k', 'case c : k; TRUE : a; esac'])};",
        f"init(n) := {rng.choice(['0', '{0, 1}'])};",
        f"next(n) := {rng.choice(['n + k', '{n, k - 2}', 'case b : n + k; TRUE : n; esac'])};",
    ]
    unpinned = {"r", "s", "a"}
    if rng.random() < 0.1:
        decls.append("x : 0..2;")
        rules += ["init(x) := 3;", "next(x) := x;"]
        unpinned.add("x")
    rng.shuffle(decls)
    rng.shuffle(rules)
    # a before k and b: a's init reads k, so a branches after b; in the
    # slice a reads no variable, and would branch before b if let
    slots = sorted(decls.index(d) for d in ("a : 0..3;", "k : 0..3;", "b : boolean;"))
    decls[slots[0]] = "a : 0..3;"
    decls[slots[1]], decls[slots[2]] = rng.sample(["k : 0..3;", "b : boolean;"], 2)
    lines = ["MODULE main", "VAR"] + [f"  {d}" for d in decls] + ["ASSIGN"]
    lines += [f"  {r}" for r in rules]
    return "\n".join(lines) + "\n", {"k", "c", "p", "q"}, unpinned


# --- a reference tokenizer ----------------------------------------------------


def per_character_tokenize(text: str) -> list[Token]:
    """The tokens of text by a loop over its characters, classified by the
    str predicates: the reference that `lexer.tokenize`'s regular expression
    must match, token for token and error for error."""
    tokens: list[Token] = []
    pos = 0
    line = 1
    col = 1
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch == "\n":
            pos += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            pos += 1
            col += 1
            continue
        if ch == "-" and pos + 1 < n and text[pos + 1] == "-":
            while pos < n and text[pos] != "\n":
                pos += 1
            continue
        if ch.isdigit():
            start = pos
            start_col = col
            while pos < n and text[pos].isdigit():
                pos += 1
                col += 1
            tokens.append(Token("INT", text[start:pos], line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            start_col = col
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
                col += 1
            word = text[start:pos]
            kind = word if word in KEYWORDS else "IDENT"
            tokens.append(Token(kind, word, line, start_col))
            continue
        for lit, kind in _PUNCT:
            if text.startswith(lit, pos):
                tokens.append(Token(kind, lit, line, col))
                pos += len(lit)
                col += len(lit)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", "", line, col))
    return tokens


# --- a reference search at bounds the oracle cannot reach ---------------------


def per_entry_check(task):
    """check_bounded's verdict by a search over explicit (state id,
    obligation) entries, for the verdicts and traces at bounds where the
    path-enumerating oracle takes too long. Depth by depth, the frontier in
    insertion order, each state's successors in kernel order, each entry
    keeps the entry it was first reached from, so the first bottom result
    closes the canonical counterexample. It reads the state graph, the
    obligation store and the model errors as check_bounded does; the
    oracle suites check those."""
    graph = core.state_graph(task.ts)
    sliced = graph.sliced
    ob, atoms = core.obligation_store(task.formula)
    atoms = [sliced.rewrite(a) for a in atoms]
    budget = TimeoutBudget(None)

    def bits(depth, sid):
        values = graph.at(depth)[sid]
        return tuple(bool(eval_fexpr(a, values)) for a in atoms)

    def counterexample(entry, depth):
        sids = []
        while entry is not None:
            sid, _, entry = entry
            sids.append(sid)
        sids.reverse()
        trace = Trace(tuple(State(sliced.expand(graph.at(d)[sid]), task.ts)
                            for d, sid in enumerate(sids)))
        return Counterexample(trace, task.formula, depth)

    def model_error(p: Poison, depth):
        v = task.ts.var(p.var)
        if depth == 0:
            return ModelError(0, str(ModelStepError(p.var, p.value, v.init, 0)))
        return ModelError(depth, str(ModelStepError(p.var, p.value, v.next)))

    level = graph.level(0, budget)
    if level.poison is not None:
        return model_error(level.poison, 0)
    frontier = {}  # (state id, obligation) -> (state id, obligation, parent entry)
    for sid in level.ids:
        res = ob.progress(ob.root, bits(0, sid))
        if res == BOT:
            return counterexample((sid, res, None), 0)
        if res != TOP:
            frontier.setdefault((sid, res), (sid, res, None))
    for depth in range(1, task.bound_k + 1):
        if not frontier:
            break
        following = {}
        for entry in frontier.values():
            sid, obligation, _ = entry
            out = graph.step(sid, depth - 1)
            if isinstance(out, Poison):
                continue
            for nid in out:
                res = ob.progress(obligation, bits(depth, nid))
                if res == BOT:
                    return counterexample((nid, res, entry), depth)
                if res != TOP:
                    following.setdefault((nid, res), (nid, res, entry))
        frontier = following
    for depth in range(1, task.bound_k + 1):
        level = graph.level(depth, budget)
        if level.poison is not None:
            return model_error(level.poison, depth)
    return NoCounterexampleWithinBound(task.bound_k, all_paths_decided=not frontier)


class Forgetful(dict):
    """A memo that keeps nothing: a state graph's `_after` set to one
    builds every level, as without the memo of repeated levels."""

    def __setitem__(self, key, value):
        pass
