"""Vehicle-control-system demo bundle generator.

Synthesizes a fail-operational arbitration model in the duo-duplex shape:
a primary and a backup master ECU, peripheral units split between two
channels, dual power supplies, and a bus proxy that mediates every
inter-ECU signal with hold-last-value debouncing before latching a
communication failure. The arbitration content (priority cascade, target
matrix) is a representative design, not a reconstruction of any production
rule set; its point is to exercise every modeling pattern the toolkit
supports.

Structure of the generated model:

* ``glob``: named constants, accessed by dotted reference from all modules;
* one module per ECU with states {Init, Ready, Active, Passive}, a run-up
  timer, and failure response (failed units go Passive and stay there);
* a bus module with per-signal delivered value, staleness counter, and a
  latched comm-failure flag (a dropout shorter than the debounce window is
  absorbed, one reaching it latches exactly at the debounce-th step after
  onset);
* the main module: failure axis variables (pinned FALSE in the template's
  injection region), composite indicators computed one step delayed, the
  step counter, and a single Mode variable driven by a fixed priority
  cascade Normal > FallbackA > FallbackB > FallbackC > SafeStop, with
  SafeStop terminal.

Failure-free execution reaches Mode = Normal at exactly ``RUNUP_STEPS``
and holds it: each ECU turns Ready on its own staggered schedule and the
whole fleet turns Active together two cycles before run-up completes, gated
on the peer state delivered through the bus.

Point-to-point signals follow one rule: every ordered pair of ECUs
communicates except peripherals in different channels (masters monitor all
units and units answer both masters; cross-channel peripherals never talk
directly). With the full preset (7 ECUs, 3 buses) the catalog lands on
exactly 42 injectable axes.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

MODES = ("Startup", "Normal", "FallbackA", "FallbackB", "FallbackC", "SafeStop")
MUTANTS = ("none", "swapped-fallback-priority")


# Timing of the generated design, in steps: the debounce window of a comm
# failure, the run-up to Normal, the arbitration deadline, and the bound
# the Step counter and the specs cover.
DEBOUNCE_CYCLES = 3
RUNUP_STEPS = 15
MODE_SWITCH_DEADLINE = 5
BOUND = 70
# reaction budget: worst-case observation (debounce latch) plus the
# arbitration deadline plus detection/mode update lag
REACH_WINDOW = DEBOUNCE_CYCLES + MODE_SWITCH_DEADLINE + 2


@dataclass(frozen=True)
class VcsConfig:
    n_ecus: int = 4
    n_buses: int = 1
    mutant: str = "none"

    def __post_init__(self):
        if self.n_ecus < 2:
            raise ValueError("need at least 2 ECUs (primary and backup master)")
        if self.n_buses < 1:
            raise ValueError("need at least one bus")
        if self.mutant not in MUTANTS:
            raise ValueError(f"unknown mutant {self.mutant!r}")

    @classmethod
    def desk(cls, **overrides) -> "VcsConfig":
        return cls(n_ecus=4, n_buses=1, **overrides)

    @classmethod
    def full(cls, **overrides) -> "VcsConfig":
        return cls(n_ecus=7, n_buses=3, **overrides)


@dataclass(frozen=True)
class AxisEntry:
    index: int  # 1-based
    id: str
    variable: str
    kind: str  # ecu | power | bus | p2p


@dataclass(frozen=True)
class VcsBundle:
    config: VcsConfig
    model_text: str
    failures_text: str
    matrix_text: str
    specs_text: str

    def write(self, outdir) -> dict[str, Path]:
        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "model": out / "vcs.fsm",
            "failures": out / "failures.csv",
            "matrix": out / "target_modes.csv",
            "specs": out / "specs.ltl",
        }
        paths["model"].write_text(self.model_text)
        paths["failures"].write_text(self.failures_text)
        paths["matrix"].write_text(self.matrix_text)
        paths["specs"].write_text(self.specs_text)
        return paths


# --- topology ---------------------------------------------------------------


def channel_of(k: int) -> str:
    return "A" if k % 2 == 1 else "B"


def master_of(k: int) -> int:
    return 1 if channel_of(k) == "A" else 2


def peripherals(cfg: VcsConfig) -> list[int]:
    return list(range(3, cfg.n_ecus + 1))


def signals(cfg: VcsConfig) -> list[tuple[int, int]]:
    """Directed sender -> receiver pairs routed through the bus proxy."""
    out = []
    for i in range(1, cfg.n_ecus + 1):
        for j in range(1, cfg.n_ecus + 1):
            if i == j:
                continue
            if i >= 3 and j >= 3 and channel_of(i) != channel_of(j):
                continue  # cross-channel peripherals have no direct link
            out.append((i, j))
    return out


def route_of(cfg: VcsConfig, i: int, j: int) -> int:
    """Bus carrying signal (i, j); collapses gracefully for few buses."""
    if channel_of(i) == channel_of(j):
        return 1 if channel_of(i) == "A" else min(2, cfg.n_buses)
    return min(3, cfg.n_buses)


def axis_entries(cfg: VcsConfig) -> list[AxisEntry]:
    entries = []

    def add(id_, var, kind):
        entries.append(AxisEntry(len(entries) + 1, id_, var, kind))

    add("power_a_outage", "f_pwr_a", "power")
    add("power_b_outage", "f_pwr_b", "power")
    for k in range(1, cfg.n_ecus + 1):
        add(f"ecu{k}_outage", f"f_ecu_{k}", "ecu")
    for b in range(1, cfg.n_buses + 1):
        add(f"bus{b}_outage", f"f_bus_{b}", "bus")
    for i, j in signals(cfg):
        add(f"com_{i}_{j}_loss", f"f_com_{i}_{j}", "p2p")
    return entries


_FAMILY = {"ecu": "ecu", "power": "power", "bus": "comm", "p2p": "comm"}
_SINGLE_TARGET = {"ecu": "FallbackA", "comm": "FallbackB", "power": "FallbackC"}


def single_target(kind: str) -> str:
    return _SINGLE_TARGET[_FAMILY[kind]]


def pair_target(entry_a: AxisEntry, entry_b: AxisEntry) -> str:
    """Matrix content rule; mirrors the arbitration cascade so the correct
    model satisfies its own matrix."""
    if entry_a.kind == "power" and entry_b.kind == "power" and entry_a.id != entry_b.id:
        return "FATAL"  # both supplies gone
    families = {_FAMILY[entry_a.kind], _FAMILY[entry_b.kind]}
    if "ecu" in families:
        return "FallbackA"
    if "comm" in families:
        return "FallbackB"
    return "FallbackC"


# --- model text --------------------------------------------------------------


def _ready_at(k: int) -> int:
    if k == 1:
        return 2
    if k == 2:
        return 3
    return 4 + ((k - 3) % 8)


def _glob_module() -> str:
    return f"""MODULE glob
DEFINE
  T_RUNUP := {RUNUP_STEPS};
  T_DEBOUNCE := {DEBOUNCE_CYCLES};
  T_DEADLINE := {MODE_SWITCH_DEADLINE};
  STEP_MAX := {BOUND + 1};
"""


def _ecu_module(k: int) -> str:
    peer = "PeerSt" if k <= 2 else "MasterSt"
    peer_ok = "PeerOk" if k <= 2 else "MasterOk"
    lines = [f"MODULE M_ECU{k} ({peer}, {peer_ok}, FailSelf, Glob)"]
    lines.append("VAR")
    lines.append("  S : {Init, Ready, Active, Passive};")
    lines.append("  T : 0..Glob.T_RUNUP;")
    lines.append("ASSIGN")
    lines.append("  init(S) := Init;")
    lines.append("  next(S) :=")
    lines.append("    case")
    lines.append("      FailSelf : Passive;")
    lines.append("      S = Passive : Passive;")
    lines.append(f"      S = Init & T >= {_ready_at(k)} & !FailSelf : Ready;")
    lines.append(
        f"      S = Ready & ({peer} = Ready | {peer} = Active) & {peer_ok}"
    )
    lines.append("        & T = Glob.T_RUNUP - 2 : Active;")
    lines.append("      TRUE : S;")
    lines.append("    esac;")
    lines.append("  init(T) := 0;")
    lines.append("  next(T) :=")
    lines.append("    case")
    lines.append("      FailSelf : 0;")
    lines.append("      T = Glob.T_RUNUP : T;")
    lines.append("      S = Init | S = Ready : T + 1;")
    lines.append("      TRUE : T;")
    lines.append("    esac;")
    return "\n".join(lines) + "\n"


def _bus_module(cfg: VcsConfig) -> str:
    sig = signals(cfg)
    params = [f"S{k}" for k in range(1, cfg.n_ecus + 1)]
    params += [f"FB{b}" for b in range(1, cfg.n_buses + 1)]
    params += [f"FC_{i}_{j}" for i, j in sig]
    params.append("Glob")
    lines = [f"MODULE M_BUS ({', '.join(params)})"]
    lines.append("VAR")
    for i, j in sig:
        lines.append(f"  d_{i}_{j} : {{Init, Ready, Active, Passive}};")
        lines.append(f"  c_{i}_{j} : 0..Glob.T_DEBOUNCE;")
        lines.append(f"  cf_{i}_{j} : boolean;")
    lines.append("DEFINE")
    for i, j in sig:
        lines.append(f"  drop_{i}_{j} := FC_{i}_{j} | FB{route_of(cfg, i, j)};")
    lines.append("ASSIGN")
    for i, j in sig:
        lines.append(f"  init(d_{i}_{j}) := Init;")
        lines.append(f"  next(d_{i}_{j}) := case drop_{i}_{j} : d_{i}_{j}; TRUE : S{i}; esac;")
        lines.append(f"  init(c_{i}_{j}) := 0;")
        lines.append(f"  next(c_{i}_{j}) :=")
        lines.append("    case")
        lines.append(f"      !drop_{i}_{j} : 0;")
        lines.append(f"      c_{i}_{j} = Glob.T_DEBOUNCE : c_{i}_{j};")
        lines.append(f"      TRUE : c_{i}_{j} + 1;")
        lines.append("    esac;")
        lines.append(f"  init(cf_{i}_{j}) := FALSE;")
        lines.append(
            f"  next(cf_{i}_{j}) := cf_{i}_{j} | (drop_{i}_{j} & c_{i}_{j} >= Glob.T_DEBOUNCE - 1);"
        )
    return "\n".join(lines) + "\n"


def _main_module(cfg: VcsConfig) -> str:
    sig = signals(cfg)
    axes = axis_entries(cfg)
    lines = ["MODULE main", "VAR"]
    for e in axes:
        lines.append(f"  {e.variable} : boolean;")
    lines.append("  comp_dual_pwr : boolean;")
    lines.append("  comp_masters_down : boolean;")
    lines.append("  comp_ch_a_down : boolean;")
    lines.append("  Mode : {" + ", ".join(MODES) + "};")
    lines.append("  any_fail_ever : boolean;")
    lines.append("  g : glob;")
    lines.append("  Step : 0..g.STEP_MAX;")
    bus_args = [f"ecu{k}.S" for k in range(1, cfg.n_ecus + 1)]
    bus_args += [f"f_bus_{b}" for b in range(1, cfg.n_buses + 1)]
    bus_args += [f"f_com_{i}_{j}" for i, j in sig]
    bus_args.append("g")
    lines.append(f"  bus : M_BUS({', '.join(bus_args)});")
    for k in range(1, cfg.n_ecus + 1):
        peer = 2 if k == 1 else (1 if k == 2 else master_of(k))
        lines.append(
            f"  ecu{k} : M_ECU{k}(bus.d_{peer}_{k}, !bus.cf_{peer}_{k}, f_ecu_{k}, g);"
        )
    lines.append("DEFINE")
    lines.append(
        "  det_any_ecu := "
        + " | ".join(f"ecu{k}.S = Passive" for k in range(1, cfg.n_ecus + 1))
        + ";"
    )
    lines.append(
        "  det_any_comm := " + " | ".join(f"bus.cf_{i}_{j}" for i, j in sig) + ";"
    )
    lines.append("  det_any_pwr := f_pwr_a | f_pwr_b;")
    lines.append("  det_fatal := comp_dual_pwr;")
    lines.append(
        "  sys_up := "
        + " & ".join(f"ecu{k}.S = Active" for k in range(1, cfg.n_ecus + 1))
        + ";"
    )
    lines.append(
        "  no_failure := !det_any_ecu & !det_any_comm & !det_any_pwr & !det_fatal;"
    )
    lines.append("  any_fail := " + " | ".join(e.variable for e in axes) + ";")
    lines.append("  any_failure_seen := any_fail_ever | any_fail;")
    for mode in MODES:
        lines.append(f"  op_{mode.lower()} := Mode = {mode};")
    ops = [f"op_{m.lower()}" for m in MODES]
    one_hot = []
    for m in ops:
        terms = [m] + [f"!{o}" for o in ops if o != m]
        one_hot.append("(" + " & ".join(terms) + ")")
    lines.append("  mode_exactly_one :=")
    for i, clause in enumerate(one_hot):
        sep = ";" if i == len(one_hot) - 1 else ""
        lead = "    " if i == 0 else "    | "
        lines.append(f"{lead}{clause}{sep}")
    lines.append("ASSIGN")
    lines.append("  init(comp_dual_pwr) := FALSE;")
    lines.append("  next(comp_dual_pwr) := f_pwr_a & f_pwr_b;")
    lines.append("  init(comp_masters_down) := FALSE;")
    lines.append("  next(comp_masters_down) := f_ecu_1 & f_ecu_2;")
    lines.append("  init(comp_ch_a_down) := FALSE;")
    lines.append("  next(comp_ch_a_down) := f_pwr_a & f_bus_1;")
    lines.append("  init(any_fail_ever) := FALSE;")
    lines.append("  next(any_fail_ever) := any_fail_ever | any_fail;")
    lines.append("  init(Step) := 0;")
    lines.append("  next(Step) := case Step = g.STEP_MAX : Step; TRUE : Step + 1; esac;")
    lines.append("  init(Mode) := Startup;")
    lines.append("  next(Mode) :=")
    lines.append("    case")
    lines.append("      Mode = SafeStop : SafeStop;")
    lines.append("      no_failure & sys_up : Normal;")
    arm_ecu = "      det_any_ecu : FallbackA;"
    arm_comm = "      det_any_comm : FallbackB;"
    if cfg.mutant == "swapped-fallback-priority":
        lines.append(arm_comm)
        lines.append(arm_ecu)
    else:
        lines.append(arm_ecu)
        lines.append(arm_comm)
    lines.append("      det_any_pwr & !det_fatal : FallbackC;")
    lines.append("      det_fatal : SafeStop;")
    lines.append("      TRUE : Mode;")
    lines.append("    esac;")
    lines.append("-- #injection:begin")
    lines.append("ASSIGN")
    for e in axes:
        lines.append(f"  init({e.variable}) := FALSE;")
        lines.append(f"  next({e.variable}) := FALSE;")
    lines.append("-- #injection:end")
    return "\n".join(lines) + "\n"


def _model_text(cfg: VcsConfig) -> str:
    parts = [_glob_module()]
    for k in range(1, cfg.n_ecus + 1):
        parts.append(_ecu_module(k))
    parts.append(_bus_module(cfg))
    parts.append(_main_module(cfg))
    return "\n".join(parts)


# --- catalog, matrix, specs ---------------------------------------------------


def _failures_text(cfg: VcsConfig) -> str:
    lines = ["index,id,variable,kind"]
    for e in axis_entries(cfg):
        lines.append(f"{e.index},{e.id},{e.variable},{e.kind}")
    return "\n".join(lines) + "\n"


def _matrix_text(cfg: VcsConfig) -> str:
    axes = axis_entries(cfg)
    lines = ["first\\second," + ",".join(e.id for e in axes)]
    for a in axes:
        cells = []
        for b in axes:
            if a.index == b.index:
                cells.append(single_target(a.kind))
            else:
                cells.append(pair_target(a, b))
        lines.append(a.id + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def _specs_text() -> str:
    runup = RUNUP_STEPS
    bound = BOUND
    reach = REACH_WINDOW
    stable_hi = bound - 2
    persist = DEBOUNCE_CYCLES - 1  # extra X-steps demanded of a failure
    persist_a = " & ".join(
        ["{{FAIL_A}}"] + [f"{'X ' * i}{{{{FAIL_A}}}}" for i in range(1, persist + 1)]
    )
    persist_b = " & ".join(
        ["{{FAIL_B}}"] + [f"{'X ' * i}{{{{FAIL_B}}}}" for i in range(1, persist + 1)]
    )
    once_a_latched = (
        "O ({{FAIL_A}}"
        + "".join(f" & {'Y ' * i}{{{{FAIL_A}}}}" for i in range(1, persist + 1))
        + ")"
    )
    records = [
        ("startup_reaches_normal", "none",
         f"F[0,{runup}] Mode = Normal"),
        ("startup_no_early_normal", "none",
         f"G[1,{runup - 1}] !(Mode = Normal)"),
        ("startup_normal_holds", "none",
         f"G[{runup},{bound}] Mode = Normal"),
        ("safestop_terminal_unbounded", "none",
         "G !(O Mode = SafeStop & !(Mode = SafeStop))"),
        ("mode_always_valid", "all",
         f"G[0,{bound}] mode_exactly_one"),
        ("safestop_only_after_failure", "all",
         f"G[0,{bound}] (Mode = SafeStop -> any_failure_seen)"),
        ("normal_before_failure", "all",
         f"G[{runup},{bound}] (!any_failure_seen -> Mode = Normal)"),
        ("mutual_exclusion_safestop", "all",
         f"G[0,{bound}] !(O Mode = SafeStop & !(Mode = SafeStop))"),
        ("single_failure_targets_mode", "single",
         "G[{{WINDOW_LO}},{{WINDOW_HI}}] "
         f"(({{{{FAIL_A}}}} & !{{{{FAIL_A}}}}_occurred & {persist_a}) -> "
         f"F[0,{reach}] Mode = {{{{TARGET_MODE}}}})"),
        ("single_failure_mode_stable", "single",
         f"G[{runup},{stable_hi}] ((Mode = {{{{TARGET_MODE}}}} & "
         "{{FAIL_A}} & X {{FAIL_A}}) -> X Mode = {{TARGET_MODE}})"),
        ("double_failure_targets_mode", "double",
         "G[{{WINDOW_LO}},{{WINDOW_HI}}] "
         f"(({{{{FAIL_B}}}} & !{{{{FAIL_B}}}}_occurred & {persist_b} & {once_a_latched}) -> "
         f"F[0,{reach}] Mode = {{{{TARGET_MODE}}}})"),
        ("double_failure_mode_stable", "double",
         f"G[{runup},{stable_hi}] ((Mode = {{{{TARGET_MODE}}}} & "
         "{{FAIL_A}} & X {{FAIL_A}} & {{FAIL_B}} & X {{FAIL_B}}) -> "
         "X Mode = {{TARGET_MODE}})"),
    ]
    blocks = []
    for name, applicability, text in records:
        blocks.append(f"[spec {name}]\napplicability: {applicability}\nformula: {text}\n")
    return "\n".join(blocks)


def generate_vcs_model(cfg: VcsConfig) -> VcsBundle:
    """Generate the model template plus catalog, matrix, and spec files."""
    return VcsBundle(
        config=cfg,
        model_text=_model_text(cfg),
        failures_text=_failures_text(cfg),
        matrix_text=_matrix_text(cfg),
        specs_text=_specs_text(),
    )
