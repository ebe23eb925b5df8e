"""The project's invariant rules — each one paid for by a real bug.

| id    | slug                     | motivating bug / convention        |
|-------|--------------------------|------------------------------------|
| RL001 | unstable-seed            | PR 4: ``hash()`` seeds depended on |
|       |                          | ``PYTHONHASHSEED``                 |
| RL002 | global-rng               | standing convention: threaded      |
|       |                          | ``Generator``s, never the legacy   |
|       |                          | ``numpy.random`` module state      |
| RL003 | float-restore            | PR 8: ``(p+d)-d`` does not         |
|       |                          | round-trip in floating point       |
| RL004 | mode-leak                | PR 4: ``evaluate`` clobbered       |
|       |                          | train/eval mode                    |
| RL005 | non-atomic-write         | PR 7: torn artifact writes; all    |
|       |                          | publishes go through               |
|       |                          | ``utils/serialization.py``         |
| RL006 | wall-clock               | PR 8: deterministic packages run   |
|       |                          | on a virtual clock / injected      |
|       |                          | ``now=``                           |
| RL007 | raw-queue-transition     | PR 7: job/shard ``status`` edges   |
|       |                          | are validated only in              |
|       |                          | ``service/queue.py``               |
| RL008 | cli-exit-contract        | PR 7: CLI failures must not exit 0 |
| RL009 | bespoke-sweep            | campaign redesign: sweeps are      |
|       |                          | declarative ``CampaignSpec`` data, |
|       |                          | not hand-rolled loops              |

Every rule is a heuristic over the AST — precise enough to catch each
historical bug verbatim (``tests/lint/test_rules.py`` locks this), and
escapable with an inline ``# repro-lint: disable=RLxxx`` pragma where a
human has judged the code correct.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Iterator, List, Optional, Set, Tuple

from .engine import FileContext, Finding, Rule, register_rule

__all__ = [
    "UnstableSeedRule",
    "GlobalRngRule",
    "FloatRestoreRule",
    "ModeLeakRule",
    "NonAtomicWriteRule",
    "WallClockRule",
    "RawQueueTransitionRule",
    "CliExitContractRule",
    "BespokeSweepRule",
]


@register_rule
class UnstableSeedRule(Rule):
    """RL001 — builtin ``hash()`` is randomized per process.

    Python salts string hashing with ``PYTHONHASHSEED``, so any seed
    derived via ``hash(...)`` differs between runs and machines.  PR 4
    replaced every such seed with blake2b-backed
    :func:`repro.utils.rng.stable_hash` / ``stable_seed``; the project
    convention since is *never* ``hash()`` — for seeds or anything
    else that must reproduce.
    """

    id = "RL001"
    name = "unstable-seed"
    description = "builtin hash() in seed/rng derivation (PYTHONHASHSEED-dependent)"
    rationale = (
        "PR 4: `seed=hash((label, i)) % 2**31` made every experiment "
        "irreproducible across processes; use utils.rng.stable_hash/stable_seed."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "hash"
                and ctx.is_builtin("hash")
            ):
                yield self.finding(
                    ctx,
                    node,
                    "builtin hash() depends on PYTHONHASHSEED; derive seeds "
                    "with repro.utils.rng.stable_hash/stable_seed instead",
                )


#: ``numpy.random`` attributes that are *not* the legacy global-state
#: API: Generator construction and bit generators are the sanctioned
#: replacements.
_NP_RANDOM_OK = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "MT19937",
    "Philox",
    "SFC64",
    "RandomState",  # flagged separately below with a clearer message
}


@register_rule
class GlobalRngRule(Rule):
    """RL002 — legacy module-level ``numpy.random`` state.

    ``np.random.seed`` / ``np.random.normal`` et al. mutate or read one
    hidden process-global stream: any library call that also touches it
    silently reorders every subsequent draw, and parallel workers
    share (or duplicate) state.  All randomness must flow through
    explicitly threaded ``numpy.random.Generator`` objects
    (:mod:`repro.utils.rng`).
    """

    id = "RL002"
    name = "global-rng"
    description = "module-level numpy.random state instead of a threaded Generator"
    rationale = (
        "Standing convention since the seed: every stochastic component "
        "draws from an explicit Generator so one seed reproduces the run."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                qual = ctx.resolve(node.func)
                if qual is None or not qual.startswith("numpy.random."):
                    continue
                leaf = qual.split(".")[2] if len(qual.split(".")) > 2 else ""
                if leaf == "RandomState":
                    yield self.finding(
                        ctx,
                        node,
                        "numpy.random.RandomState is the legacy generator; "
                        "use numpy.random.default_rng / repro.utils.rng",
                    )
                elif leaf and leaf not in _NP_RANDOM_OK:
                    yield self.finding(
                        ctx,
                        node,
                        f"numpy.random.{leaf} uses the hidden global RNG "
                        "stream; thread an explicit numpy.random.Generator "
                        "(see repro.utils.rng)",
                    )
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                if mod == "numpy.random":
                    for alias in node.names:
                        if alias.name not in _NP_RANDOM_OK and alias.name != "*":
                            yield self.finding(
                                ctx,
                                node,
                                f"importing numpy.random.{alias.name} binds "
                                "the hidden global RNG stream; thread an "
                                "explicit Generator instead",
                            )


def _has_nonliteral(node: ast.AST) -> bool:
    """True when an expression involves any non-constant term."""
    return any(
        isinstance(n, (ast.Name, ast.Attribute, ast.Subscript, ast.Call))
        for n in ast.walk(node)
    )


def _dump_expr(node: ast.AST) -> str:
    """``ast.dump`` with load/store contexts erased, so ``p.data`` as
    an assignment target compares equal to ``p.data`` as a read."""
    return re.sub(r"ctx=(?:Load|Store|Del)\(\)", "ctx=()", ast.dump(node))


def _perturb_entry(node: ast.AST) -> Optional[Tuple[str, str, str]]:
    """Normalize a statement into ``(op, target_dump, value_dump)``.

    Recognizes both ``t += v`` / ``t -= v`` and the spelled-out
    ``t = t + v`` / ``t = t - v`` forms; returns None for anything
    else (or for pure-literal ``v``, which round-trips exactly for the
    integer counters it typically is).
    """
    if isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub)):
        target, value, op = node.target, node.value, node.op
    elif (
        isinstance(node, ast.Assign)
        and len(node.targets) == 1
        and isinstance(node.value, ast.BinOp)
        and isinstance(node.value.op, (ast.Add, ast.Sub))
        and _dump_expr(node.value.left) == _dump_expr(node.targets[0])
    ):
        target, value, op = node.targets[0], node.value.right, node.value.op
    else:
        return None
    if not _has_nonliteral(value):
        return None
    kind = "add" if isinstance(op, ast.Add) else "sub"
    return kind, _dump_expr(target), _dump_expr(value)


@register_rule
class FloatRestoreRule(Rule):
    """RL003 — in-place perturb-then-subtract on arrays.

    ``(p + d) - d`` does **not** round-trip in floating point: every
    SPSA evaluation before PR 8 left a few ULPs of rounding error in
    every phase, silently drifting the calibration state it was
    supposed to leave untouched.  Restores must come from a saved copy
    (``saved = p.data.copy(); ...; p.data = saved``).
    """

    id = "RL003"
    name = "float-restore"
    description = "perturb-then-subtract restore; (p+d)-d does not round-trip"
    rationale = (
        "PR 8: SPSA's `p.data += sign*d ... p.data -= sign*d` corrupted "
        "every phase per evaluation; restore from a saved copy."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for fn in ctx.functions():
            entries: List[Tuple[str, str, str, ast.AST]] = []
            for node in ctx.function_body_nodes(fn):
                e = _perturb_entry(node)
                if e is not None:
                    entries.append((*e, node))
            entries.sort(key=lambda t: (t[3].lineno, t[3].col_offset))
            consumed: Set[int] = set()
            for i, (kind_i, tgt_i, val_i, _node_i) in enumerate(entries):
                if i in consumed:
                    continue
                inverse = "sub" if kind_i == "add" else "add"
                for j in range(i + 1, len(entries)):
                    if j in consumed:
                        continue
                    kind_j, tgt_j, val_j, node_j = entries[j]
                    if kind_j == inverse and tgt_i == tgt_j and val_i == val_j:
                        consumed.add(i)
                        consumed.add(j)
                        yield self.finding(
                            ctx,
                            node_j,
                            "perturb-then-subtract restore: (p+d)-d does not "
                            "round-trip in floating point; restore the array "
                            "from a copy saved before the perturbation",
                        )
                        break


def _mode_call(node: ast.AST) -> Optional[ast.Call]:
    """Return ``node`` when it is an ``<expr>.train(...)``/``.eval()`` call."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("train", "eval")
    ):
        return node
    return None


def _subtree_contains(root_stmts, node: ast.AST) -> bool:
    for stmt in root_stmts:
        for n in ast.walk(stmt):
            if n is node:
                return True
    return False


@register_rule
class ModeLeakRule(Rule):
    """RL004 — ``.train()``/``.eval()`` without try/finally restore.

    PR 4 fixed ``evaluate`` helpers that flipped models into eval mode
    and left them there, silently disabling noise injection for the
    rest of training.  A function that changes an *existing* object's
    mode as an implementation detail must save the prior mode and
    restore it in a ``finally``.  Exempt by design: functions named
    ``train``/``eval`` (the mode-transition API itself) and
    ``self.train(...)`` inside ``__init__`` (a constructor setting its
    own object's initial mode leaks nothing).
    """

    id = "RL004"
    name = "mode-leak"
    description = ".train()/.eval() call without try/finally mode restoration"
    rationale = (
        "PR 4: evaluate() left models in eval mode, disabling "
        "variation-aware noise for the rest of training."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for fn in ctx.functions():
            if fn.name in ("train", "eval"):
                continue
            for node in ctx.function_body_nodes(fn):
                call = _mode_call(node)
                if call is None:
                    continue
                recv = call.func.value
                if (
                    fn.name == "__init__"
                    and isinstance(recv, ast.Name)
                    and recv.id == "self"
                ):
                    continue
                if self._protected(ctx, call, fn):
                    continue
                yield self.finding(
                    ctx,
                    call,
                    f".{call.func.attr}() changes train/eval mode without a "
                    "try/finally restoring the prior mode (save "
                    "`prior = m.training` and `m.train(prior)` in finally)",
                )

    @staticmethod
    def _protected(ctx: FileContext, call: ast.Call, fn: ast.AST) -> bool:
        for anc in ctx.ancestors(call):
            if anc is fn:
                break
            if isinstance(anc, ast.Try) and anc.finalbody:
                if _subtree_contains(anc.finalbody, call):
                    return True  # this call IS the restore
                for stmt in anc.finalbody:
                    for n in ast.walk(stmt):
                        c = _mode_call(n)
                        if c is not None and c.func.attr == "train":
                            return True
        return False


def _write_mode(call: ast.Call) -> Optional[str]:
    """The mode string of an ``open()`` call when statically known."""
    mode: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return "r"
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return mode.value
    return None  # dynamic mode: give the benefit of the doubt


@register_rule
class NonAtomicWriteRule(Rule):
    """RL005 — bare ``open(path, "w")`` artifact writes.

    A crash (or a concurrent reader) between the first byte and the
    last leaves a torn file that parses as truncated garbage.  Every
    publish goes through the same-directory tmp + ``os.replace``
    helpers in ``utils/serialization.py`` (``atomic_write_text`` /
    ``atomic_write_bytes``), which is the one file exempt from this
    rule.
    """

    id = "RL005"
    name = "non-atomic-write"
    description = 'open(path, "w"/"wb"/"a") outside utils/serialization.py'
    rationale = (
        "PR 7: concurrent queue/cache readers must never observe a "
        "torn write; publishes are tmp+rename via atomic_write_*."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.path_endswith("utils/serialization.py"):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "open"
                and ctx.is_builtin("open")
            ):
                mode = _write_mode(node)
                if mode is not None and any(c in mode for c in "wax"):
                    yield self.finding(
                        ctx,
                        node,
                        f'open(..., "{mode}") writes non-atomically; publish '
                        "via repro.utils.serialization.atomic_write_text/"
                        "atomic_write_bytes (tmp + os.replace)",
                    )


#: Packages whose results must be a pure function of (inputs, seed,
#: virtual clock) — wall-clock reads make replays diverge.
_DETERMINISTIC_DIRS = {"autograd", "ptc", "core", "photonics", "hardware"}

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


@register_rule
class WallClockRule(Rule):
    """RL006 — wall-clock reads inside the deterministic packages.

    ``autograd/``, ``ptc/``, ``core/``, ``photonics/`` and
    ``hardware/`` must replay byte-identically (the drift scenarios in
    ``tests/hardware/`` depend on it): time advances only through the
    virtual clock (``SimulatedChip.virtual_time_s``) or an injected
    ``now=`` parameter, never ``time.time()``.
    """

    id = "RL006"
    name = "wall-clock"
    description = "time.time()/datetime.now() inside a deterministic package"
    rationale = (
        "PR 8: the hardware layer replays byte-identically because "
        "serving itself advances a virtual clock; wall-clock reads "
        "would make every replay diverge."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_directories(_DETERMINISTIC_DIRS):
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                qual = ctx.resolve(node.func)
                if qual in _WALL_CLOCK_CALLS:
                    yield self.finding(
                        ctx,
                        node,
                        f"{qual}() reads the wall clock inside a "
                        "deterministic package; use the virtual clock or an "
                        "injected now= parameter",
                    )


_STATUS_SQL_RE = re.compile(
    r"(?is)(\bupdate\s+(jobs|shards)\b.*?\bset\b.*?\bstatus\s*=)"
    r"|(\binsert\s+into\s+(jobs|shards)\b)"
)


@register_rule
class RawQueueTransitionRule(Rule):
    """RL007 — raw SQL on the job/shard ``status`` column.

    Every state edge of the design-service queue is validated against
    the ``JOB_TRANSITIONS``/``SHARD_TRANSITIONS`` machines and logged
    to the audit table — but only if it goes through
    ``service/queue.py``'s ``_transition_job``/``_transition_shard``.
    Raw ``UPDATE jobs SET status=...`` anywhere else can forge an
    illegal edge (``done -> running``) with no audit row.
    """

    id = "RL007"
    name = "raw-queue-transition"
    description = "SQL touching jobs/shards status outside service/queue.py"
    rationale = (
        "PR 7: crash-safety rests on validated atomic transitions with "
        "an append-only audit trail; a raw status write bypasses both."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.path_endswith("service/queue.py"):
            return
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _STATUS_SQL_RE.search(node.value)
                and not ctx.is_docstring(node)
            ):
                yield self.finding(
                    ctx,
                    node,
                    "raw SQL touches the jobs/shards status column; go "
                    "through service/queue.py's validated transition helpers",
                )


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    names = []
    if isinstance(handler.type, ast.Tuple):
        names = [getattr(e, "id", None) for e in handler.type.elts]
    elif isinstance(handler.type, ast.Name):
        names = [handler.type.id]
    return any(n in ("Exception", "BaseException") for n in names)


def _handler_signals_failure(handler: ast.ExceptHandler) -> bool:
    """True when the handler re-raises or produces a non-zero exit."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Return):
            v = node.value
            if v is None:
                continue
            if isinstance(v, ast.Constant):
                if v.value not in (0, None, False):
                    return True
            else:
                return True  # dynamic return: benefit of the doubt
        if isinstance(node, ast.Call):
            qual_tail = None
            if isinstance(node.func, ast.Attribute):
                qual_tail = node.func.attr
            elif isinstance(node.func, ast.Name):
                qual_tail = node.func.id
            if qual_tail in ("exit", "_exit", "abort"):
                args = node.args
                if not args:
                    continue
                a = args[0]
                if not isinstance(a, ast.Constant) or a.value not in (0, None):
                    return True
    return False


@register_rule
class CliExitContractRule(Rule):
    """RL008 — CLI handlers that swallow failures into exit 0.

    The repo-wide contract (pinned by subprocess tests): success exits
    0, command failure exits 1 with ``error:`` on stderr, usage errors
    exit 2.  A broad ``except`` in a ``cmd_*``/``main`` handler that
    neither re-raises nor returns non-zero converts every failure into
    a silent success — automation downstream keeps going on garbage.
    Applies to ``cli.py`` / ``__main__.py`` modules.
    """

    id = "RL008"
    name = "cli-exit-contract"
    description = "CLI except block that swallows the failure into exit 0"
    rationale = (
        "PR 7: every `python -m repro` subcommand must exit non-zero "
        "on failure; service automation keys off the exit code."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if Path(ctx.path).name not in ("cli.py", "__main__.py"):
            return
        for fn in ctx.functions():
            if not (fn.name == "main" or fn.name.startswith("cmd_")):
                continue
            for node in ctx.function_body_nodes(fn):
                if isinstance(node, ast.ExceptHandler):
                    if _is_broad_handler(node) and not _handler_signals_failure(node):
                        yield self.finding(
                            ctx,
                            node,
                            "broad except swallows the failure into exit 0; "
                            "re-raise or return a non-zero exit code "
                            "(`error: ...` to stderr, exit 1)",
                        )


_SWEEP_NAME_RE = re.compile(
    r"(?:^|_)(?:values|stds|sigmas|betas|rhos|bits|bit_widths|widths|"
    r"windows|seeds|levels|corners|specs|designs|entries)$",
    re.IGNORECASE,
)


def _is_sweep_iterable(node: ast.AST) -> bool:
    """True when ``for ... in <node>`` walks a parameter grid.

    Matches names/attributes with sweep-shaped suffixes (``*_values``,
    ``*_stds``, ``betas``, ...), subscripts and ``.items()``/``.keys()``
    calls over such containers, ``enumerate``/``sorted``/``zip``
    wrappers around them, and literal tuples/lists of two or more
    numbers.
    """
    if isinstance(node, ast.Name):
        return bool(_SWEEP_NAME_RE.search(node.id))
    if isinstance(node, ast.Attribute):
        return bool(_SWEEP_NAME_RE.search(node.attr))
    if isinstance(node, ast.Subscript):
        return _is_sweep_iterable(node.value)
    if isinstance(node, ast.Call):
        f = node.func
        if isinstance(f, ast.Attribute) and f.attr in ("items", "keys"):
            return _is_sweep_iterable(f.value)
        if isinstance(f, ast.Name) and f.id in (
            "enumerate", "sorted", "reversed", "zip", "list", "tuple"
        ):
            return any(_is_sweep_iterable(a) for a in node.args)
        return False
    if isinstance(node, (ast.List, ast.Tuple)):
        if len(node.elts) < 2:
            return False
        return all(
            isinstance(e, ast.Constant)
            and isinstance(e.value, (int, float))
            and not isinstance(e.value, bool)
            for e in node.elts
        )
    return False


@register_rule
class BespokeSweepRule(Rule):
    """RL009 — hand-rolled parameter-sweep loops in experiment drivers.

    The campaign redesign moved every parameter matrix behind
    ``repro.campaign.CampaignSpec``: axes are declared as data,
    expanded into content-addressed cells, and executed inline or
    sharded through the design service — with caching, resume, and
    artifact emission for free.  A bespoke ``for beta in
    BETA_VALUES:`` loop inside a ``run_*`` driver re-creates none of
    that, so new sweeps must be campaign kinds plus a thin shim.
    The two pre-redesign table sweeps (``table1.py``, ``table2.py``)
    are grandfathered via ``lint-baseline.json``.
    """

    id = "RL009"
    name = "bespoke-sweep"
    description = "hand-rolled parameter sweep in an experiments run_* driver"
    rationale = (
        "campaign redesign: sweeps are declarative CampaignSpec data "
        "(cached, resumable, service-shardable); bespoke loops in "
        "experiment drivers silently fork that machinery."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.in_directories({"experiments"}):
            return
        for fn in ctx.functions():
            if not fn.name.lstrip("_").startswith("run_"):
                continue
            for node in ctx.function_body_nodes(fn):
                if isinstance(node, ast.For) and _is_sweep_iterable(node.iter):
                    yield self.finding(
                        ctx,
                        node,
                        f"parameter sweep loop in {fn.name}(); declare the "
                        "axis in a repro.campaign.CampaignSpec (see "
                        "docs/CAMPAIGNS.md) instead of a bespoke loop",
                    )
