"""The shipped lint rules (``RPR001`` .. ``RPR010``).

Each rule machine-enforces one invariant the reproduction's guarantees rest
on — serial/process bit-identical runs, resumable bit-identical checkpoints,
picklable pool tasks — i.e. the bug classes that have already cost edge-case
fixes in earlier PRs.  Rules are deliberately small visitors; the framework
(:mod:`repro.analysis.core`) handles registration, suppression, and driving.

The catalog in ``docs/analysis.md`` is generated from these classes'
``id``/``title``/``severity``/``hint``/``rationale`` attributes and
``tools/check_docs.py`` fails CI when a shipped rule id is undocumented.
"""

from __future__ import annotations

import ast

from .core import Rule

__all__ = [
    "GlobalNumpyRandom", "WallClockInHotPath", "SetIteration",
    "UnpicklablePoolTask", "ExperimentCrossImport", "MutableDefaultArg",
    "StateDictCompleteness", "UnsortedFsIteration", "RawTimerInHotPath",
    "UnimportableBackendTask",
]


def _trailing_name(node):
    """The last identifier of a ``Name``/``Attribute`` chain (or None)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_np(node):
    return isinstance(node, ast.Name) and node.id in ("np", "numpy")


# ----------------------------------------------------------------------
class GlobalNumpyRandom(Rule):
    """RPR001 — only seeded ``Generator`` randomness is reproducible."""

    id = "RPR001"
    title = "global numpy/stdlib RNG call"
    severity = "error"
    hint = ("draw from an explicitly seeded np.random.Generator "
            "(np.random.default_rng(seed)) threaded through the call chain")
    rationale = ("Legacy np.random.* and stdlib random.* calls mutate hidden "
                 "global state, so any import-order or concurrency change "
                 "silently shifts every downstream draw — the exact failure "
                 "mode the golden-trajectory harness exists to prevent.")

    #: numpy.random attributes that construct (not consume) generators
    ALLOWED = frozenset({
        "default_rng", "Generator", "SeedSequence", "BitGenerator",
        "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64", "RandomState",
    })
    STDLIB = frozenset({
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "normalvariate", "paretovariate", "randint", "random",
        "randrange", "sample", "seed", "shuffle", "triangular", "uniform",
        "vonmisesvariate",
    })

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute):
            value = func.value
            # np.random.<legacy>(...)
            if (isinstance(value, ast.Attribute) and value.attr == "random"
                    and _is_np(value.value)
                    and func.attr not in self.ALLOWED):
                self.report(node, f"np.random.{func.attr}() uses the hidden "
                                  f"global RNG state")
            # random.<fn>(...) on the stdlib module
            elif (isinstance(value, ast.Name) and value.id == "random"
                    and func.attr in self.STDLIB):
                self.report(node, f"random.{func.attr}() uses the hidden "
                                  f"global RNG state")
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "numpy.random":
            for alias in node.names:
                if alias.name not in self.ALLOWED:
                    self.report(node, f"importing numpy.random.{alias.name} "
                                      f"binds the hidden global RNG state")
        self.generic_visit(node)


# ----------------------------------------------------------------------
class WallClockInHotPath(Rule):
    """RPR002 — no wall-clock timestamps inside the deterministic core."""

    id = "RPR002"
    title = "wall-clock read in a deterministic hot path"
    severity = "error"
    hint = ("use time.perf_counter() through repro.utils.TrainingClock for "
            "duration accounting, or move the timestamp out of "
            "training/sampling/autodiff")
    rationale = ("training/, sampling/, and autodiff/ must be pure functions "
                 "of (config, seed): a time.time()/datetime.now() read there "
                 "leaks nondeterminism into trajectories, labels, or cache "
                 "keys and breaks serial/process and resume bit-parity.")

    #: subsystems whose behaviour must be a pure function of (config, seed)
    HOT_PATHS = ("training/", "sampling/", "autodiff/")
    BANNED_TIME = frozenset({"time", "time_ns", "ctime", "localtime",
                             "gmtime"})
    BANNED_DATETIME = frozenset({"now", "utcnow", "today"})

    def applies_to(self, context):
        path = context.scope_path().replace("\\", "/")
        return any(part in path for part in self.HOT_PATHS)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute):
            value = func.value
            if (isinstance(value, ast.Name) and value.id == "time"
                    and func.attr in self.BANNED_TIME):
                self.report(node, f"time.{func.attr}() reads the wall clock "
                                  f"in a deterministic hot path")
            elif func.attr in self.BANNED_DATETIME and (
                    _trailing_name(value) in ("datetime", "date")):
                self.report(node,
                            f"{_trailing_name(value)}.{func.attr}() reads "
                            f"the wall clock in a deterministic hot path")
        self.generic_visit(node)


# ----------------------------------------------------------------------
class SetIteration(Rule):
    """RPR003 — set iteration order must never escape into results."""

    id = "RPR003"
    title = "iteration over an unordered set"
    severity = "error"
    hint = "wrap the set in sorted(...) before iterating"
    rationale = ("Set iteration order depends on insertion history and hash "
                 "seeding; when it feeds RNG draws, task placement, or "
                 "serialized output, two identical runs diverge.  sorted() "
                 "restores a canonical order at negligible cost.")

    #: constructors whose iteration order would leak out of the expression
    ORDERED_CONSUMERS = frozenset({"list", "tuple", "enumerate", "iter"})

    def _is_set_expr(self, node):
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Name)
                    and node.func.id in ("set", "frozenset")):
                return True
            if (isinstance(node.func, ast.Attribute) and node.func.attr in
                    ("union", "intersection", "difference",
                     "symmetric_difference")
                    and self._is_set_expr(node.func.value)):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)):
            return (self._is_set_expr(node.left)
                    or self._is_set_expr(node.right))
        return False

    def _check_iterable(self, node, where):
        if self._is_set_expr(node):
            self.report(node, f"{where} iterates a set in nondeterministic "
                              f"order")

    def visit_For(self, node):
        self._check_iterable(node.iter, "for loop")
        self.generic_visit(node)

    def _check_comprehension(self, node):
        for generator in node.generators:
            self._check_iterable(generator.iter, "comprehension")
        self.generic_visit(node)

    visit_ListComp = _check_comprehension
    visit_DictComp = _check_comprehension
    visit_GeneratorExp = _check_comprehension

    def visit_Call(self, node):
        if (isinstance(node.func, ast.Name)
                and node.func.id in self.ORDERED_CONSUMERS and node.args):
            self._check_iterable(node.args[0], f"{node.func.id}()")
        self.generic_visit(node)


# ----------------------------------------------------------------------
class UnpicklablePoolTask(Rule):
    """RPR004 — process-pool tasks must be importable module-level callables."""

    id = "RPR004"
    title = "unpicklable callable submitted to a process pool"
    severity = "error"
    hint = ("submit a module-level function and pass its inputs as plain "
            "picklable arguments (the pattern _execute_tasks uses)")
    rationale = ("pickle serializes functions by qualified name: lambdas and "
                 "closures defined inside another function cannot cross the "
                 "process boundary, so the pool raises PicklingError at "
                 "runtime — on the worker, long after submission.")

    def __init__(self, context):
        super().__init__(context)
        self._scopes = []   # per enclosing function: locally-defined names

    def _enter_scope(self, node):
        self._scopes.append(set())
        self.generic_visit(node)
        self._scopes.pop()

    def visit_FunctionDef(self, node):
        if self._scopes:
            self._scopes[-1].add(node.name)
        self._enter_scope(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self._enter_scope(node)

    def visit_Assign(self, node):
        # `fn = lambda ...:` inside a function is just as unpicklable
        if self._scopes and isinstance(node.value, ast.Lambda):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._scopes[-1].add(target.id)
        self.generic_visit(node)

    def _is_local_def(self, name):
        return any(name in scope for scope in self._scopes)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute) and node.args:
            receiver = (_trailing_name(func.value) or "").lower()
            is_pool = "pool" in receiver or "executor" in receiver
            if func.attr == "submit" or (func.attr == "map" and is_pool):
                task = node.args[0]
                if isinstance(task, ast.Lambda):
                    self.report(task, f"lambda passed to .{func.attr}() "
                                      f"cannot be pickled to a worker")
                elif (isinstance(task, ast.Name)
                        and self._is_local_def(task.id)):
                    self.report(task, f"locally-defined function "
                                      f"{task.id!r} passed to "
                                      f".{func.attr}() cannot be pickled "
                                      f"to a worker")
        self.generic_visit(node)


# ----------------------------------------------------------------------
class UnimportableBackendTask(UnpicklablePoolTask):
    """RPR010 — backend tasks must carry an importable module-level name."""

    id = "RPR010"
    title = "unimportable callable submitted to an execution backend"
    severity = "error"
    hint = ("submit a module-level function (the pattern _train_method "
            "uses); backends ship the callable to other processes — the "
            "queue backend by module:qualname re-import, the pool by pickle")
    rationale = ("Execution backends serialize the task callable by "
                 "qualified name: the process pool pickles it, and the "
                 "queue backend records a module:qualname ref that a "
                 "`repro worker` in a different process re-imports.  "
                 "Lambdas, nested functions, and bound methods have no "
                 "importable name, so submission fails at runtime — "
                 "possibly on a worker, long after enqueue.")

    #: receiver name fragments that mark an execution-backend object
    RECEIVERS = ("backend", "queue")
    METHODS = frozenset({"submit", "enqueue"})

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute) and node.args
                and func.attr in self.METHODS):
            receiver = (_trailing_name(func.value) or "").lower()
            if any(part in receiver for part in self.RECEIVERS):
                task = node.args[0]
                if isinstance(task, ast.Lambda):
                    self.report(task, f"lambda passed to .{func.attr}() has "
                                      f"no importable name a worker could "
                                      f"resolve")
                elif (isinstance(task, ast.Name)
                        and self._is_local_def(task.id)):
                    self.report(task, f"locally-defined function "
                                      f"{task.id!r} passed to "
                                      f".{func.attr}() has no importable "
                                      f"name a worker could resolve")
                elif (isinstance(task, ast.Attribute)
                        and isinstance(task.value, ast.Name)
                        and task.value.id == "self"):
                    self.report(task, f"bound method self.{task.attr} "
                                      f"passed to .{func.attr}() drags its "
                                      f"instance across the process "
                                      f"boundary")
        self.generic_visit(node)


# ----------------------------------------------------------------------
class ExperimentCrossImport(Rule):
    """RPR005 — problem modules talk through the registry, not each other."""

    id = "RPR005"
    title = "experiment problem module imports a sibling problem module"
    severity = "warning"
    hint = ("move the shared piece into pde/, geometry/, or training/, or "
            "resolve the other problem through repro.api.problem_registry")
    rationale = ("Direct imports between problem modules create hidden "
                 "registration-order coupling and defeat the registry as "
                 "the single extension seam — a new problem must be "
                 "reachable by name alone from every surface.")

    def _problem_modules(self):
        """Module stems of problem modules, from the project pre-scan."""
        return self.context.project.get("problem_modules", frozenset())

    def _own_stem(self):
        path = self.context.scope_path().replace("\\", "/")
        stem = path.rsplit("/", 1)[-1]
        return stem[:-3] if stem.endswith(".py") else stem

    def _is_problem_module(self, tree=None):
        return self._own_stem() in self._problem_modules()

    def _check_target(self, node, dotted):
        if not dotted:
            return
        stem = dotted.rsplit(".", 1)[-1]
        if stem != self._own_stem() and stem in self._problem_modules():
            self.report(node, f"problem module {self._own_stem()!r} imports "
                              f"sibling problem module {stem!r} directly")

    def visit_Module(self, node):
        if self._is_problem_module():
            self.generic_visit(node)

    def visit_ImportFrom(self, node):
        self._check_target(node, node.module or "")
        # `from . import ldc` spells the sibling in the alias list
        if not node.module and node.level:
            for alias in node.names:
                self._check_target(node, alias.name)
        self.generic_visit(node)

    def visit_Import(self, node):
        for alias in node.names:
            self._check_target(node, alias.name)
        self.generic_visit(node)


# ----------------------------------------------------------------------
class MutableDefaultArg(Rule):
    """RPR006 — mutable default arguments alias state across calls."""

    id = "RPR006"
    title = "mutable default argument"
    severity = "warning"
    hint = "default to None and materialise the container inside the body"
    rationale = ("A list/dict/set default is evaluated once at definition "
                 "time and shared by every call; mutation in one call leaks "
                 "into the next — stateful behaviour masquerading as a pure "
                 "signature.")

    MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray",
                               "defaultdict", "Counter", "OrderedDict"})

    def _is_mutable(self, node):
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and _trailing_name(node.func) in self.MUTABLE_CALLS)

    def _check_function(self, node):
        defaults = list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None]
        for default in defaults:
            if self._is_mutable(default):
                self.report(default, f"mutable default argument in "
                                     f"{node.name}()")
        self.generic_visit(node)

    visit_FunctionDef = _check_function
    visit_AsyncFunctionDef = _check_function


# ----------------------------------------------------------------------
class StateDictCompleteness(Rule):
    """RPR007 — checkpointable classes must round-trip all array state."""

    id = "RPR007"
    title = "array state missing from state_dict round-trip"
    severity = "warning"
    hint = ("persist the attribute in state_dict()/load_state_dict() (or "
            "suppress with a comment explaining why it is derived state)")
    rationale = ("A Module/Sampler/Optimizer attribute holding arrays that "
                 "state_dict does not cover silently resets on resume: the "
                 "run keeps training but from perturbed state — the "
                 "silent-resume-drift bug class PR 3's checkpoints exist to "
                 "rule out.")

    #: numpy constructors whose result is fresh array state worth persisting
    ARRAY_CTORS = frozenset({
        "array", "asarray", "arange", "linspace", "zeros", "ones", "full",
        "empty", "zeros_like", "ones_like", "full_like", "empty_like",
        "concatenate", "stack", "split", "tile", "repeat",
    })
    ROUND_TRIP = ("state_dict", "load_state_dict")
    MUTATORS = frozenset({"append", "extend", "insert", "update", "add"})

    def _base_names(self, node):
        return {_trailing_name(base) for base in node.bases} - {None}

    def _is_checkpointable(self, node, methods):
        if any(name in methods for name in self.ROUND_TRIP):
            return True
        bases = self.context.project.get("state_dict_classes", frozenset())
        return bool(self._base_names(node) & bases)

    def _np_array_value(self, value):
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Attribute)
                and _is_np(value.func.value)
                and value.func.attr in self.ARRAY_CTORS):
            return True
        # [np.zeros_like(p) for p in ...] — per-parameter state lists
        if isinstance(value, ast.ListComp):
            return self._np_array_value(value.elt)
        return False

    def _self_attr(self, target):
        if (isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"):
            return target.attr
        return None

    def _mentions(self, methods):
        """Attribute names + string keys referenced in the round-trip pair."""
        mentioned = set()
        for name in self.ROUND_TRIP:
            method = methods.get(name)
            if method is None:
                continue
            for sub in ast.walk(method):
                attr = None
                if isinstance(sub, ast.Attribute):
                    attr = self._self_attr(sub) or sub.attr
                elif isinstance(sub, ast.Constant) and isinstance(
                        sub.value, str):
                    attr = sub.value
                if attr:
                    mentioned.add(attr)
                    mentioned.add("_" + attr)
        return mentioned

    def visit_ClassDef(self, node):
        methods = {item.name: item for item in node.body
                   if isinstance(item, ast.FunctionDef)}
        if not self._is_checkpointable(node, methods):
            self.generic_visit(node)
            return

        init = methods.get("__init__")
        stateful = {}          # attr -> first assignment node
        accumulators = {}      # attrs starting as [] / {} in __init__
        for name, method in methods.items():
            if name in self.ROUND_TRIP:
                continue
            for sub in ast.walk(method):
                if not isinstance(sub, ast.Assign):
                    continue
                for target in sub.targets:
                    attr = self._self_attr(target)
                    if attr is None:
                        continue
                    if self._np_array_value(sub.value):
                        stateful.setdefault(attr, sub)
                    elif (method is init and isinstance(
                            sub.value, (ast.List, ast.Dict))
                            and not getattr(sub.value, "elts", None)
                            and not getattr(sub.value, "keys", None)):
                        accumulators.setdefault(attr, sub)

        # an empty container only matters if training-time methods grow it
        for name, method in methods.items():
            if name == "__init__" or name in self.ROUND_TRIP:
                continue
            for sub in ast.walk(method):
                if (isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Attribute)
                        and sub.func.attr in self.MUTATORS):
                    attr = self._self_attr(sub.func.value)
                    if attr in accumulators:
                        stateful.setdefault(attr, accumulators[attr])

        if not stateful:
            self.generic_visit(node)
            return
        mentioned = self._mentions(methods)
        defines_round_trip = any(n in methods for n in self.ROUND_TRIP)
        for attr, assignment in sorted(stateful.items()):
            if attr in mentioned or attr.lstrip("_") in mentioned:
                continue
            if defines_round_trip:
                self.report(assignment,
                            f"{node.name}.{attr} holds array state but "
                            f"never appears in state_dict/load_state_dict")
            else:
                self.report(assignment,
                            f"{node.name}.{attr} holds array state but the "
                            f"class inherits a state_dict that cannot know "
                            f"about it")
        self.generic_visit(node)


# ----------------------------------------------------------------------
class UnsortedFsIteration(Rule):
    """RPR008 — directory listings are OS-ordered; sort before iterating."""

    id = "RPR008"
    title = "iteration over unsorted filesystem listing"
    severity = "warning"
    hint = "wrap the listing in sorted(...) before iterating"
    rationale = ("iterdir/listdir/glob yield entries in filesystem order, "
                 "which differs across machines and mutates as files land; "
                 "feeding that order into records, placement, or reports "
                 "makes runs environment-dependent.")

    FS_METHODS = frozenset({"iterdir", "glob", "rglob"})
    FS_MODULE_FUNCS = {"os": {"listdir", "scandir"},
                       "glob": {"glob", "iglob"}}

    def _is_fs_listing(self, node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Attribute):
            if func.attr in self.FS_METHODS:
                return True
            if (isinstance(func.value, ast.Name)
                    and func.attr in self.FS_MODULE_FUNCS.get(
                        func.value.id, ())):
                return True
        return False

    def _check(self, node, where):
        if self._is_fs_listing(node):
            self.report(node, f"{where} iterates a filesystem listing in "
                              f"OS-dependent order")

    def visit_For(self, node):
        self._check(node.iter, "for loop")
        self.generic_visit(node)

    def visit_ListComp(self, node):
        for generator in node.generators:
            self._check(generator.iter, "list comprehension")
        self.generic_visit(node)

    def visit_Call(self, node):
        if (isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple", "enumerate")
                and node.args):
            self._check(node.args[0], f"{node.func.id}()")
        self.generic_visit(node)


# ----------------------------------------------------------------------
class RawTimerInHotPath(Rule):
    """RPR009 — instrumented hot paths must time through ``repro.obs``."""

    id = "RPR009"
    title = "raw timer in an instrumented hot path"
    severity = "warning"
    hint = ("time through repro.obs — span() for traced sections, "
            "timed_span() for durations a counter or caller reads, "
            "stopwatch() for plain wall timing — or mark a deliberate "
            "exception with # repro: noqa RPR009")
    rationale = ("training/, sampling/, autodiff/, and experiments/ are "
                 "instrumented with repro.obs spans; an ad-hoc "
                 "time.perf_counter() or Timer there produces durations the "
                 "profiler cannot see, so `repro runs profile` under-reports "
                 "exactly the code someone bothered to time.")

    #: subsystems whose timings must flow through the span tracer
    HOT_PATHS = ("training/", "sampling/", "autodiff/", "experiments/")
    BANNED_CLOCKS = frozenset({"perf_counter", "perf_counter_ns",
                               "monotonic", "monotonic_ns"})

    def applies_to(self, context):
        path = context.scope_path().replace("\\", "/")
        return any(part in path for part in self.HOT_PATHS)

    def visit_Call(self, node):
        func = node.func
        if (isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
                and func.attr in self.BANNED_CLOCKS):
            self.report(node, f"time.{func.attr}() bypasses the repro.obs "
                              f"tracer in an instrumented hot path")
        elif (isinstance(func, ast.Name)
                and func.id in self.BANNED_CLOCKS):
            self.report(node, f"{func.id}() bypasses the repro.obs tracer "
                              f"in an instrumented hot path")
        elif isinstance(func, ast.Name) and func.id == "Timer":
            self.report(node, "Timer() bypasses the repro.obs tracer in an "
                              "instrumented hot path")
        self.generic_visit(node)
