"""DET004: transitive purity of marked kernels.

A pure kernel (such as the batched circuit step) must be a closed-form
function of its inputs — any hidden state (globals, parameter mutation, I/O,
randomness, wall clock) would let the same inputs produce different results.
This pass checks every registered kernel root (config table + every function
decorated ``@pure_kernel``) and follows intra-package calls transitively.  A
configured root that does not resolve to a function of the linted tree is
itself a finding, so deleting or renaming a kernel cannot silently drop its
check.

What counts as a violation inside a kernel:

* ``global`` / ``nonlocal`` declarations;
* assigning / aug-assigning / deleting an attribute or subscript rooted in a
  **parameter** (argument mutation) or a **module-level name** (hidden state);
* calling a known mutating method (``append``/``add``/``update``/…) on a
  parameter or module-level root;
* calling an I/O or environment primitive (``open``/``print``/``os.*``/…);
* wall-clock or ambient-randomness calls (delegated sets from DET001/DET002);
* calling another intra-package function that is itself impure — unless every
  one of its violations is pragma-suppressed with a reason, which counts as a
  human having vetted it.

Method calls on non-parameter objects and third-party calls (numpy) are
assumed pure: the pass is a reviewed contract, not a sandbox.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.model import ModuleInfo
from repro.lint.rules import _WALL_CLOCK_CALLS

#: container/file methods that mutate their receiver
_MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "pop", "popitem", "clear",
    "remove", "discard", "setdefault", "sort", "reverse",
    "appendleft", "extendleft", "popleft",
    "write", "writelines", "truncate", "flush",
    # numpy in-place surface
    "fill", "resize", "put", "partition", "setfield", "itemset",
})

#: calls that touch the world outside the function's arguments
_IO_CALLS = frozenset({"open", "print", "input", "exec", "eval"})
_IO_PREFIXES = ("os.", "sys.", "shutil.", "subprocess.", "socket.", "logging.")
_RANDOM_PREFIXES = ("random.", "secrets.", "numpy.random.")

HINT = (
    "pure kernels may only compute from their arguments: hoist hidden state "
    "into an argument, return new values instead of mutating, or vet the "
    "line with '# det: allow[DET004] <reason>'"
)
UNRESOLVED_HINT = (
    "point the root at an existing module-level function, or remove it from "
    "lint.toml [lint.kernels] roots / DEFAULT_KERNEL_ROOTS"
)


@dataclass
class _Violation:
    module: ModuleInfo
    node: ast.AST
    message: str

    @property
    def suppressed(self) -> bool:
        line = getattr(self.node, "lineno", 1)
        pragma = self.module.pragmas.get(line)
        if pragma is None or not pragma.covers("DET004") or not pragma.has_reason:
            return False
        return True


class PurityChecker:
    """Whole-package DET004 pass over the modules the engine parsed."""

    rule_id = "DET004"
    title = "marked kernels must be pure, transitively"

    def __init__(self, modules: dict[str, ModuleInfo], kernel_roots: tuple[str, ...]) -> None:
        self.modules = modules
        self.kernel_roots = kernel_roots
        #: qualified function name -> list of violations (memo across roots)
        self._memo: dict[str, list[_Violation]] = {}
        self._in_progress: set[str] = set()

    # -- root discovery ---------------------------------------------------------------

    def _decorated_kernels(self) -> Iterator[tuple[ModuleInfo, ast.FunctionDef]]:
        for module in self.modules.values():
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.FunctionDef):
                    continue
                for decorator in node.decorator_list:
                    name = module.resolve(decorator)
                    if name and name.rsplit(".", 1)[-1] == "pure_kernel":
                        yield module, node
                        break

    def _resolve_root(self, qualified: str) -> tuple[ModuleInfo, ast.FunctionDef] | None:
        module_name, _, func_name = qualified.rpartition(".")
        module = self.modules.get(module_name)
        if module is None:
            return None
        func = module.functions.get(func_name)
        if func is None:
            return None
        return module, func

    # -- the pass ---------------------------------------------------------------------

    def _root_owner(self, qualified: str) -> ModuleInfo | None:
        """The linted module or package an unresolved root claims to live in.

        The root's own module, else its parent package: roots that point
        outside the linted tree altogether belong to another lint run.
        """
        module_name = qualified.rpartition(".")[0]
        module = self.modules.get(module_name)
        if module is None:
            module = self.modules.get(module_name.rpartition(".")[0])
        return module

    def check(self) -> Iterator[Finding]:
        seen: set[tuple[str, str]] = set()
        roots: list[tuple[ModuleInfo, ast.FunctionDef]] = []
        for qualified in self.kernel_roots:
            resolved = self._resolve_root(qualified)
            if resolved is not None:
                roots.append(resolved)
                continue
            owner = self._root_owner(qualified)
            if owner is not None:
                yield Finding(
                    rule=self.rule_id,
                    path=owner.rel_path,
                    line=1,
                    col=1,
                    message=f"kernel root {qualified} does not resolve to a function",
                    hint=UNRESOLVED_HINT,
                )
        roots.extend(self._decorated_kernels())
        for module, func in roots:
            for violation in self._function_violations(module, func):
                key = (
                    violation.module.rel_path,
                    f"{getattr(violation.node, 'lineno', 1)}:{violation.message}",
                )
                if key in seen:
                    continue
                seen.add(key)
                yield Finding(
                    rule=self.rule_id,
                    path=violation.module.rel_path,
                    line=getattr(violation.node, "lineno", 1),
                    col=getattr(violation.node, "col_offset", 0) + 1,
                    message=violation.message,
                    hint=HINT,
                )

    def _function_violations(self, module: ModuleInfo, func: ast.FunctionDef) -> list[_Violation]:
        qualified = f"{module.module_name}.{func.name}"
        if qualified in self._memo:
            return self._memo[qualified]
        if qualified in self._in_progress:
            return []  # recursion cycle: optimistically pure, the caller reports
        self._in_progress.add(qualified)
        try:
            violations = list(self._collect(module, func))
        finally:
            self._in_progress.discard(qualified)
        self._memo[qualified] = violations
        return violations

    def _collect(self, module: ModuleInfo, func: ast.FunctionDef) -> Iterator[_Violation]:
        args = func.args
        params = {
            arg.arg
            for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        }
        if args.vararg:
            params.add(args.vararg.arg)
        if args.kwarg:
            params.add(args.kwarg.arg)
        kernel_name = func.name

        for node in ast.walk(func):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                kind = "global" if isinstance(node, ast.Global) else "nonlocal"
                yield _Violation(
                    module, node,
                    f"kernel {kernel_name} declares {kind} {', '.join(node.names)}",
                )
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Delete)):
                yield from self._check_store(module, node, params, kernel_name)
            elif isinstance(node, ast.Call):
                yield from self._check_call(module, node, params, kernel_name)

    def _targets(self, node: ast.AST) -> list[ast.AST]:
        if isinstance(node, ast.Assign):
            return list(node.targets)
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return [node.target]
        if isinstance(node, ast.Delete):
            return list(node.targets)
        return []

    def _check_store(self, module, node, params, kernel_name) -> Iterator[_Violation]:
        for target in self._targets(node):
            queue = [target]
            while queue:
                item = queue.pop()
                if isinstance(item, (ast.Tuple, ast.List)):
                    queue.extend(item.elts)
                    continue
                if isinstance(item, ast.Starred):
                    queue.append(item.value)
                    continue
                if not isinstance(item, (ast.Attribute, ast.Subscript)):
                    continue  # plain Name stores create locals: pure
                root = _root_name(item)
                if root is None:
                    continue
                what = "attribute" if isinstance(item, ast.Attribute) else "element"
                if root in params:
                    yield _Violation(
                        module, node,
                        f"kernel {kernel_name} writes {what} of parameter {root!r}",
                    )
                elif root in module.global_names:
                    yield _Violation(
                        module, node,
                        f"kernel {kernel_name} writes {what} of module-level state {root!r}",
                    )

    def _check_call(self, module, node, params, kernel_name) -> Iterator[_Violation]:
        func = node.func
        resolved = module.resolve(func)
        if isinstance(func, ast.Attribute) and func.attr in _MUTATING_METHODS:
            root = _root_name(func)
            if root in params:
                yield _Violation(
                    module, node,
                    f"kernel {kernel_name} mutates parameter {root!r} via .{func.attr}()",
                )
                return
            if root is not None and root in module.global_names:
                yield _Violation(
                    module, node,
                    f"kernel {kernel_name} mutates module-level state {root!r} via .{func.attr}()",
                )
                return
        if resolved is None:
            return
        if resolved in _IO_CALLS or resolved.startswith(_IO_PREFIXES):
            yield _Violation(
                module, node, f"kernel {kernel_name} performs I/O: {resolved}()"
            )
        elif resolved in _WALL_CLOCK_CALLS:
            yield _Violation(
                module, node, f"kernel {kernel_name} reads the wall clock: {resolved}()"
            )
        elif resolved.startswith(_RANDOM_PREFIXES):
            yield _Violation(
                module, node, f"kernel {kernel_name} draws ambient randomness: {resolved}()"
            )
        elif resolved.startswith("repro.") or resolved.rsplit(".", 1)[0] == module.module_name:
            yield from self._check_transitive_call(module, node, resolved, kernel_name)
        elif "." not in resolved and resolved in module.functions:
            qualified = f"{module.module_name}.{resolved}"
            yield from self._check_transitive_call(module, node, qualified, kernel_name)

    def _check_transitive_call(self, module, node, qualified, kernel_name) -> Iterator[_Violation]:
        target = self._resolve_root(qualified)
        if target is None:
            return
        callee_module, callee = target
        callee_violations = self._function_violations(callee_module, callee)
        unsuppressed = [v for v in callee_violations if not v.suppressed]
        if unsuppressed:
            first = unsuppressed[0]
            yield _Violation(
                module, node,
                f"kernel {kernel_name} calls impure {qualified} ({first.message})",
            )


def _root_name(node: ast.AST) -> str | None:
    """Peel an Attribute/Subscript chain down to its base name."""
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None
