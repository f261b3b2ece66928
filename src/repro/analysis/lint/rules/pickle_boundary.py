"""RPR004: only whitelisted shapes cross the supervisor's queues.

Everything on the worker queues must pickle on the way out *and*
unpickle in a process that may not share the sender's module state —
the reason failures travel as ``err`` messages carrying a plain
evidence dict (the formatted remote traceback as text) instead of
arbitrary exception objects.  The rule checks the two directions:

* every ``.put()`` on a queue receiver (or ``.send()`` on a result
  pipe) carries ``None`` (the stop
  sentinel) or a literal tuple whose elements are constants, names,
  attribute loads, literal dicts/lists or calls to pickle-safe
  constructors (:data:`~repro.analysis.lint.policy.PICKLE_SAFE_CALLS`);
* worker-side code never raises ``BaseException`` family types that
  would escape ``_worker_main``'s ``except Exception`` boundary, which
  turns every task failure into an ``err`` message.
"""

from __future__ import annotations

import ast

from repro.analysis.lint import policy
from repro.analysis.lint.engine import FileContext, Rule, dotted_name
from repro.analysis.lint.rules.determinism import _worker_scope


def _payload_problem(node: ast.AST) -> str | None:
    """Why this payload element is not statically pickle-safe, or None."""
    if isinstance(node, ast.Constant):
        return None
    if isinstance(node, (ast.Name, ast.Attribute, ast.Subscript)):
        return None
    if isinstance(node, (ast.Tuple, ast.List)):
        for elt in node.elts:
            problem = _payload_problem(elt)
            if problem:
                return problem
        return None
    if isinstance(node, ast.Dict):
        for key in node.keys:
            if not isinstance(key, ast.Constant):
                return "dict payload with a non-constant key"
        for value in node.values:
            problem = _payload_problem(value)
            if problem:
                return problem
        return None
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in policy.PICKLE_SAFE_CALLS:
            return None
        return (
            f"call to {name or 'a dynamic target'}() is not in the "
            "pickle-safe whitelist"
        )
    if isinstance(node, (ast.Lambda, ast.GeneratorExp)):
        return "lambdas/generators do not pickle"
    if isinstance(node, (ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare,
                         ast.IfExp)):
        return None  # scalar expression of already-checked operands
    return f"{type(node).__name__} expression is not whitelisted"


class PickleBoundaryRule(Rule):
    id = "RPR004"
    name = "pickle-boundary"
    severity = "error"
    hint = (
        "queue payloads must be the None sentinel or literal tuples of "
        "pickle-safe values; worker errors cross as err messages "
        "built in _worker_main's except Exception boundary"
    )

    def applies(self, module: str) -> bool:
        return "repro/campaign/" in module

    def check(self, ctx: FileContext):
        findings = []
        findings.extend(self._check_puts(ctx))
        findings.extend(self._check_raises(ctx))
        return findings

    def _check_puts(self, ctx: FileContext):
        findings = []
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("put", "put_nowait", "send")
            ):
                continue
            receiver = dotted_name(node.func.value)
            if receiver is None:
                continue
            if receiver.split(".")[-1] not in policy.QUEUE_RECEIVER_NAMES:
                continue
            if not node.args:
                continue
            payload = node.args[0]
            if isinstance(payload, ast.Constant) and payload.value is None:
                continue
            if not isinstance(payload, ast.Tuple):
                findings.append(ctx.finding(
                    self,
                    payload,
                    f"queue payload on {receiver}.{node.func.attr}() is not "
                    "the None sentinel or a literal message tuple",
                ))
                continue
            problem = _payload_problem(payload)
            if problem:
                findings.append(ctx.finding(
                    self,
                    payload,
                    f"queue payload on {receiver}.{node.func.attr}(): "
                    f"{problem}",
                ))
        return findings

    def _check_raises(self, ctx: FileContext):
        findings = []
        for func in _worker_scope(ctx.tree):
            for stmt in func.body:
                for node in ast.walk(stmt):
                    if not isinstance(node, ast.Raise) or node.exc is None:
                        continue
                    exc = node.exc
                    if isinstance(exc, ast.Call):
                        exc = exc.func
                    name = dotted_name(exc)
                    if name is None:
                        continue
                    if (
                        name.split(".")[-1]
                        in policy.FORBIDDEN_WORKER_RAISES
                    ):
                        findings.append(ctx.finding(
                            self,
                            node,
                            f"worker-side raise of {name} escapes "
                            "_worker_main's except Exception boundary",
                        ))
        return findings
