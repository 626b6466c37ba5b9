"""Hash-consed Boolean circuits with partial evaluation, Tseitin CNF
conversion, and a small complete SAT search.

Circuits are built inside an ExprPool and referred to by integer node ids;
structurally equal subcircuits share one node, so folding a universal
assignment into a large matrix reuses work across instances.  Variables
carry caller-chosen positive integer indices, which double as DIMACS
indices.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .core import ContractViolation


class ExprPool:
    """Arena of interned Boolean expression nodes.

    Node kinds: 'v' var, 'c' const, 'n' negation, 'a' and, 'o' or.
    Constructors fold constants, flatten nested conjunctions and
    disjunctions, drop duplicates, and cancel x against !x.
    """

    def __init__(self):
        self.kinds: list[str] = []
        self.payloads: list = []
        self._intern: dict = {}
        self.FALSE = self._mk("c", False)
        self.TRUE = self._mk("c", True)

    def _mk(self, kind: str, payload) -> int:
        key = (kind, payload)
        found = self._intern.get(key)
        if found is not None:
            return found
        node = len(self.kinds)
        self.kinds.append(kind)
        self.payloads.append(payload)
        self._intern[key] = node
        return node

    def const(self, value: bool) -> int:
        return self.TRUE if value else self.FALSE

    def var(self, index: int) -> int:
        if index < 1:
            raise ContractViolation("variable indices start at 1")
        return self._mk("v", index)

    def neg(self, e: int) -> int:
        kind = self.kinds[e]
        if kind == "c":
            return self.FALSE if self.payloads[e] else self.TRUE
        if kind == "n":
            return self.payloads[e]
        return self._mk("n", e)

    def _gate(self, kind: str, es: Iterable[int], absorb: int, neutral: int) -> int:
        flat: dict[int, None] = {}
        for e in es:
            if e == absorb:
                return absorb
            if e == neutral:
                continue
            if self.kinds[e] == kind:
                for c in self.payloads[e]:
                    flat[c] = None
            else:
                flat[e] = None
        children = tuple(flat)
        for c in children:
            if self.neg(c) in flat:
                return absorb
        if not children:
            return neutral
        if len(children) == 1:
            return children[0]
        return self._mk(kind, children)

    def conj(self, *es: int) -> int:
        return self._gate("a", es, self.FALSE, self.TRUE)

    def disj(self, *es: int) -> int:
        return self._gate("o", es, self.TRUE, self.FALSE)

    def conj_all(self, es: Iterable[int]) -> int:
        return self._gate("a", es, self.FALSE, self.TRUE)

    def disj_all(self, es: Iterable[int]) -> int:
        return self._gate("o", es, self.TRUE, self.FALSE)

    def implies(self, a: int, b: int) -> int:
        return self.disj(self.neg(a), b)

    def at_most_one(self, es: Sequence[int]) -> int:
        out = []
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                out.append(self.disj(self.neg(es[i]), self.neg(es[j])))
        return self.conj_all(out)

    def exactly_one(self, es: Sequence[int]) -> int:
        return self.conj(self.disj_all(es), self.at_most_one(es))

    def free_vars(self, e: int) -> frozenset[int]:
        seen: set[int] = set()
        out: set[int] = set()
        todo = [e]
        while todo:
            node = todo.pop()
            if node in seen:
                continue
            seen.add(node)
            kind = self.kinds[node]
            if kind == "v":
                out.add(self.payloads[node])
            elif kind == "n":
                todo.append(self.payloads[node])
            elif kind in ("a", "o"):
                todo.extend(self.payloads[node])
        return frozenset(out)

    def fold(self, e: int, assignment: dict[int, bool], memo: Optional[dict] = None) -> int:
        """Substitute the given variables and re-simplify bottom-up."""
        if memo is None:
            memo = {}
        return self._fold(e, assignment, memo)

    def _fold(self, e: int, asg: dict[int, bool], memo: dict) -> int:
        got = memo.get(e)
        if got is not None:
            return got
        kind = self.kinds[e]
        if kind == "c":
            out = e
        elif kind == "v":
            value = asg.get(self.payloads[e])
            out = e if value is None else self.const(value)
        elif kind == "n":
            out = self.neg(self._fold(self.payloads[e], asg, memo))
        else:
            children = [self._fold(c, asg, memo) for c in self.payloads[e]]
            out = self.conj_all(children) if kind == "a" else self.disj_all(children)
        memo[e] = out
        return out

    def tseitin(
        self, roots: Sequence[int], first_aux: int
    ) -> tuple[list[list[int]], int]:
        """Clauses asserting all roots, with auxiliaries from ``first_aux`` up.

        Returns (clauses, next unused variable index).  Shared subcircuits
        get one auxiliary each, across all roots.
        """
        lit: dict[int, int] = {}
        clauses: list[list[int]] = []
        next_aux = first_aux

        def walk(node: int) -> int:
            nonlocal next_aux
            got = lit.get(node)
            if got is not None:
                return got
            kind = self.kinds[node]
            if kind == "v":
                out = self.payloads[node]
            elif kind == "c":
                raise ContractViolation(
                    "constant below a gate: constructor folding was bypassed"
                )
            elif kind == "n":
                out = -walk(self.payloads[node])
            else:
                child_lits = [walk(c) for c in self.payloads[node]]
                out = next_aux
                next_aux += 1
                if kind == "a":
                    for c in child_lits:
                        clauses.append([-out, c])
                    clauses.append([out] + [-c for c in child_lits])
                else:
                    for c in child_lits:
                        clauses.append([out, -c])
                    clauses.append([-out] + child_lits)
            lit[node] = out
            return out

        for root in roots:
            if self.kinds[root] == "c":
                if not self.payloads[root]:
                    clauses.append([])  # unsatisfiable root
                continue
            clauses.append([walk(root)])
        return clauses, next_aux


def solve_cnf(clauses: list[list[int]], n_vars: int) -> Optional[dict[int, bool]]:
    """Complete DPLL search with unit propagation.

    Returns an assignment for every variable 1..n_vars or None.  Intended
    for the desk-scale instances the expansion loop produces, not as a
    competitive solver.
    """
    assign: dict[int, bool] = {}
    watch: dict[int, list[int]] = {}
    for ci, clause in enumerate(clauses):
        if not clause:
            return None
        for l in clause:
            watch.setdefault(l, []).append(ci)

    def value(lit: int) -> Optional[bool]:
        v = assign.get(abs(lit))
        if v is None:
            return None
        return v if lit > 0 else not v

    def propagate(trail: list[int]) -> bool:
        # Scan-based unit propagation over the touched clauses.
        queue = list(trail)
        while queue:
            lit = queue.pop()
            for ci in watch.get(-lit, ()):
                clause = clauses[ci]
                unassigned = None
                satisfied = False
                for l in clause:
                    v = value(l)
                    if v is True:
                        satisfied = True
                        break
                    if v is None:
                        if unassigned is not None:
                            unassigned = 0  # two free literals: not unit
                            break
                        unassigned = l
                if satisfied or unassigned == 0:
                    continue
                if unassigned is None:
                    return False
                assign[abs(unassigned)] = unassigned > 0
                trail.append(unassigned)
                queue.append(unassigned)
        return True

    def pick() -> Optional[int]:
        for clause in clauses:
            free = None
            for l in clause:
                v = value(l)
                if v is True:
                    free = None
                    break
                if v is None and free is None:
                    free = l
            if free is not None:
                return free
        return None

    roots = []
    for clause in clauses:
        if len(clause) == 1:
            v = value(clause[0])
            if v is False:
                return None
            if v is None:
                assign[abs(clause[0])] = clause[0] > 0
                roots.append(clause[0])
    if not propagate(roots):
        return None

    # Iterative DPLL: each frame remembers its trail and whether the
    # flipped polarity was already tried.
    stack: list[list] = []
    while True:
        lit = pick()
        if lit is None:
            for v in range(1, n_vars + 1):
                assign.setdefault(v, False)
            return assign
        assign[abs(lit)] = lit > 0
        trail = [lit]
        ok = propagate(trail)
        stack.append([lit, trail, False])
        while not ok:
            while stack and stack[-1][2]:
                for done in stack[-1][1]:
                    assign.pop(abs(done), None)
                stack.pop()
            if not stack:
                return None
            frame = stack[-1]
            for done in frame[1]:
                assign.pop(abs(done), None)
            choice = -frame[0]
            frame[0], frame[2] = choice, True
            assign[abs(choice)] = choice > 0
            frame[1] = [choice]
            ok = propagate(frame[1])
