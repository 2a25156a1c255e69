"""Generators and oracles shared by the test modules.

Specification families as text: a cyclic `chain` of one-step functions, a
`push_back_chain` of functions that each push an element back, a
`ring` of constants over a halving function, a constant behind a cons
`prefix`, a `comb` of n nested calls and a `constant_comb` of n constants,
both over a two-argument function and a second constant, a constant under
`nested_calls` of two-rule functions, a `two_rule_width` function whose
second rule reads k elements, `random_flat_spec`, a random exhaustive
flat specification, and `random_mixed_spec`, a random specification mixing
every rule shape.
`chain(16)`, `ring(6)` and `prefix(20)` are the files of the same names
under `tests/data/`.  Random IO-expression systems, production terms and
canonical IO-terms come with the rng they draw from, so a seed pins each
one; `kleene_lfp` is the least fixed point by iteration, `children`
the subterms of a production term, for walks over it, `diagram` the
solver's diagram read as lists, the reference its solutions are checked
against, and `edge_lists` a trace graph's silent, '+' and '-' edges.
"""

import itertools

from prodcheck.equations import EEmpty, EInf, EStep, EVar, IOSpec
from prodcheck.ioalg import TOP, IOTerm, interpret, normalize
from prodcheck.prodterm import Box, Meet, Mu, Peb, Src, Var
from prodcheck.solver import _columns


def _spec(constants, functions, rules, arity=1) -> str:
    return "Signature(\n  %s : stream(nat),\n  %s : %sstream(nat),\n  0 : nat\n)\n%s\n" % (
        ", ".join(constants),
        ", ".join(functions),
        "stream(nat) -> " * arity,
        "\n".join(rules),
    )


def chain(n: int, name: str = "f") -> str:
    """C = 0:f00(C), f_i(x:s) = x:f_{i+1 mod n}(s), the functions named
    `name` and two digits."""
    fs = ["%s%02d" % (name, i) for i in range(n)]
    rules = ["C = 0:%s(C)" % fs[0]] + ["%s(x:s) = x:%s(s)" % (fs[i], fs[(i + 1) % n]) for i in range(n)]
    return _spec(["C"], fs, rules)


def push_back_chain(n: int, name: str = "f") -> str:
    """C = 0:f00(C), f_i(x:y:s) = x:f_{i+1 mod n}(y:x:s), the functions
    named `name` and two digits."""
    fs = ["%s%02d" % (name, i) for i in range(n)]
    rules = ["C = 0:%s(C)" % fs[0]] + ["%s(x:y:s) = x:%s(y:x:s)" % (fs[i], fs[(i + 1) % n]) for i in range(n)]
    return _spec(["C"], fs, rules)


def ring(n: int) -> str:
    """P_i = 0:f(P_{i+1 mod n}) over the halving f(x:y:s) = x:f(s)."""
    ps = ["P%d" % i for i in range(n)]
    rules = ["%s = 0:f(%s)" % (ps[i], ps[(i + 1) % n]) for i in range(n)] + ["f(x:y:s) = x:f(s)"]
    return _spec(ps, ["f"], rules)


def prefix(m: int) -> str:
    """P = 0:...:0:f(P), m conses, over the identity f(x:s) = x:f(s)."""
    return _spec(["P"], ["f"], ["P = %sf(P)" % ("0:" * m), "f(x:s) = x:f(s)"])


def comb(n: int) -> str:
    """C = 0:f(...f(C, D)..., D), n deep, with D = 0:D, over the
    two-argument identity f(x:s, t) = x:f(s, t)."""
    rhs = "C"
    for _ in range(n):
        rhs = "f(%s, D)" % rhs
    return _spec(["C", "D"], ["f"], ["C = 0:" + rhs, "D = 0:D", "f(x:s, t) = x:f(s, t)"], arity=2)


def constant_comb(n: int) -> str:
    """C_i = 0:f(C_{i+1}, D) for i < n, C_n = 0:C_n and D = 0:D, over the
    two-argument identity f(x:s, t) = x:f(s, t)."""
    cs = ["C%d" % i for i in range(n + 1)]
    rules = ["%s = 0:f(%s, D)" % (cs[i], cs[i + 1]) for i in range(n)]
    rules += ["%s = 0:%s" % (cs[n], cs[n]), "D = 0:D", "f(x:s, t) = x:f(s, t)"]
    return _spec(cs + ["D"], ["f"], rules, arity=2)


def nested_calls(n: int) -> str:
    """C = 0:f0(f1(...f<n-1>(C))) over n functions of two rules each,
    f_i(0:xs) = 0:f_i(xs) and f_i(s(x):xs) = x:x:f_i(xs)."""
    fs = ["f%d" % i for i in range(n)]
    rhs = "C"
    for f in reversed(fs):
        rhs = "%s(%s)" % (f, rhs)
    rules = ["C = 0:" + rhs]
    for f in fs:
        rules += ["%s(0:xs) = 0:%s(xs)" % (f, f), "%s(s(x):xs) = x:x:%s(xs)" % (f, f)]
    return "Signature(\n  C : stream(nat),\n  %s : stream(nat) -> stream(nat),\n  0 : nat,\n  s : nat -> nat\n)\n%s\n" % (
        ", ".join(fs),
        "\n".join(rules),
    )


def two_rule_width(k: int) -> str:
    """C = 0:f(C) over f(0:s) = 0:f(s), f(1:x2:...:xk:s) = 1:x2:...:xk:f(s),
    whose gate is [inf](-^{k-1}(-+)): about k columns of O(k) nodes."""
    word = ":".join(["1"] + ["x%d" % i for i in range(2, k + 1)])
    rules = ["C = 0:f(C)", "f(0:s) = 0:f(s)", "f(%s:s) = %s:f(s)" % (word, word)]
    return "Signature(\n  C : stream(bit),\n  f : stream(bit) -> stream(bit),\n  0, 1 : bit\n)\n%s\n" % "\n".join(rules)


def random_flat_spec(rng, max_feedback=1):
    """Random exhaustive flat specification over bits; each argument of a
    call gets up to `max_feedback` elements pushed back in front of it."""
    funs = {"f%d" % i: rng.randrange(1, 3) for i in range(rng.randrange(1, 3))}
    cons = ["C%d" % i for i in range(rng.randrange(1, 3))]
    decls = [", ".join(cons) + " : stream(bit)"]
    for f, a in funs.items():
        decls.append("%s : %s" % (f, " -> ".join(["stream(bit)"] * (a + 1))))
    decls.append("0, 1 : bit")
    rules = []
    for f, a in funs.items():
        for d in ("0", "1"):  # exhaustive split on the head of argument 1
            consume = [rng.randrange(1, 3) for _ in range(a)]
            pats = []
            for i, c in enumerate(consume):
                parts = [d] if i == 0 else ["y%d_0" % i]
                parts += ["y%d_%d" % (i, j) for j in range(1, c)]
                pats.append(":".join(parts + ["s%d" % i]))
            out = [rng.choice("01") for _ in range(rng.randrange(0, 3))]
            if rng.random() < 0.35:
                tail = "s%d" % rng.randrange(a)
            else:
                g = rng.choice(sorted(funs))
                args = []
                for _ in range(funs[g]):
                    src = rng.randrange(a)
                    fb = [rng.choice("01") for _ in range(rng.randrange(0, max_feedback + 1))]
                    args.append(":".join(fb + ["s%d" % src]))
                tail = "%s(%s)" % (g, ",".join(args))
            rules.append("%s(%s) = %s" % (f, ",".join(pats), ":".join(out + [tail])))
    for c in cons:
        out = [rng.choice("01") for _ in range(rng.randrange(0, 3))]
        f = rng.choice(sorted(funs))
        args = ",".join(rng.choice(cons) for _ in range(funs[f]))
        tail = "%s(%s)" % (f, args) if rng.random() < 0.8 else rng.choice(cons)
        rules.append("%s = %s" % (c, ":".join(out + [tail])))
    return "Signature( " + ", ".join(decls) + " )\n" + "\n".join(rules)


def random_mixed_spec(rng, depth=3):
    """Random specification over nat that mixes every rule shape: constants
    with and without a data argument and with 1-3 rules, and functions of
    stream arity 1-2 with cons-prefix patterns, of 1 rule or 2 split on the
    head of their first argument.  Right-hand sides, at most `depth` deep,
    mix conses, variables, tail calls, nested calls and calls to constants.
    The result need not be exhaustive, guarded or productive."""
    consts = {"C%d" % i: rng.random() < 0.5 for i in range(rng.randrange(1, 4))}  # name -> takes a data argument
    funs = {"f%d" % i: rng.randrange(1, 3) for i in range(rng.randrange(1, 3))}

    def data(dvars):
        return rng.choice(["0", "s(0)"] + dvars)

    def stream(svars, dvars, depth):
        kind = rng.choice(["cons", "var", "call", "const"] if depth else ["var", "const"])
        if kind == "cons":
            return "%s:%s" % (data(dvars), stream(svars, dvars, depth - 1))
        if kind == "var" and svars:
            return rng.choice(svars)
        if kind == "call":
            g = rng.choice(sorted(funs))
            return "%s(%s)" % (g, ", ".join(stream(svars, dvars, depth - 1) for _ in range(funs[g])))
        c = rng.choice(sorted(consts))
        return "%s(%s)" % (c, data(dvars)) if consts[c] else c

    decls = ["%s : %sstream(nat)" % (c, "nat -> " if takes else "") for c, takes in consts.items()]
    decls += ["%s : %sstream(nat)" % (f, "stream(nat) -> " * a) for f, a in funs.items()]
    rules = []
    for c, takes in consts.items():
        for pat in [["x"], ["0", "s(x)"], ["0", "s(0)", "s(s(x))"]][rng.randrange(3)] if takes else [None]:
            lhs = c if pat is None else "%s(%s)" % (c, pat)
            rules.append("%s = %s" % (lhs, stream([], ["x"] if pat and "x" in pat else [], depth)))
    for f, a in funs.items():
        for head in rng.choice([[None], ["0", "s(y)"]]):
            pats, dvars = [], ["y"] if head == "s(y)" else []
            for i in range(a):
                parts = ["x%d_%d" % (i, j) for j in range(rng.randrange(0, 3))]
                if i == 0 and head is not None:
                    parts = [head] + parts
                dvars += [v for v in parts if v.startswith("x")]
                pats.append(":".join(parts + ["t%d" % i]))
            rules.append("%s(%s) = %s" % (f, ", ".join(pats), stream(["t%d" % i for i in range(a)], dvars, depth)))
    return "Signature( %s, 0 : nat, s : nat -> nat )\n%s\n" % (", ".join(decls), "\n".join(rules))


def diagram(g, first, n):
    """The first n columns of the solver's diagram over the trace graph `g`
    from `first` (node -> height), and their bounds, as two lists."""
    pairs = list(itertools.islice(_columns(g, first), n))
    return [col for col, _ in pairs], [beta for _, beta in pairs]


def edge_lists(g):
    """The silent, '+' and '-' successors of every node of the trace graph
    `g`, as three lists indexed by node id."""
    lists = {None: [], "+": [], "-": []}
    for out, sym in zip(g.succ, g.label):
        for key, edges in lists.items():
            edges.append(out if key == sym else [])
    return lists[None], lists["+"], lists["-"]


def random_system(rng, max_eqs=5, max_size=8):
    """Random IO-expression system over variables ("v", "X<i>"), every one
    a root; it need not be weakly guarded."""
    names = [("v", "X%d" % i) for i in range(rng.randrange(1, max_eqs + 1))]

    def expr(budget):
        kind = rng.choice(["step", "step", "var", "inf", "empty"])
        if budget <= 1:
            kind = rng.choice(["var", "empty"])
        if kind == "empty":
            return EEmpty()
        if kind == "var":
            return EVar(rng.choice(names))
        if kind == "step":
            return EStep(rng.choice("-+"), expr(budget - 1))
        left = budget // 2
        return EInf(expr(left), expr(budget - 1 - left))

    table = {n: expr(rng.randrange(2, max_size + 1)) for n in names}
    return IOSpec(table, tuple(names))


def random_closed_term(rng, size, scope=(), loop_len=4):
    """Random closed production term with about `size` constructors."""

    def ioterm():
        while True:
            pre = "".join(rng.choice("-+") for _ in range(rng.randrange(loop_len + 1)))
            loop = "".join(rng.choice("-+") for _ in range(rng.randrange(loop_len + 1)))
            if loop and "+" not in loop:
                continue
            return IOTerm(pre, loop)

    def build(budget, scope):
        if budget <= 1:
            if scope and rng.random() < 0.5:
                return Var(rng.choice(scope))
            return Src(rng.choice([0, 1, 2, 5, TOP]))
        kind = rng.choice(["peb", "box", "mu", "meet", "leaf"])
        if kind == "leaf":
            return build(1, scope)
        if kind == "peb":
            return Peb(build(budget - 1, scope))
        if kind == "box":
            return Box(ioterm(), build(budget - 1, scope))
        if kind == "mu":
            name = "x%d" % len(scope)
            return Mu(name, build(budget - 1, scope + (name,)))
        left = budget // 2
        return Meet(build(left, scope), build(budget - 1 - left, scope))

    return build(size, tuple(scope))


def children(t):
    """The direct subterms of a production term, left to right."""
    if isinstance(t, (Peb, Box, Mu)):
        return (t.body,)
    if isinstance(t, Meet):
        return (t.left, t.right)
    return ()


def random_canonical(rng, max_len=6, loop_p=0.8):
    """Random canonical IO-term with prefix and loop lengths up to
    `max_len`; it has a loop with probability `loop_p`."""
    while True:
        pre = "".join(rng.choice("-+") for _ in range(rng.randrange(max_len + 1)))
        if rng.random() < loop_p:
            loop = "".join(rng.choice("-+") for _ in range(rng.randrange(1, max_len + 1)))
            if "+" not in loop:
                continue
            return normalize(IOTerm(pre, loop))
        return normalize(IOTerm(pre, ""))


def kleene_lfp(s, cap=200):
    """Independent oracle: iterate the interpretation from 0."""
    v = 0
    for _ in range(cap):
        nv = interpret(s, v)
        if nv == v:
            return v
        v = nv
    return TOP  # justified: fixed points of these small terms are far below cap
