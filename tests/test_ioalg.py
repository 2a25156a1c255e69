import itertools
import random
import time

import pytest

from prodcheck import ioalg, prodterm
from prodcheck.ioalg import (
    EPSILON,
    TOP,
    IOTerm,
    compose,
    interpret,
    least_fixed_point,
    normalize,
    parse_ioterm,
    prepend,
    remove_requirement,
    render,
)
from prodcheck.equations import CapError, EEmpty, EInf, EVar, IOSpec, steps
from prodcheck.solver import infimum, solve

from specgen import kleene_lfp, random_canonical

T = parse_ioterm


def plus_count(t):
    return interpret(t, TOP)


def is_normal(t):
    """`t` is marked normal, and normalizing an unmarked copy gives `t`."""
    return t.normal and normalize(IOTerm.of_runs(t.prefix_runs, t.loop_runs)) == t


# --- interpretation -------------------------------------------------------


def test_interpret_staircase():
    s = T("-+++(-+-++)")
    assert [interpret(s, n) for n in range(6)] == [0, 3, 4, 6, 7, 9]


def test_interpret_empty():
    for n in (0, 3, TOP):
        assert interpret(EPSILON, n) == 0


def test_interpret_single_exchange_loop():
    assert interpret(T("(+-)"), 0) == 1


def test_interpret_at_top():
    assert interpret(T("(-+)"), TOP) == TOP
    assert interpret(T("++"), TOP) == 2
    assert plus_count(T("--++-")) == 2


def test_interpret_monotone():
    rng = random.Random(7)
    for _ in range(200):
        s = random_canonical(rng)
        vals = [interpret(s, n) for n in range(30)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))


# --- composition ----------------------------------------------------------


def test_compose_paper_steps():
    assert compose(T("+(-+)"), T("+(-+)")) == T("+(+-)")
    assert compose(T("+(+-)"), T("-(-+)")) == T("++-(-+)")


def test_compose_identity_neutral():
    rng = random.Random(1)
    for _ in range(100):
        s = random_canonical(rng)
        assert compose(T("(-+)"), s) == s


def test_compose_pointwise():
    rng = random.Random(2)
    for _ in range(300):
        s, t = random_canonical(rng), random_canonical(rng)
        c = compose(s, t)
        for n in list(range(33)) + [TOP]:
            assert interpret(c, n) == interpret(s, interpret(t, n))


def test_compose_associative():
    rng = random.Random(3)
    for _ in range(150):
        a, b, c = (random_canonical(rng, 4) for _ in range(3))
        assert normalize(compose(a, compose(b, c))) == normalize(compose(compose(a, b), c))


def _read_limit(monkeypatch, limit):
    """Every reader `ioalg` builds from here on fails once it is read more
    than `limit` times, so a composition that walks silent passes one at a
    time fails at once instead of running for ever."""
    build = ioalg._reader

    def counted_reader(u):
        read, left = build(u), [limit]

        def counted(n):
            left[0] -= 1
            if left[0] < 0:
                raise AssertionError("%r read more than %d times" % (u, limit))
            return read(n)

        return counted

    monkeypatch.setattr(ioalg, "_reader", counted_reader)


_COUNTS = (1, 2, 4, 2 ** 20, 2 ** 40, 2 ** 64)


def test_compose_at_counts_no_word_spells(monkeypatch):
    """Every pair of (-^a +^b), +^b and (+), with a and b up to 2^64: the
    composition reads as s after t at and next to multiples of every
    count, up to about 2^85, and at TOP.  A loop of (-+) inside a run of
    2^64 '-' is jumped, so no term is read more than 400 times."""
    start = time.perf_counter()
    terms = [IOTerm.of_runs((), (("-", a), ("+", b))) for a in _COUNTS for b in _COUNTS]
    terms += [IOTerm.of_runs((("+", b),)) for b in _COUNTS] + [T("(+)")]
    supplies = sorted({max(0, j * x + d) for x in _COUNTS for j in (1, 3, 2 ** 21 + 1) for d in (-1, 0, 1)})
    _read_limit(monkeypatch, 400)
    for s, t in itertools.product(terms, repeat=2):
        c = compose(s, t)
        for n in supplies + [TOP]:
            assert interpret(c, n) == interpret(s, interpret(t, n)), (s, t, n)
    assert time.perf_counter() - start < 1.0


def test_compose_loop_endings(monkeypatch):
    """One case for each way the reading ends, checked against the symbol
    reference where it can spell the operands out: an all-output tail, an
    outer word with nothing left to output, an inner word that ends, a
    phase of the outer loop that repeats (with and without a prefix before
    it), and the passes of (-+) that (-^{2^64} +) turns into no output,
    2^64 - 2 of them jumped by a gallop and a bisection of 64 reads each."""
    cases = [
        ("-(+)", "(--+)", "--(+)"),  # all output once t has output 1
        ("-+-+", "(-+)", "-+-+"),  # s is spent at t's output 2
        ("(-++)", "-+-+", "-++-++"),  # t is a finite word
        ("(-+--++)", "(-++)", "(-+-+++-++)"),  # phase 0 again after 3 passes
        ("+-+(--+++)", "-(-+)", "+--(+--++)"),  # the same, after a prefix
    ]
    for s, t, want in cases:
        assert compose(T(s), T(t)) == T(want) == _reference_compose(T(s), T(t)), (s, t)
    _read_limit(monkeypatch, 400)
    s = IOTerm.of_runs((), (("-", 2 ** 64), ("+", 1)))
    assert compose(s, T("(-+)")) == s
    assert compose(T("++"), IOTerm.of_runs((), (("-", 2 ** 64), ("+", 2 ** 64)))) == T("++")


# --- infimum --------------------------------------------------------------


def test_infimum_idempotent():
    rng = random.Random(4)
    for _ in range(100):
        s = random_canonical(rng)
        assert infimum(s, s) == s


def test_infimum_all_output_neutral():
    rng = random.Random(5)
    for _ in range(100):
        s = random_canonical(rng)
        assert infimum(T("(+)"), s) == s


def test_infimum_interleavings():
    # pointwise-minimum oracle at n <= 64 picks the doubling side
    a, b = T("(-++)"), T("(+-+)")
    for n in range(64):
        assert min(interpret(a, n), interpret(b, n)) == interpret(a, n)
    assert infimum(a, b) == T("(-++)")


def test_infimum_pointwise():
    rng = random.Random(6)
    for _ in range(300):
        s, t = random_canonical(rng), random_canonical(rng)
        i = infimum(s, t)
        for n in list(range(33)) + [TOP]:
            assert interpret(i, n) == min(interpret(s, n), interpret(t, n))


def test_infimum_commutative_associative():
    rng = random.Random(8)
    for _ in range(100):
        a, b, c = (random_canonical(rng, 4) for _ in range(3))
        assert infimum(a, b) == infimum(b, a)
        assert normalize(infimum(a, infimum(b, c))) == normalize(infimum(infimum(a, b), c))


def test_infimum_unbounded_residuals():
    # the residual-pair state space is unbounded here; value closure handles it
    a, b = T("(-+)"), T("(+++-)")
    got = infimum(a, b)
    for n in range(80):
        assert interpret(got, n) == min(interpret(a, n), interpret(b, n))


@pytest.mark.parametrize(
    "s, t",
    [
        (IOTerm.of_runs((), (("-", 1024), ("+", 1))), T("(-+)")),
        (IOTerm.of_runs((("+", 3),), (("-", 1024), ("+", 512))), T("-(-+)")),
        (IOTerm.of_runs((), (("-", 4096), ("+", 1))), T("(-+)")),
    ],
)
def test_infimum_of_long_loops(s, t):
    """Loops of thousands of symbols: the first and third are nowhere above
    (-+), the second crosses -(-+) and the infimum reads one value per
    supply up to the end of its first pass; the reference spells each
    operand out one step per symbol, without meeting the interpreter's
    recursion limit."""
    got = infimum(s, t)
    assert is_normal(got)
    assert got == ref_infimum(s, t)
    size = len(s.prefix) + len(s.loop)
    for n in list(range(3 * size)) + [TOP]:
        assert interpret(got, n) == min(interpret(s, n), interpret(t, n)), n


def ref_infimum(s, t, max_columns=10000):
    """The infimum as the one-root system X = s /\\ t, where each operand
    with a loop continues with its own variable L = loop L, solved by the
    diagram's repetition search: the reference for `infimum`."""
    equations: dict = {}

    def operand(name, u):
        if u.finite:
            return steps(u.prefix, EEmpty())
        equations[name] = steps(u.loop, EVar(name))
        return steps(u.prefix, EVar(name))

    root = ("inf",)
    equations[root] = EInf(operand(("inf", 1), s), operand(("inf", 2), t))
    return solve(IOSpec(equations, (root,)), root, max_columns=max_columns)


def test_infimum_matches_the_one_root_system():
    rng = random.Random(24)
    for k in range(3000):
        depth, loop_p = 2 + k % 7, 0.5 + (k % 6) / 10
        s, t = random_canonical(rng, depth, loop_p), random_canonical(rng, depth, loop_p)
        assert infimum(s, t) == ref_infimum(s, t), (s, t)


def test_infimum_hand_cases_both_orders():
    """All output, the empty sequence, finite words and all-output tails,
    each against each and against loops, in both orders."""
    terms = [T(x) for x in ("(+)", "eps", "++", "-+-+", "+-(+)", "--(+)", "(-+)", "-(--+)", "+(-++)", "(+--)")]
    for s, t in itertools.product(terms, repeat=2):
        got = infimum(s, t)
        assert got == ref_infimum(s, t), (s, t)
        for n in list(range(12)) + [TOP]:
            assert interpret(got, n) == min(interpret(s, n), interpret(t, n)), (s, t, n)


def test_infimum_of_close_slow_loops():
    """(-^1000 +) /\\ (-^999 +) is its first operand: the second one's lead
    is checked where the first steps up, not at each of the 999,000
    supplies of both loops' common period."""
    s = IOTerm.of_runs((), (("-", 1000), ("+", 1)))
    t = IOTerm.of_runs((), (("-", 999), ("+", 1)))
    start = time.perf_counter()
    assert infimum(s, t) == s and infimum(t, s) == s
    assert time.perf_counter() - start < 0.1


def test_infimum_of_a_dominated_operand_reads_no_supply():
    """(-^16384 +^16384) is nowhere above (-+), so it is their infimum in
    both orders, found without reading the 16,384 supplies of the common
    period that the default cap does not allow."""
    s = IOTerm.of_runs((), (("-", 16384), ("+", 16384)))
    start = time.perf_counter()
    assert infimum(s, T("(-+)")) == s and infimum(T("(-+)"), s) == s
    assert time.perf_counter() - start < 0.1


def test_infimum_reads_the_lead_on_the_sparser_side():
    """In the common period of (-+) and (-^k +^{2k}) at k = 10^6, the first
    rises at each supply and the second never, so the least lead is read at
    the period's last supply alone; the minimum starts with k supplies of
    no output, and the default cap ends the search."""
    k = 10**6
    s, t = T("(-+)"), IOTerm.of_runs((), (("-", k), ("+", 2 * k)))
    start = time.perf_counter()
    for a, b in ((s, t), (t, s)):
        with pytest.raises(CapError):
            infimum(a, b)
    assert time.perf_counter() - start < 0.1


def test_infimum_skips_a_check_past_the_cap():
    """Loops of slope 1 with periods 301 and 302 rise at nearly every one of
    the 90,902 supplies of their common period, so checking either against
    the other would read that many, far past the default cap: the check is
    skipped, and the minimum's period ends the search at once."""
    s, t = (IOTerm("", "-+" * k + "--++") for k in (299, 300))
    start = time.perf_counter()
    for a, b in ((s, t), (t, s)):
        with pytest.raises(CapError):
            infimum(a, b)
    assert time.perf_counter() - start < 0.1


def slow_loops(k):
    """Loops of periods k and k + 1 whose least lead over each other is read
    at k^2 - 1 points of their common period k (k + 1)."""
    return IOTerm("", "-+" * (k - 2) + "--++"), IOTerm("", "-++" + "-+" * k)


def test_infimum_counts_the_lead_scan_against_the_cap():
    """Periods 301 and 302 leave 90,600 lead points in the common period of
    90,902: past the default cap, the scan raises at once rather than read
    them all.  At k = 31 the 960 points fit under a cap of 1,000, and the
    loop that grows less is the minimum; under 500 they do not."""
    start = time.perf_counter()
    for a, b in itertools.permutations(slow_loops(301)):
        with pytest.raises(CapError):
            infimum(a, b)
    assert time.perf_counter() - start < 0.1
    s, t = slow_loops(31)
    for a, b in ((s, t), (t, s)):
        assert infimum(a, b, max_columns=1000) == s
        with pytest.raises(CapError):
            infimum(a, b, max_columns=500)


def test_infimum_reads_each_point_by_bisection():
    """The loops (-+)^{k-1} --++ and -++ (-+)^k share a period of k + 1
    with about k lead points and 4k runs between them; each point is read
    by bisection over the runs, not by a walk from the start, so k = 4,000
    answers at once.  At small k the answer is the pointwise minimum over
    two periods."""
    for k in (1, 2, 3, 7, 20):
        s, t = IOTerm("", "-+" * (k - 1) + "--++"), IOTerm("", "-++" + "-+" * k)
        for a, b in ((s, t), (t, s)):
            got = infimum(a, b)
            for n in range(2 * (k + 1) + 2):
                assert interpret(got, n) == min(interpret(s, n), interpret(t, n)), (k, n)
    k = 4000
    s, t = IOTerm("", "-+" * (k - 1) + "--++"), IOTerm("", "-++" + "-+" * k)
    start = time.perf_counter()
    assert infimum(s, t) == infimum(t, s) == s
    assert time.perf_counter() - start < 0.2


def test_infimum_with_a_dominated_operand():
    """s /\\ u is nowhere above s, so in either order with s it is the
    infimum, as the one-root system and the pointwise minimum agree."""
    rng = random.Random(25)
    for k in range(600):
        s, u = random_canonical(rng, 2 + k % 7), random_canonical(rng, 2 + k % 7)
        low = infimum(s, u)
        for a, b in ((s, low), (low, s)):
            got = infimum(a, b)
            assert got == low == ref_infimum(a, b), (a, b)
            for n in list(range(30)) + [TOP]:
                assert interpret(got, n) == min(interpret(a, n), interpret(b, n)), (a, b, n)


# --- requirement removal --------------------------------------------------


def test_remove_requirement_examples():
    assert remove_requirement(T("-(-+)")) == T("(-+)")
    assert remove_requirement(T("(+)")) == T("(+)")
    # oracle: dropping the first '-' of x |-> x+1 yields x |-> x+2
    got = remove_requirement(T("+(-+)"))
    for n in range(64):
        assert interpret(got, n) == n + 2
    assert got == normalize(IOTerm("++", "-+"))


def test_remove_requirement_composition_laws():
    rng = random.Random(9)
    for _ in range(150):
        s, t = random_canonical(rng, 4), random_canonical(rng, 4)
        lhs = remove_requirement(compose(s, t))
        rhs = compose(s, remove_requirement(t))
        for n in range(25):
            assert interpret(lhs, n) == interpret(rhs, n)
        lhs2 = compose(remove_requirement(s), t)
        rhs2 = compose(s, prepend("+", t))
        for n in range(25):
            assert interpret(lhs2, n) == interpret(rhs2, n)


# --- least fixed point ----------------------------------------------------


def test_fix_examples():
    assert least_fixed_point(T("++-(-+)")) == TOP
    assert least_fixed_point(T("(-+)")) == 0
    assert least_fixed_point(T("+(-+)")) == TOP


def test_fix_is_kleene_lfp():
    rng = random.Random(10)
    for _ in range(400):
        s = random_canonical(rng)
        v = least_fixed_point(s)
        assert v == kleene_lfp(s)
        if v != TOP:
            assert interpret(s, v) == v


# --- normalization --------------------------------------------------------


def test_normalize_examples():
    assert normalize(IOTerm("", "-+-+")) == T("(-+)")
    assert normalize(IOTerm("++--", "")) == T("++")
    # roll twice
    got = normalize(IOTerm("+-", "+-"))
    assert got == T("(+-)")
    for n in range(64):
        assert interpret(got, n) == interpret(IOTerm("+-", "+-"), n)


def _all_terms(total):
    for pre_len in range(total + 1):
        for loop_len in range(total - pre_len + 1):
            for p in range(2 ** pre_len):
                pre = "".join("+-"[(p >> k) & 1] for k in range(pre_len))
                if loop_len == 0:
                    yield IOTerm(pre, "")
                    continue
                for q in range(2 ** loop_len):
                    loop = "".join("+-"[(q >> k) & 1] for k in range(loop_len))
                    if "+" in loop:
                        yield IOTerm(pre, loop)


def test_normalize_minimal_exhaustive():
    # no strictly shorter representation denotes the same sequence (<= 6 symbols)
    groups = {}
    for t in _all_terms(6):
        key = tuple(interpret(t, n) for n in range(16))
        n = normalize(t)
        assert tuple(interpret(n, k) for k in range(16)) == key
        size = len(n.prefix) + len(n.loop)
        prev = groups.get(key)
        if prev is not None:
            assert prev == (size, n), "normal form must be unique per denotation"
        groups[key] = (size, n)
    for t in _all_terms(6):
        key = tuple(interpret(t, n) for n in range(16))
        assert len(t.prefix) + len(t.loop) >= groups[key][0]


def test_normalize_idempotent():
    rng = random.Random(11)
    for _ in range(300):
        t = IOTerm(
            "".join(rng.choice("-+") for _ in range(rng.randrange(7))),
            "".join(rng.choice("-+") for _ in range(rng.randrange(7))),
        )
        n = normalize(t)
        assert is_normal(n) and normalize(n) is n


def test_normalize_marks_its_results():
    """Only `normalize`, and `remove_requirement` where its edit of a normal
    term leaves it normal, mark a term normal; a marked term comes back as
    it is, and the shared constants stay unmarked."""
    t = IOTerm("+", "-+")
    assert not t.normal and not IOTerm.of_runs(t.prefix_runs, t.loop_runs).normal
    n = normalize(t)
    assert n == T("(+-)") and n.normal and normalize(n) is n and not t.normal
    assert n == IOTerm("", "+-") and hash(n) == hash(IOTerm("", "+-"))
    assert not any(c.normal for c in (EPSILON, prodterm.PEB_SEQ))
    assert is_normal(compose(t, T("-(-+)"))) and is_normal(remove_requirement(t))
    assert not prepend("-", n).normal


def test_hash_is_kept_and_goes_by_the_runs():
    """Equal terms built by `IOTerm(...)`, `of_runs`, `_term` and `normalize`
    have equal hashes, each the hash of their runs, whether marked normal or
    not; a term keeps its hash from the first `hash` on."""
    rng = random.Random(12)
    for _ in range(300):
        words = ["".join(rng.choice("-+") for _ in range(rng.randrange(7))) for _ in range(2)]
        t = IOTerm(*words)
        n = normalize(t)
        for u in (t, n):
            runs = (u.prefix_runs, u.loop_runs)
            copies = (IOTerm(u.prefix, u.loop), IOTerm.of_runs(*runs), ioalg._term(*runs), ioalg._term(*runs, True))
            assert all(c == u for c in copies) and {hash(c) for c in copies + (u,)} == {hash(runs)}
            assert u._hash == hash(runs)


def _spelled_read(t, n):
    """The '+' count before the (n+1)-th '-' of `t`'s word, spelled with
    the loop 41 times: TOP where no such '-' comes and the loop outputs,
    the whole output where the word is finite."""
    word = t.prefix + t.loop * 41
    pieces = word.split("-")
    if n == TOP or n >= len(pieces) - 1:
        return TOP if "+" in t.loop else word.count("+")
    return "".join(pieces[: n + 1]).count("+")


def test_reader_is_kept_and_reads_the_word():
    """A term builds its reader on the first read and keeps it; an equal
    term built apart builds its own, and both read the spelled word, at
    supplies 0 to 40 and at TOP."""
    rng = random.Random(35)
    for _ in range(300):
        t = random_canonical(rng)
        read = ioalg._reader(t)
        assert ioalg._reader(t) is read
        apart = ioalg._reader(IOTerm.of_runs(t.prefix_runs, t.loop_runs))
        assert apart is not read
        for n in list(range(41)) + [TOP]:
            assert read(n) == apart(n) == _spelled_read(t, n), (t, n)


# --- equality and notation ------------------------------------------------


def test_equal_denotation():
    """Two terms denote the same sequence iff their normal forms are equal."""
    assert normalize(IOTerm("", "-+-+")) == normalize(T("(-+)"))
    assert normalize(T("-(-+)")) != normalize(T("(-+)"))
    assert interpret(T("-(-+)"), 1) == 0 and interpret(T("(-+)"), 1) == 1
    s = T("-(-+)")
    assert normalize(s) == normalize(s)


def test_render_parse_roundtrip():
    rng = random.Random(12)
    for _ in range(200):
        s = random_canonical(rng)
        assert parse_ioterm(render(s)) == s
    assert render(EPSILON) == "eps"
    assert parse_ioterm("eps") == EPSILON


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_ioterm("-(x)")
    with pytest.raises(ValueError):
        parse_ioterm("-()")


# --- run algebra against the symbol-by-symbol algebra -------------------
#
# The `_reference_*` helpers are the algebra as it was before terms were
# stored as runs: each walks the spelled-out words one symbol at a time.


def _reference_normalize(t):
    pre, loop = t.prefix, t.loop
    if loop and "+" not in loop:
        loop = ""
    if not loop:
        return IOTerm(pre.rstrip("-"), "")
    n = len(loop)
    for p in range(1, n):
        if n % p == 0 and loop == loop[:p] * (n // p):
            loop = loop[:p]
            break
    while pre and pre[-1] == loop[-1]:
        pre = pre[:-1]
        loop = loop[-1] + loop[:-1]
    return IOTerm(pre, loop)


def _reference_interpret(t, n):
    if n == TOP:
        if t.loop and "+" in t.loop:
            return TOP
        return t.prefix.count("+") + t.loop.count("+")
    need = int(n)
    prod = 0
    for ch in t.prefix:
        if ch == "+":
            prod += 1
        else:
            if need == 0:
                return prod
            need -= 1
    if not t.loop:
        return prod
    p = t.loop.count("-")
    q = t.loop.count("+")
    if p == 0:
        return TOP
    cycles = need // p
    prod += cycles * q
    need -= cycles * p
    for ch in t.loop:
        if ch == "+":
            prod += 1
        else:
            if need == 0:
                return prod
            need -= 1
    raise AssertionError("unreachable")


def _reference_compose(s, t):
    s = _reference_normalize(s)
    t = _reference_normalize(t)
    ws, wt = s.prefix + s.loop, t.prefix + t.loop

    def advance(u, word, pos):
        pos += 1
        if pos == len(word) and u.loop:
            return len(u.prefix)
        return pos

    ps = pt = 0
    out = []
    seen = {}
    while True:
        key = (ps, pt)
        if key in seen:
            i = seen[key]
            return _reference_normalize(IOTerm("".join(out[:i]), "".join(out[i:])))
        seen[key] = len(out)
        if ps == len(ws):
            return _reference_normalize(IOTerm("".join(out), ""))
        if ws[ps] == "+":
            out.append("+")
            ps = advance(s, ws, ps)
            continue
        if pt == len(wt):
            return _reference_normalize(IOTerm("".join(out), ""))
        if wt[pt] == "+":
            ps = advance(s, ws, ps)
            pt = advance(t, wt, pt)
        else:
            out.append("-")
            pt = advance(t, wt, pt)


def _reference_remove_requirement(t):
    t = _reference_normalize(t)
    if "-" in t.prefix:
        i = t.prefix.index("-")
        return _reference_normalize(IOTerm(t.prefix[:i] + t.prefix[i + 1:], t.loop))
    if t.loop and "-" in t.loop:
        i = t.loop.index("-")
        return _reference_normalize(IOTerm(t.prefix + t.loop[:i] + t.loop[i + 1:], t.loop))
    return t


def _reference_least_fixed_point(t):
    t = _reference_normalize(t)
    settle = t.prefix.count("-")
    p = t.loop.count("-")
    q = t.loop.count("+")
    v = 0
    rounds_past = 0
    while True:
        nv = _reference_interpret(t, v)
        if nv == TOP:
            return TOP
        if nv == v:
            return v
        v = nv
        if t.loop:
            if q > p and v > (settle + p) * q:
                return TOP
            if q == p and v >= settle:
                rounds_past += 1
                if rounds_past > p:
                    return TOP


def _run_word(rng, runs, longest):
    """A word of up to `runs` runs, each of 1..`longest` equal symbols."""
    return "".join(rng.choice("-+") * rng.randint(1, longest) for _ in range(rng.randrange(runs + 1)))


def _shaped_pair(rng, shape):
    """Operands of the shapes that make symbol-by-symbol composition slow."""
    n = rng.randint(1, 50)
    short = _run_word(rng, 3, 3) + "+"
    if shape == "ring":  # the halving ring: +(-+-^n) into (--+), +(--+-^n) into +(-+)
        if rng.random() < 0.5:
            return IOTerm("+", "-+" + "-" * n), IOTerm("", "--+")
        return IOTerm("+", "--+" + "-" * n), IOTerm("+", "-+")
    if shape == "long-minus":  # s waits in a long run of '-' while t loops
        return IOTerm(_run_word(rng, 2, 3), "-" * n + _run_word(rng, 2, 4) + "+"), IOTerm(_run_word(rng, 2, 3), short)
    # t offers a long run of '+' while s loops
    return IOTerm(_run_word(rng, 2, 3), short), IOTerm(_run_word(rng, 2, 3), "+" * n + _run_word(rng, 2, 4) + "-")


def _random_pair(rng, i):
    shape = ("words", "runs", "ring", "long-minus", "long-plus")[i % 5]
    if shape == "words":
        return tuple(IOTerm(_run_word(rng, 6, 2), _run_word(rng, 5, 2)) for _ in range(2))
    if shape == "runs":
        return tuple(IOTerm(_run_word(rng, 3, 50), _run_word(rng, 3, 50)) for _ in range(2))
    return _shaped_pair(rng, shape)


def test_run_algebra_matches_symbol_references():
    rng = random.Random(2008)
    pairs = 20000
    for i in range(pairs):
        s, t = _random_pair(rng, i)
        assert compose(s, t) == _reference_compose(s, t), (render(s), render(t))
        if i % 4 == 0:
            for u in (s, t):
                assert normalize(u) == _reference_normalize(u), render(u)
                assert remove_requirement(u) == _reference_remove_requirement(u), render(u)
                assert least_fixed_point(u) == _reference_least_fixed_point(u), render(u)
                for n in (0, 1, 2, 7, 50, 151, TOP):
                    assert interpret(u, n) == _reference_interpret(u, n), (render(u), n)


def test_runs_are_canonical():
    assert IOTerm("++--+", "-+").prefix_runs == (("+", 2), ("-", 2), ("+", 1))
    assert IOTerm.of_runs((("+", 2), ("+", 0), ("-", 0), ("+", 1)), (("-", 1), ("+", 1))) == IOTerm("+++", "-+")
    t = IOTerm.of_runs((), (("-", 2 ** 64), ("+", 1)))
    assert normalize(t).loop_runs == (("-", 2 ** 64), ("+", 1))
    with pytest.raises(ValueError):
        IOTerm("+x")


def test_pebble_compositions(monkeypatch):
    """Composition with a pebble's successor +(-+), on either side, takes a
    shortcut past the general path; its result is the composed function, in
    normal form, and equals the symbol reference's."""
    peb = IOTerm("+", "-+")
    rng = random.Random(806)
    for _ in range(5000):
        loop = (_run_word(rng, 4, 3) + "+") if rng.random() < 0.8 else ""
        s = IOTerm(_run_word(rng, 6, 3), loop)
        for outer, inner in ((s, peb), (peb, s)):
            c = compose(outer, inner)
            assert is_normal(c), render(c)
            for n in list(range(31)) + [TOP]:
                assert interpret(c, n) == interpret(outer, interpret(inner, n)), (render(outer), render(inner), n)
            assert c == _reference_compose(outer, inner), (render(outer), render(inner))
    twice = compose(peb, peb)
    assert twice == T("+(+-)") and [interpret(twice, n) for n in range(4)] == [2, 3, 4, 5]
    # the shortcut sees the normal form (+-) of +(-+): with the general
    # path's loop counting disabled, pebble compositions still come out
    expected = [(u, compose(u, peb), compose(peb, u)) for u in (T("-(--+)"), T("+-+"), T("(+-)"), peb, EPSILON)]

    def no_general_path(runs):
        raise AssertionError("the general path ran")

    monkeypatch.setattr(ioalg, "_counts", no_general_path)
    with pytest.raises(AssertionError):
        compose(T("(-+)"), T("(--+)"))
    for u, after, before in expected:
        assert compose(u, peb) == after and compose(peb, u) == before, render(u)


def _removal_case(t):
    """Which edit `remove_requirement` makes to the normal term `t`."""
    pre = t.prefix_runs
    first = next((i for i, (sym, _) in enumerate(pre) if sym == "-"), None)
    if first is not None:
        if pre[first][1] == 1:
            return "run empties"
        return "last prefix run" if first == len(pre) - 1 else "inner prefix run"
    if "-" not in t.loop:
        return "no requirement"
    unrolled = t.prefix + t.loop.replace("-", "", 1)
    return "unroll, roll" if unrolled[-1] == t.loop[-1] else "unroll, no roll"


def test_successor_fast_paths_are_exact():
    """Composing with the successor, spelled +(-+) as by a pebble, adds one
    to the supply; it skips normalizing, and its result equals the general
    path's on the successor spelled (+-) and +-(+-).  Each result of
    `remove_requirement`, whichever edit it takes, is the normal form of
    its runs."""
    rng = random.Random(2908)
    successor = IOTerm("", "+-")
    general = IOTerm("+-", "+-")  # normalizes to (+-)
    cases = {}
    for k in range(1200):
        if k % 3 == 0:
            s = random_canonical(rng)
        elif k % 3 == 1:  # prefix-heavy
            s = normalize(IOTerm(_run_word(rng, 8, 4), rng.choice(["", "+", "-+", "+--"])))
        else:  # loop only
            s = normalize(IOTerm("+" * rng.randrange(3), _run_word(rng, 5, 3) + "+"))
        cases[_removal_case(s)] = cases.get(_removal_case(s), 0) + 1
        r = remove_requirement(s)
        assert is_normal(r), render(s)
        after = [compose(s, prodterm.PEB_SEQ), compose(s, successor)]
        assert after == [r, r] and r == compose(s, general), render(s)
        before = compose(prodterm.PEB_SEQ, s)
        assert before == compose(successor, s) == compose(general, s), render(s)
        for n in range(41):
            assert interpret(r, n) == interpret(s, n + 1), (render(s), n)
            assert interpret(before, n) == interpret(s, n) + 1, (render(s), n)
    assert len(cases) == 6 and min(cases.values()) >= 20, cases
