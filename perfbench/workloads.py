"""The four benchmark workloads.

Each workload builds its inputs from the seed, then runs in passes.  An
untraced pass calls the package the way a user does and times every op; a
traced pass makes the same ops through the public entry point of each layer
in turn, with a span around each call.  Output checks run outside the timed
ops.  A failed check or a raised exception counts the op as failed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from collections import Counter
from contextlib import redirect_stdout
from math import isqrt
from pathlib import Path
from time import perf_counter

from harness import BenchError, NullTracer

HERE = Path(__file__).resolve().parent

# Spans around calls that an untraced pass does not make, or makes outside
# its timed ops.  They are left out when the tracing overhead is computed.
EXTRA_SPANS = (
    "check",
    "fields.replay",
    "decomposition.ball",
    "decomposition.levels_base",
    "decomposition.cache_load",
    "decomposition.cache_save",
    "cli.library",
)


def replay_ok(order, alpha, witness):
    """Whether the witness roots lie in the order and their squares sum to alpha."""
    total = alpha.field.zero()
    for w in witness:
        total = total + w * w
    return total == alpha and all(order.contains(w) for w in witness)


def traced_length(api, tracer, order, alpha):
    """length() split into its layers: enumeration of the dominated squares,
    the trace-ball size for comparison, search over the enumerated squares,
    and replay of the witness.  Returns (result, witness replays)."""
    d = api.decomposition
    with tracer.span("decomposition.enum"):
        squares = d.enumerate_squares_dominated(order, alpha)
    with tracer.span("decomposition.ball"):
        ball = d.enumerate_squares_traced(order, alpha.abs_trace())
    tracer.count("decomposition.enum_dominated", len(squares))
    tracer.count("decomposition.enum_ball", len(ball))
    with tracer.span("decomposition.search"):
        result = d.length(order, alpha, square_set=squares)
    tracer.count("decomposition.search_nodes", result.nodes)
    if not result.is_exact:
        tracer.count("decomposition.verdicts_not_sos")
        return result, True
    tracer.count("decomposition.verdicts_exact")
    with tracer.span("fields.replay"):
        ok = replay_ok(order, alpha, result.witness)
    tracer.count("fields.replays")
    return result, ok


def capture_cli(api, argv):
    """(exit code, stdout text) of one in-process CLI call."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = api.cli.main(argv)
    return code, buf.getvalue()


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def layer_tour(api, tracer, workdir):
    """One small call into each layer's public entry points, so that every
    code path has run once before timing and every layer has spans in a
    traced run."""
    with tracer.span("orders.build"):
        field = api.fields.classify_field(2, 3)
        order = api.orders.maximal_order(field)
    tracer.count("orders.builds")
    with tracer.span("parser.parse"):
        alpha = api.parser.parse_element("6+sqrt(2)+sqrt(6)", field)
    tracer.count("parser.calls")
    result, ok = traced_length(api, tracer, order, alpha)
    if not (ok and result.is_exact and result.k == 3):
        raise BenchError("warm-up: 6+sqrt(2)+sqrt(6) is not a sum of 3 squares")
    with tracer.span("verification.construct"):
        claim_field = api.fields.classify_field(2, 11)
        api.verification.construct_witness("Sqrt2", claim_field)
        api.verification.expected_length("Sqrt2", claim_field)
    tracer.count("verification.claims")
    cap = 4
    with tracer.span("decomposition.levels_base"):
        api.decomposition.enumerate_squares_traced(order, cap)
    with tracer.span("decomposition.levels"):
        rows = api.decomposition.length_profile(order, cap)
    tracer.count("decomposition.level_values", len(rows))
    tracer.count("decomposition.levels_count", max(r.length for r in rows))
    cache = str(workdir / "tour-cache")
    argv = ["lower-bound", "--p", "2", "--q", "3", "--atr-cap", str(cap), "--cache", cache]
    with tracer.span("cli.call"):
        code, out = capture_cli(api, argv)
    tracer.count("cli.stdout_bytes", len(out.encode()))
    if code != 0:
        raise BenchError(f"warm-up: bqsos {' '.join(argv)} exited with {code}")
    with tracer.span("cli.library"):
        api.decomposition.pythagoras_lower_bound(order, cap, cache_dir=cache)
    traced_cache_copy(api, tracer, cache, str(workdir / "tour-copy"), order, cap)


def traced_cache_copy(api, tracer, cache, copy_dir, order, cap):
    """Load a level cache and save it again elsewhere, timing both calls."""
    d = api.decomposition
    with tracer.span("decomposition.cache_load"):
        loaded = d.load_level_cache(cache, order, cap)
    if loaded is None:
        raise BenchError(f"no level cache for {order} at cap {cap} in {cache}")
    levels, stabilized = loaded
    with tracer.span("decomposition.cache_save"):
        path = d.save_level_cache(copy_dir, order, cap, levels, stabilized)
    tracer.count("decomposition.cache_bytes", os.path.getsize(path))


class Workload:
    """Inputs made from one seed, run in passes.

    run_pass(i) returns (samples, busy): per-op (op key, latency in
    seconds, ops) triples and the summed latency.  An op that recurs in
    later passes has the same key.  traced_pass(i) makes the same ops with
    spans.  finish() runs the checks that need an oracle, after timing.
    """

    name = ""
    setup_repeats = 9
    # ops_per_s is the median over blocks of this many passes.
    block_passes = 1
    traced_passes = 1

    def __init__(self, api, seed, tracer, workdir):
        self.api = api
        self.rng = random.Random(seed)
        self.tracer = tracer
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, message, n=1):
        self.failed += n
        if len(self.failures) < 20:
            self.failures.append(message)

    def warm_up(self):
        layer_tour(self.api, self.tracer, self.workdir)

    @staticmethod
    def make_oracle(api, **overrides):
        """Reference results a workload needs before set-up; made once per
        run, outside set-up and timing."""
        return None

    def finish(self):
        pass

    def report(self):
        """Extra facts for the result file."""
        return {}


# ---------------------------------------------------------------------------

# The sixteen items of Lemma 4.3.  Item 15 (Sqrt5SNot1, m = 5) runs over
# every admissible s up to LEMMA_S_MAX; for large s nearly all of a row's time
# is trace-ball enumeration.
LEMMA_ITEMS = range(1, 17)
LEMMA_S_MAX = 150


def row_clock_class(budget_cls):
    """A Budget without limits that notes when each report row is done.

    verify_table checks its budget after every row, which is the only point
    where a row's end is visible from outside."""

    class RowClock(budget_cls):
        def __init__(self):
            super().__init__()
            self.done = []

        def check(self, partial, *args, **kwargs):
            while len(self.done) < len(partial):
                self.done.append(perf_counter())
            return super().check(partial, *args, **kwargs)

    return RowClock


class ClaimsLemma(Workload):
    """verify_table("lemma4.3") item by item; one op is one claim row."""

    name = "claims-lemma"

    def __init__(self, api, seed, tracer, workdir, s_max=LEMMA_S_MAX, items=LEMMA_ITEMS):
        super().__init__(api, seed, tracer, workdir)
        self.s_max = s_max
        self.items = list(items)
        self.RowClock = row_clock_class(api.verification.Budget)
        self.claims = []
        self._orders = {}

    def warm_up(self):
        super().warm_up()
        self.api.verification.verify_table("lemma4.3", item=8)

    def _order(self, p, q):
        key = (p, q)
        if key not in self._orders:
            field = self.api.fields.classify_field(p, q)
            self._orders[key] = self.api.orders.maximal_order(field)
        return self._orders[key]

    def _check_row(self, row):
        label = f"item {row.get('item')} {row.get('family')} {row.get('field')}"
        if row.get("status") != "PASS":
            return self.fail(f"{label}: status {row.get('status')}")
        info = row["field"]
        order = self._order(info["p"], info["q"])
        parse = self.api.parser.parse_element
        alpha = parse(row["alpha"]["pretty"], order.field)
        witness = [parse(w, order.field) for w in row.get("witness", ())]
        if not replay_ok(order, alpha, witness):
            self.fail(f"{label}: witness does not replay in the order")

    def run_pass(self, index):
        samples, busy = [], 0.0
        claims = []
        verify_table = self.api.verification.verify_table
        for item in self.rng.sample(self.items, len(self.items)):
            clock = self.RowClock()
            start = perf_counter()
            try:
                rows = verify_table("lemma4.3", item=item, s_max=self.s_max, budget=clock)
            except Exception as exc:  # a raised exception is a failed op
                busy += perf_counter() - start
                self.attempted += 1
                self.fail(f"item {item}: {type(exc).__name__}: {exc}")
                continue
            busy += perf_counter() - start
            if len(clock.done) != len(rows):
                raise BenchError("verify_table did not check its budget once per row")
            prev = start
            for n, t in enumerate(clock.done):
                samples.append(((item, n), t - prev, 1))
                prev = t
            self.attempted += len(rows)
            for row in rows:
                self._check_row(row)
                info = row["field"]
                claims.append((item, info["p"], info["q"], row["family"]))
        self.claims = claims
        return samples, busy

    def traced_pass(self, index):
        api, tracer = self.api, self.tracer
        for n, (item, p, q, family) in enumerate(self.claims):
            tracer.op = f"pass{index}.claim{n}"
            self.attempted += 1
            try:
                with tracer.span("op"):
                    with tracer.span("orders.build"):
                        field = api.fields.classify_field(p, q)
                        order = api.orders.maximal_order(field)
                    tracer.count("orders.builds")
                    with tracer.span("verification.construct"):
                        alpha = api.verification.construct_witness(family, field)
                        expected = api.verification.expected_length(family, field)
                    tracer.count("verification.claims")
                    result, ok = traced_length(api, tracer, order, alpha)
            except Exception as exc:  # a raised exception is a failed op
                self.fail(f"item {item} ({p}, {q}): {type(exc).__name__}: {exc}")
                continue
            if not (ok and result.is_exact and result.k == expected):
                self.fail(f"item {item} ({p}, {q}): length {result.k}, expected {expected}")


# ---------------------------------------------------------------------------

# One order of each basis type: B1, B2, B3, B4a, B4b, and two quadratic
# conductor orders.
SEARCH_ORDERS = ("2,3", "2,5", "3,5", "5,13", "21,33", "quad:12", "quad-half:13")
# Queries have abs-trace in [12, 16), one stratum per integer abs-trace.
# Search cost grows steeply with the trace, and a higher or wider band lets a
# few queries dominate a run.
SEARCH_BAND = (12, 16)
# Passes of queries made in set-up, a power of two; a faster program cycles
# through them.
SEARCH_POOL_PASSES = 64
# Candidates drawn per pooled query; see SearchRandom._column.
SEARCH_CANDIDATES = 4


def build_orders(api, tracer):
    """The SEARCH_ORDERS: "p,q" is a maximal order."""
    orders = []
    for spec in SEARCH_ORDERS:
        with tracer.span("orders.build"):
            if spec.startswith("quad"):
                order = api.orders.parse_order_description(spec, None)
            else:
                p, q = map(int, spec.split(","))
                order = api.orders.maximal_order(api.fields.classify_field(p, q))
        tracer.count("orders.builds")
        orders.append(order)
    return orders


def depth(x):
    """Smallest conjugate over the abs-trace: how far a totally positive
    element lies inside the cone.  Used only to order inputs."""
    weights = [1.0] + [r ** 0.5 for r in x.field.radicands]
    smallest = min(sum(float(c) * w for c, w in zip(conj.coords(), weights))
                   for conj in x.conjugates())
    return smallest / float(x.abs_trace())


def bit_reversed(n):
    """0 .. n-1 (n a power of two) in bit-reversed order, so that every
    prefix is spread evenly over the range."""
    bits = n.bit_length() - 1
    return [int(format(j, f"0{bits}b")[::-1], 2) if bits else 0 for j in range(n)]


class SearchRandom(Workload):
    """Seeded random totally positive elements, parsed from their literal
    text and passed to length(), as `bqsos length` does; one op is one query.

    Each pass holds one query per (order, integer abs-trace) stratum.  The
    verdicts are checked against the level-set profile at the top of the
    band, made once before set-up."""

    name = "search-random"
    setup_repeats = 5
    # Eight passes, in bit-reversed pool order, are spread evenly over the
    # sorted candidates of every stratum.
    block_passes = 8
    traced_passes = 40

    def __init__(self, api, seed, tracer, workdir, oracle, band=SEARCH_BAND,
                 pool_passes=SEARCH_POOL_PASSES):
        super().__init__(api, seed, tracer, workdir)
        self.band = band
        self.oracle = oracle
        self.orders = build_orders(api, tracer)
        columns = [self._column(i, k, pool_passes)
                   for i in range(len(self.orders)) for k in range(*band)]
        self.pool = []
        for queries in zip(*columns):
            queries = list(queries)
            self.rng.shuffle(queries)
            self.pool.append(queries)
        self.verdicts = []

    @staticmethod
    def make_oracle(api, band=SEARCH_BAND, **_):
        """Per order, the length of every sum of squares with abs-trace at
        most the top of the band, keyed by coordinates."""
        profile = api.decomposition.length_profile
        return [{row.element.coords(): row.length for row in profile(order, band[1])}
                for order in build_orders(api, NullTracer())]

    def _column(self, i, k, n):
        """n queries for order i with abs-trace in [k, k + 1).

        Two-phase sampling: a query costs far more when it is not a sum of
        squares and when it lies deep inside the totally positive cone, so
        SEARCH_CANDIDATES * n random elements are sorted on those two and
        every SEARCH_CANDIDATES-th is kept.  Each seed then gets nearly the
        same mix of cheap and costly queries, and ops_per_s spreads far less
        between seeds."""
        oracle = self.oracle[i]
        candidates = []
        for _ in range(SEARCH_CANDIDATES * n):
            x = self._sample(self.orders[i], k)
            candidates.append((x.coords() in oracle, depth(x), str(x)))
        candidates.sort()
        kept = candidates[self.rng.randrange(SEARCH_CANDIDATES)::SEARCH_CANDIDATES]
        return [(i, kept[j][2]) for j in bit_reversed(n)]

    def _sample(self, order, k):
        """A random totally positive element of the order with abs-trace in
        [k, k + 1)."""
        field, den = order.field, order.den
        rng = self.rng
        while True:
            a = rng.randrange(k * den, (k + 1) * den)
            # |c| sqrt(r) < a for every coordinate c of a totally positive element
            coords = [a] + [rng.randint(-isqrt(a * a // r), isqrt(a * a // r))
                            for r in field.radicands]
            x = self.api.fields.Element.make(field, coords, den)
            if order.contains(x) and x.is_totally_positive():
                return x

    def warm_up(self):
        super().warm_up()
        for order in self.orders:
            self.api.decomposition.length(order, self._sample(order, self.band[0]))

    def _record(self, i, alpha, result, ok):
        if not ok:
            self.fail(f"{self.orders[i]} {alpha}: witness does not replay in the order")
        self.verdicts.append((i, alpha, result.status, result.k))

    def run_pass(self, index):
        samples, busy = [], 0.0
        parse = self.api.parser.parse_element
        length = self.api.decomposition.length
        index %= len(self.pool)
        for n, (i, text) in enumerate(self.pool[index]):
            order = self.orders[i]
            self.attempted += 1
            start = perf_counter()
            try:
                alpha = parse(text, order.field)
                result = length(order, alpha)
            except Exception as exc:  # a raised exception is a failed op
                busy += perf_counter() - start
                self.fail(f"{order} {text}: {type(exc).__name__}: {exc}")
                continue
            latency = perf_counter() - start
            busy += latency
            samples.append(((index, n), latency, 1))
            ok = not result.is_exact or replay_ok(order, alpha, result.witness)
            self._record(i, alpha, result, ok)
        return samples, busy

    def traced_pass(self, index):
        api, tracer = self.api, self.tracer
        for n, (i, text) in enumerate(self.pool[index % len(self.pool)]):
            order = self.orders[i]
            tracer.op = f"pass{index}.query{n}"
            self.attempted += 1
            try:
                with tracer.span("op"):
                    with tracer.span("parser.parse"):
                        alpha = api.parser.parse_element(text, order.field)
                    tracer.count("parser.calls")
                    result, ok = traced_length(api, tracer, order, alpha)
            except Exception as exc:  # a raised exception is a failed op
                self.fail(f"{order} {text}: {type(exc).__name__}: {exc}")
                continue
            self._record(i, alpha, result, ok)

    def finish(self):
        """Every verdict must match the profile: the listed length, or
        NotSumOfSquares for an element the profile does not list."""
        d = self.api.decomposition
        for i, alpha, status, k in self.verdicts:
            want = self.oracle[i].get(alpha.coords())
            if want is None:
                good = status == d.NOT_SUM_OF_SQUARES
            else:
                good = status == d.EXACT and k == want
            if not good:
                self.fail(f"{self.orders[i]} {alpha}: got {status} {k}, profile says {want}")
        self.verdicts = []


# ---------------------------------------------------------------------------

# The seven fields of Prop. 4.4, profiled at one abs-trace cap.
PROFILE_CAP = 20
REFERENCE_LEVELS = HERE / "reference_levels.json"


def load_reference_levels(cap):
    with open(REFERENCE_LEVELS) as fh:
        table = json.load(fh)
    if table["atr_cap"] != cap:
        raise BenchError(f"{REFERENCE_LEVELS} holds level sizes for cap {table['atr_cap']}, not {cap}")
    return {tuple(map(int, key.split(","))): sizes for key, sizes in table["level_sizes"].items()}


class ProfileCold(Workload):
    """length_profile with no cache on the Prop. 4.4 fields; one op is one
    profiled value, and its latency is that of the call that returned it."""

    name = "profile-cold"

    def __init__(self, api, seed, tracer, workdir):
        super().__init__(api, seed, tracer, workdir)
        self.cap = PROFILE_CAP
        self.reference = load_reference_levels(PROFILE_CAP)
        self.entries = []
        for (p, q), max_len, coords, den, _ in api.verification.PROP44_ENTRIES:
            with tracer.span("orders.build"):
                field = api.fields.classify_field(p, q)
                order = api.orders.maximal_order(field)
            tracer.count("orders.builds")
            alpha = api.fields.Element.make(field, coords, den)
            self.entries.append(((p, q), order, max_len, alpha))
        self.level_sizes = {}

    def warm_up(self):
        super().warm_up()
        for _, order, _, _ in self.entries:
            self.api.decomposition.length_profile(order, 4)

    def _check(self, key, order, max_len, alpha, rows):
        """Check one field's rows; returns the level sizes."""
        want = self.reference[key]
        sizes = Counter(row.length for row in rows)
        sizes = [sizes[k] for k in range(1, max(sizes) + 1)]
        self.level_sizes[f"{key[0]},{key[1]}"] = sizes
        if sizes != want:
            self.fail(f"{key}: level sizes {sizes}, reference {want}", sum(want))
            return sizes
        if len(sizes) != max_len:
            self.fail(f"{key}: maximum length {len(sizes)}, Prop. 4.4 says {max_len}", sum(want))
            return sizes
        if not any(row.element == alpha and row.length == max_len for row in rows):
            self.fail(f"{key}: {alpha} does not attain length {max_len}", sum(want))
            return sizes
        with self.tracer.span("fields.replay"):
            bad = sum(1 for row in rows if not replay_ok(order, row.element, row.witness))
        self.tracer.count("fields.replays", len(rows))
        if bad:
            self.fail(f"{key}: {bad} witnesses do not replay in the order", bad)
        return sizes

    def _run_field(self, key, order, max_len, alpha):
        self.attempted += sum(self.reference[key])
        start = perf_counter()
        try:
            rows = self.api.decomposition.length_profile(order, self.cap)
        except Exception as exc:  # a raised exception fails every value
            self.fail(f"{key}: {type(exc).__name__}: {exc}", sum(self.reference[key]))
            return None, 0.0
        return rows, perf_counter() - start

    def run_pass(self, index):
        samples, busy = [], 0.0
        for key, order, max_len, alpha in self.rng.sample(self.entries, len(self.entries)):
            rows, seconds = self._run_field(key, order, max_len, alpha)
            if rows is None:
                continue
            busy += seconds
            samples.append((key, seconds, len(rows)))
            self._check(key, order, max_len, alpha, rows)
        return samples, busy

    def traced_pass(self, index):
        api, tracer = self.api, self.tracer
        for key, order, max_len, alpha in self.rng.sample(self.entries, len(self.entries)):
            tracer.op = f"pass{index}.field{key[0]},{key[1]}"
            with tracer.span("op"):
                with tracer.span("decomposition.levels_base"):
                    api.decomposition.enumerate_squares_traced(order, self.cap)
                with tracer.span("decomposition.levels"):
                    rows, _ = self._run_field(key, order, max_len, alpha)
                if rows is None:
                    continue
                tracer.count("decomposition.level_values", len(rows))
                with tracer.span("check"):
                    sizes = self._check(key, order, max_len, alpha, rows)
                tracer.count("decomposition.levels_count", len(sizes))

    def report(self):
        return {"atr_cap": self.cap, "level_sizes": self.level_sizes}


# ---------------------------------------------------------------------------

WARM_CAP = 12
WARM_COMMANDS = (("profile",), ("profile", "--format", "csv"), ("lower-bound",))


class ProfileWarm(Workload):
    """CLI profile and lower-bound calls that read a level cache built in
    set-up; one op is one `bqsos` call, made in-process with stdout
    captured.  Each pass makes every (field, command) call once."""

    name = "profile-warm"
    setup_repeats = 3
    block_passes = 5
    traced_passes = 2

    def __init__(self, api, seed, tracer, workdir):
        super().__init__(api, seed, tracer, workdir)
        self.cap = WARM_CAP
        self.cache = str(self.workdir / "cache")
        self.fields = []
        self.cold = {}
        for (p, q), *_ in api.verification.PROP44_ENTRIES:
            with tracer.span("orders.build"):
                order = api.orders.maximal_order(api.fields.classify_field(p, q))
            tracer.count("orders.builds")
            self.fields.append(((p, q), order))
            code, out = capture_cli(api, self._argv((p, q), ("lower-bound",), cache=True))
            if code != 0:
                raise BenchError(f"cold lower-bound for ({p}, {q}) exited with {code}")
            self.cold[((p, q), ("lower-bound",))] = digest(out)
        self.ops = [(key, order, cmd) for key, order in self.fields for cmd in WARM_COMMANDS]
        self.outputs = []

    def _argv(self, key, command, cache):
        argv = [command[0], "--p", str(key[0]), "--q", str(key[1]), "--atr-cap", str(self.cap)]
        return argv + (["--cache", self.cache] if cache else []) + list(command[1:])

    def warm_up(self):
        super().warm_up()
        key, _ = self.fields[-1]
        capture_cli(self.api, self._argv(key, ("profile",), cache=True))

    def _record(self, key, command, code, out):
        if code != 0:
            self.fail(f"bqsos {' '.join(self._argv(key, command, True))} exited with {code}")
        else:
            self.outputs.append((key, command, digest(out)))

    def run_pass(self, index):
        samples, busy = [], 0.0
        for key, _, command in self.rng.sample(self.ops, len(self.ops)):
            argv = self._argv(key, command, cache=True)
            self.attempted += 1
            start = perf_counter()
            try:
                code, out = capture_cli(self.api, argv)
            except Exception as exc:  # a raised exception is a failed op
                busy += perf_counter() - start
                self.fail(f"bqsos {' '.join(argv)}: {type(exc).__name__}: {exc}")
                continue
            latency = perf_counter() - start
            busy += latency
            samples.append(((key, command), latency, 1))
            self._record(key, command, code, out)
        return samples, busy

    def traced_pass(self, index):
        api, tracer = self.api, self.tracer
        d = api.decomposition
        copy_dir = str(self.workdir / "cache-copy")
        for n, (key, order, command) in enumerate(self.rng.sample(self.ops, len(self.ops))):
            tracer.op = f"pass{index}.call{n}"
            argv = self._argv(key, command, cache=True)
            self.attempted += 1
            try:
                with tracer.span("op"):
                    traced_cache_copy(api, tracer, self.cache, copy_dir, order, self.cap)
                    with tracer.span("cli.library"):
                        if command[0] == "profile":
                            d.length_profile(order, self.cap, cache_dir=self.cache)
                        else:
                            d.pythagoras_lower_bound(order, self.cap, cache_dir=self.cache)
                    with tracer.span("cli.call"):
                        code, out = capture_cli(api, argv)
                    tracer.count("cli.stdout_bytes", len(out.encode()))
                    with tracer.span("check"):
                        self._record(key, command, code, out)
            except Exception as exc:  # a raised exception is a failed op
                self.fail(f"bqsos {' '.join(argv)}: {type(exc).__name__}: {exc}")

    def finish(self):
        """Warm output must be byte for byte the output of a cold call."""
        for key, _ in self.fields:
            for command in WARM_COMMANDS[:2]:
                code, out = capture_cli(self.api, self._argv(key, command, cache=False))
                if code != 0:
                    raise BenchError(f"cold {' '.join(command)} for {key} exited with {code}")
                self.cold[(key, command)] = digest(out)
        for key, command, got in self.outputs:
            if got != self.cold[(key, command)]:
                self.fail(f"warm {' '.join(command)} for {key} differs from the cold output")
        self.outputs = []


WORKLOADS = {cls.name: cls for cls in (ClaimsLemma, SearchRandom, ProfileCold, ProfileWarm)}
