"""Pure helpers of the benchmark: statistics, quiet-operation selection,
arrival schedules, the goodput search and backlog detection, and the
layer-sum check. No I/O, so unit tests cover
them directly (perfbench/test_bench_lib.py)."""

import math
import random
import statistics


def percentile(values, q):
    """Linear-interpolated percentile (q in [0, 100]) of `values`.

    Returns (value, sample_count); the count travels with every percentile
    so a reader can judge how many samples lie beyond it."""
    if not values:
        raise ValueError("percentile of no samples")
    data = sorted(values)
    if len(data) == 1:
        return data[0], 1
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    frac = pos - lo
    if frac == 0 or data[hi] == data[lo]:  # also keeps inf - inf out
        return data[lo], len(data)
    return data[lo] + (data[hi] - data[lo]) * frac, len(data)


def _beta_cf(a, b, x):
    """Continued fraction of the incomplete beta function (modified
    Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 500):
        for aa in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                   -(a + m) * (a + b + m) * x / ((a + 2 * m) *
                                                (a + 2 * m + 1))):
            d = 1.0 + aa * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + aa / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(x, a, b):
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(log_front) * _beta_cf(b, a, 1.0 - x) / b


def hd_quantile(values, q):
    """Harrell-Davis estimate of the q-th percentile: a Beta-weighted mean
    of every order statistic. Unlike a single order statistic it moves
    smoothly when latencies sit on discrete levels (a server answering on
    poll ticks), which keeps run-to-run figures steady. Returns (value,
    sample_count)."""
    if not values:
        raise ValueError("quantile of no samples")
    data = sorted(values)
    n = len(data)
    if n == 1:
        return data[0], 1
    p = q / 100.0
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    total, prev = 0.0, 0.0
    for i, x in enumerate(data, start=1):
        cdf = beta_cdf(i / n, a, b)
        total += (cdf - prev) * x
        prev = cdf
    return total, n


def samples_beyond(count, q):
    """How many of `count` samples lie strictly beyond the q-th percentile."""
    return int(math.floor(count * (100.0 - q) / 100.0))


def median(values):
    return percentile(values, 50)[0]


def quietest(values, steals, limit, min_share=0.5):
    """The values measured while the host's CPU steal stayed at or under
    `limit`, and never fewer than the quietest `min_share` of them.

    Steal is time the hypervisor gave to other guests; an operation that
    ran under heavy steal measures the neighbours, not the code. `values`
    and `steals` are parallel lists; order is kept."""
    if len(values) != len(steals):
        raise ValueError("values and steals differ in length")
    keep = max(1, math.ceil(min_share * len(values)))
    by_steal = sorted(range(len(values)), key=lambda i: (steals[i], i))
    chosen = {i for i in by_steal if steals[i] <= limit}
    chosen.update(by_steal[:keep])
    return [values[i] for i in sorted(chosen)]


def jittered_schedule(rng, rate, count, jitter):
    """`count` due times (seconds from the phase start) with mean spacing
    1/rate, each gap drawn uniformly in [(1 - jitter), (1 + jitter)] / rate:
    open loop, but without the bursts of a Poisson process that make short
    load steps noisy."""
    times = []
    period = 1.0 / rate
    t = rng.uniform(0.0, period)
    for _ in range(count):
        times.append(t)
        t += period * rng.uniform(1.0 - jitter, 1.0 + jitter)
    return times


def request_cycle(rng, grid, baselines):
    """One seeded-shuffled pass over the TIRM grid with the baseline
    minority spread through it. Every cycle holds every grid point once."""
    items = list(grid)
    rng.shuffle(items)
    # Baseline k goes after grid item (k + 1) * len(items) / (len + 1).
    slots = {(k + 1) * len(items) // (len(baselines) + 1): b
             for k, b in enumerate(baselines)}
    out = []
    for i, item in enumerate(items):
        out.append(item)
        if i + 1 in slots:
            out.append(slots[i + 1])
    return out


def request_stream(seed, grid, baselines, count):
    """`count` requests as consecutive seeded cycles."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        out.extend(request_cycle(rng, grid, baselines))
    return out[:count]


def backlog_grows(samples, workers):
    """True when the outstanding-request count climbs over the step.

    `samples` are (time, outstanding) pairs taken at each send. The first
    third is the queue's ramp-up from empty and is skipped; the backlog
    grows when the mean of the last third exceeds the mean of the middle
    third by more than half the worker count. A queue the workers keep up
    with fluctuates around a constant level instead."""
    if len(samples) < 6:
        return False
    third = len(samples) // 3
    middle = [n for _, n in samples[third:2 * third]]
    last = [n for _, n in samples[-third:]]
    return sum(last) / len(last) > sum(middle) / len(middle) + workers / 2.0


def step_passes(latencies_ms, misses, limit_ms, backlog_grew):
    """A load step passes when its p90 (misses count as infinitely late)
    meets the latency limit and the backlog did not grow."""
    if backlog_grew or (not latencies_ms and not misses):
        return False
    values = list(latencies_ms) + [math.inf] * misses
    p90, _ = percentile(values, 90)
    return p90 <= limit_ms


def good_rate(sent_times, misses):
    """Good requests per second a load step delivered: the offered rate
    measured from the actual send times, scaled by the share that did not
    miss."""
    n = len(sent_times)
    if n < 2:
        return 0.0
    offered = (n - 1) / (sent_times[-1] - sent_times[0])
    return offered * (n - misses) / n


class RateSearch:
    """Finds the highest offered rate that still passes.

    Load steps are recorded in the order they ran. While none has failed,
    the next rate is the highest passing rate times `climb`; after the
    first failure it is the geometric midpoint of the highest passing and
    the lowest failing rate, `bisections` times. The rate is then known
    to within a factor of climb ** (1 / 2 ** bisections). The search also
    ends when the climb would pass `top`."""

    def __init__(self, climb, bisections, top):
        self.climb = climb
        self.bisections = bisections
        self.top = top
        self.best = None       # highest passing step
        self.failed = None     # lowest failing rate
        self.halvings = 0

    def record(self, step):
        """`step` is a dict with `rate`, `passed` and `good_rps` (good
        completions per second measured over the step)."""
        if self.failed is not None:
            self.halvings += 1
        if step["passed"]:
            if self.best is None or step["rate"] > self.best["rate"]:
                self.best = step
        elif self.failed is None or step["rate"] < self.failed:
            self.failed = step["rate"]

    def next_rate(self):
        """The next rate to offer, or None when the search is over."""
        if self.best is None:
            return None
        if self.failed is None:
            rate = self.best["rate"] * self.climb
            return rate if rate <= self.top else None
        if self.halvings >= self.bisections:
            return None
        return math.sqrt(self.best["rate"] * self.failed)

    def goodput(self):
        """good_rps of the highest passing step, None if none passed."""
        return None if self.best is None else self.best["good_rps"]


def layer_sum_check(self_seconds, layers, op_seconds, tolerance=0.15):
    """Does the sum of the named layers' self times account for one
    untraced operation? Returns (fraction, ok): fraction = sum / op, ok when
    it is within `tolerance` of 1."""
    covered = sum(self_seconds.get(name, 0.0) for name in layers)
    fraction = covered / op_seconds if op_seconds > 0 else 0.0
    return fraction, abs(1.0 - fraction) <= tolerance


def spread(values):
    """Interquartile range over the median, as the acceptance check
    computes it (statistics.quantiles, n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
