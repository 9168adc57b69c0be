"""Compare the compiled word kernel against the pure-Python reference.

Four workloads:

- raw reduction throughput over the confluent system of the order-27
  exponent-3 group;
- the same words over the non-interreduced seed system of a presentation
  whose lhs repeat and overlap (rule precedence matters there);
- a full Knuth-Bendix completion (which calls the reducer in its inner
  loop);
- a long power trace: ``finite_order_by_powers`` up to 4096 powers of a
  word of infinite order, against re-reducing ``w^(d-1) * w`` from
  scratch at every d.

When the extension is built, each reduction workload asserts that both
kernels return the same checksum. Run:

    python3 benchmarks/bench_kernels.py
"""

import random
import time

from burnside import _purekernels as pure
from burnside import rewrite
from burnside.presentation import parse_presentation

try:
    from burnside import _speedups as fast
except ImportError:
    fast = None

B27 = "gens 2\nrel aaa\nrel bbb\nrel ababab\nrel aBaBaB\n"
OVERLAPPING = "gens 2\nrel aaaa\nrel bbbb\nrel abab\nrel aabb\n"
FREE_PRODUCT = "gens 2\nrel aaa\n"  # C3 * Z: (ab)^d never reduces to 1
TRACE_POWERS = 4096


def random_words(rank, count, max_len, seed=12345):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        w = []
        prev = None
        while len(w) < max_len:
            x = rng.randrange(2 * rank)
            if prev is not None and x == (prev ^ 1):
                continue
            w.append(x)
            prev = x
        out.append(tuple(w))
    return out


def bench_reduce(module, rules, num_symbols, words, repeats=5):
    index = module.build_index(rules, num_symbols)
    best = float("inf")
    checksum = 0
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for w in words:
            total += len(module.reduce_word(index, w))
        best = min(best, time.perf_counter() - t0)
        checksum = total
    return best, checksum


def compare_reduce(label, rules, words):
    print(f"{label}: {len(words)} random words, length 60, "
          f"{len(rules)} rules")
    t_pure, c_pure = bench_reduce(pure, rules, 4, words)
    print(f"  pure-python reduce: {t_pure * 1000:8.1f} ms")
    if fast is not None:
        t_fast, c_fast = bench_reduce(fast, rules, 4, words)
        assert c_pure == c_fast, "kernels disagree"
        print(f"  compiled reduce:    {t_fast * 1000:8.1f} ms")
        print(f"  speedup:            {t_pure / t_fast:8.1f}x")
    else:
        print("  compiled kernel unavailable (built without the extension)")


def bench_completion(env_pure):
    import importlib
    import os

    import burnside.kernels as kernels
    import burnside.rewrite as rw

    if env_pure:
        os.environ["BURNSIDE_PURE_PYTHON"] = "1"
    else:
        os.environ.pop("BURNSIDE_PURE_PYTHON", None)
    importlib.reload(kernels)
    importlib.reload(rw)
    p = parse_presentation(B27)
    t0 = time.perf_counter()
    system = rw.complete_presentation(p)
    elapsed = time.perf_counter() - t0
    assert system.confluent
    return elapsed, len(system.rules)


def bench_power_trace():
    system = rewrite.complete_presentation(parse_presentation(FREE_PRODUCT))
    assert system.confluent
    w = (0, 2)
    print(f"power trace: (ab)^d for d <= {TRACE_POWERS} in C3 * Z "
          f"({len(system.rules)} rules)")
    t0 = time.perf_counter()
    assert rewrite.finite_order_by_powers(system, w, TRACE_POWERS) is None
    t_trace = time.perf_counter() - t0
    print(f"  resumed trace:         {t_trace * 1000:8.1f} ms")
    modules = [("pure-python", pure)] + ([("compiled", fast)] if fast else [])
    for name, module in modules:
        index = module.build_index(system.rules, system.num_symbols)
        cur = ()
        t0 = time.perf_counter()
        for _ in range(TRACE_POWERS):
            cur = module.reduce_word(index, cur + w)
        elapsed = time.perf_counter() - t0
        assert cur == w * TRACE_POWERS
        print(f"  {name} re-reduction: {elapsed * 1000:8.1f} ms")


def main():
    words = random_words(2, 4000, 60)
    system = rewrite.complete_presentation(parse_presentation(B27))
    compare_reduce("confluent order-27 system", system.rules, words)
    seed = rewrite.rules_from_presentation(parse_presentation(OVERLAPPING))
    compare_reduce("non-interreduced seed system", seed.rules, words)

    print("knuth-bendix completion of the order-27 presentation:")
    try:
        e_fast, nrules = bench_completion(env_pure=False)
        e_pure, _ = bench_completion(env_pure=True)
    finally:
        bench_completion(env_pure=False)  # leave modules on the default backend
    print(f"  pure-python: {e_pure * 1000:8.1f} ms  ({nrules} rules)")
    if fast is not None:
        print(f"  compiled:    {e_fast * 1000:8.1f} ms")
        print(f"  speedup:     {e_pure / e_fast:8.1f}x")

    bench_power_trace()


if __name__ == "__main__":
    main()
