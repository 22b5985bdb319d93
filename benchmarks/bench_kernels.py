"""Benchmark the Fock lift and the hold-phase sweep kernels.

Times the factored Fock lift (a cold ``lift_to_fock`` build, with the
per-N caches emptied first, and one ``to_momentum`` and one ``to_site``
apply) and the protocol theta sweep through the active dispatch (numba
unless RINGCAT_DISABLE_NUMBA=1) and through the pure numpy reference, and
prints a small timing table.  The first numba call includes JIT
compilation, so every kernel is warmed up before timing.

Usage: python benchmarks/bench_kernels.py [--n 30] [--thetas 20000] [--repeat 3]
"""

import argparse
import time

import numpy as np

from ringcat import _kernels, modes
from ringcat.basis import multinomial_amplitudes, pair_counts
from ringcat.modes import dft_mode_matrix, extremal_columns, lift_to_fock
from ringcat.state import superfluid_ground_state


def best_of(repeat, fn, *args):
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return min(times)


def cold_lift_build(n):
    for cache in (modes._hopping_eigenbases, modes._pair_layout, modes._gathers):
        cache.cache_clear()
    return lift_to_fock(dft_mode_matrix(), n)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=30, help="particle number for the lift")
    parser.add_argument("--thetas", type=int, default=20000, help="sweep grid size")
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    ground = multinomial_amplitudes(args.n)
    counts = pair_counts(args.n)
    wconj = np.ascontiguousarray(extremal_columns(args.n).conj())
    thetas = np.linspace(0.0, 2.0 * np.pi, args.thetas)

    print(f"active backend: {_kernels.BACKEND}")
    rows = []

    # warm-up (JIT compilation and cache effects)
    _kernels.protocol_sweep(ground, counts, wconj, thetas[:32])

    t = best_of(args.repeat, cold_lift_build, args.n)
    rows.append((f"lift build n={args.n}", "numpy", t))
    lift = lift_to_fock(dft_mode_matrix(), args.n)
    site = superfluid_ground_state(args.n)
    momentum = lift.to_momentum(site)
    t = best_of(args.repeat, lift.to_momentum, site)
    rows.append((f"lift to_momentum n={args.n}", "numpy", t))
    t = best_of(args.repeat, lift.to_site, momentum)
    rows.append((f"lift to_site n={args.n}", "numpy", t))

    t = best_of(args.repeat, _kernels.protocol_sweep, ground, counts, wconj, thetas)
    rows.append((f"sweep {args.thetas} thetas n={args.n}", _kernels.BACKEND, t))
    t = best_of(args.repeat, _kernels.protocol_sweep_numpy, ground, counts, wconj, thetas)
    rows.append((f"sweep {args.thetas} thetas n={args.n}", "numpy", t))

    width = max(len(r[0]) for r in rows)
    print(f"{'kernel':<{width}}  {'backend':<8}  best (s)")
    for name, backend, seconds in rows:
        print(f"{name:<{width}}  {backend:<8}  {seconds:.4f}")


if __name__ == "__main__":
    main()
