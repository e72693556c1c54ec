"""Print one sha256 over the phase searches' results, so a change that should move no search
result can show that it moved none.

Runs optimize_with_restarts for a fixed list of modes, sizes and seeds, and hashes every
restart's value and each search's best phases as raw float64 bytes.  Two trees give the same
digest exactly when every one of these results is bit-identical; the digest depends on the
machine's floating point, so compare trees on one machine.  It takes a few seconds.

    PYTHONPATH=src python tools/search_digest.py
"""

import hashlib

import numpy as np

from quditbell import BellScenario, optimize_with_restarts

SIZES = ((2, 2), (2, 3), (3, 3), (4, 5), (5, 8), (8, 3), (20, 3), (12, 6), (50, 4))
CASES = [(mode, n, d, seed) for mode in ("free", "symmetric") for n, d in SIZES
         for seed in (0, 1)]
RESTARTS = 4


def main() -> None:
    digest = hashlib.sha256()
    for mode, n, d, seed in CASES:
        result = optimize_with_restarts(BellScenario(n, d), restarts=RESTARTS, mode=mode,
                                        seed=seed)
        digest.update(np.array(result.restart_values, dtype=float).tobytes())
        digest.update(result.config.phases.tobytes())
    print(f"searches {len(CASES)}  restarts {len(CASES) * RESTARTS}  sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
