"""Level hypervectors and the flip-budget construction.

Each feature gets a random base hypervector and a fixed random permutation
of bit positions. Level m+1 is obtained from level m by flipping the next
b_m positions in that permutation, so no bit is ever flipped twice. The
budget row therefore controls exactly how similar neighbouring levels are,
and spending the full D/2 budget makes the first and last level orthogonal.
"""

import numpy as np

from hvdesign import FlipBudget, build_level_table, level_vector, uniform_flip_budget

DIM = 64
LEVELS = 10


def dot(a, b):
    """Dot product of two int8 sign rows, in int64: int8 overflows from D=128."""
    return int(a.astype(np.int64) @ b)


uniform = uniform_flip_budget(DIM, LEVELS)
print(f"uniform budget for D={DIM}, M={LEVELS}: {uniform.budgets.ravel().tolist()}")
print(f"row sum {int(uniform.row_sums[0])} (limit D/2 = {DIM // 2})")

table = build_level_table(base_seed=0, budget=uniform)
first = level_vector(table, feature=0, level=1)

print("\nsimilarity of L^1 to every level (uniform budget):")
for m in range(1, LEVELS + 1):
    lv = level_vector(table, 0, m)
    print(f"  L^{m:<2}  dot={dot(first, lv):>4}  hamming={np.count_nonzero(first != lv):>3}")

# A non-uniform budget concentrates resolution where you put the flips.
# Here all flips happen between levels 5 and 6, so levels 1..5 are one
# vector and levels 6..10 another.
concentrated = np.zeros((1, LEVELS - 1), dtype=int)
concentrated[0, 4] = DIM // 2
table2 = build_level_table(0, FlipBudget(budgets=concentrated, dim=DIM))
first2 = level_vector(table2, 0, 1)

print("\nsimilarity of L^1 to every level (all flips between levels 5 and 6):")
for m in range(1, LEVELS + 1):
    print(f"  L^{m:<2}  dot={dot(first2, level_vector(table2, 0, m)):>4}")

# The uniform budget above rounds down (3 flips per gap, 27 of 32 spent),
# so L^1 and L^10 are close to orthogonal but not exactly. Spending the
# full D/2 budget makes them exactly orthogonal.
full = FlipBudget(budgets=np.array([[4, 4, 4, 4, 4, 4, 4, 2, 2]]), dim=DIM)
table3 = build_level_table(0, full)
ends = dot(level_vector(table3, 0, 1), level_vector(table3, 0, LEVELS))
print(f"\nfull-budget row (sum {int(full.row_sums[0])} = D/2): "
      f"dot(L^1, L^{LEVELS}) = {ends}")
