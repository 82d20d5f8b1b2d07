# Counting the work of inversion by repeated pivoting
# ---------------------------------------------------
#
# Inverting by a sweep of single-entry pivots, each applied to the
# shrinking window of not-yet-processed coordinates, costs
#
#     sum_{m=2..n} m^2  =  n(n+1)(2n+1)/6 - 1
#
# multiply-add updates.  That is about 40% of the classical
# elimination-based count of ~5n^3/6.  The package's counted sweep
# adds, after it has run, the window count sum_{w=2..n} w^2 that its
# stages' active windows give; the column below is that count.

from pivotkit import classify, count_flops, pivot

print(f"{'n':>4} {'predicted':>10} {'measured':>10} {'lu route':>10}")
for n, seed in ((3, 11), (5, 12), (10, 13), (20, 14), (40, 15)):
    a = classify.random_p_matrix(n, seed)
    inv, measured = pivot.counted_singleton_inverse(a)
    print(f"{n:>4} {pivot.predicted_ppt_flops(n):>10} {measured:>10} "
          f"{pivot.predicted_lu_flops(n):>10}")

# The ambient counter nests: work counted inside an inner context does
# not leak into the outer one.
a = classify.random_p_matrix(6, seed=3)
with count_flops() as outer:
    pivot.ppt_single(a, 1)
    with count_flops() as inner:
        pivot.ppt_single(a, 2)
print("\nouter context counted", outer.count, "flops")
print("inner context counted", inner.count, "flops (hidden from outer)")

# And the single-pivot primitive itself costs exactly n^2.
print("\none pivot on a 6x6 costs", inner.count, "= 6^2 flops")
