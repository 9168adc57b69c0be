"""Reference helpers shared by several test modules; the engine needs none."""


def mat_mul(A: list, B: list) -> list:
    if not A:
        return []
    if not B:
        return [[] for _ in A]
    cols = len(B[0])
    out = []
    for row in A:
        acc = [0] * cols
        for k, a in enumerate(row):
            if a:
                Bk = B[k]
                for j in range(cols):
                    acc[j] += a * Bk[j]
        out.append(acc)
    return out


def determinant(M: list) -> int:
    """Fraction-free (Bareiss) determinant over exact ints."""
    n = len(M)
    if n == 0:
        return 1
    A = [row[:] for row in M]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if A[k][k] == 0:
            for i in range(k + 1, n):
                if A[i][k]:
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // prev
            A[i][k] = 0
        prev = A[k][k]
    return sign * A[n - 1][n - 1]


def multiplication_table(realization) -> list:
    """order x order table of a FiniteRealization: entry [i][j] is the
    index of reps[i]*reps[j], i.e. reps[j] traced from coset i."""
    reps = realization.reps
    return [[realization.trace(i, w) for w in reps]
            for i in range(realization.order)]
