"""Reference matrix rules the tests step by, apart from the engine's."""


def dense_mutate_rows(rows, k):
    """Matrix mutation at row k of an m x n' int rectangle by the dense
    formula, every entry of every row: the top m x m square is the
    exchange matrix and any further columns are frozen."""
    pivot = rows[k]
    out = []
    for i, row in enumerate(rows):
        a = row[k]
        if i == k:
            out.append(tuple(-x for x in row))
            continue
        new = [
            x + abs(a) * y if a * y > 0 else x for x, y in zip(row, pivot)
        ]
        new[k] = -a
        out.append(tuple(new))
    return tuple(out)


def skew_symmetrizable(rows):
    """rows with its top square replaced by S D, S the skew-symmetric
    part of that square and D a positive diagonal read off the rows; D
    is then a symmetrizer."""
    m = len(rows)
    d = [1 + abs(row[-1]) % 3 for row in rows]
    return tuple(
        tuple((rows[i][j] - rows[j][i]) * d[j] for j in range(m)) + rows[i][m:]
        for i in range(m)
    )
