import numpy as np

from couplesim.output import (
    write_csv,
    write_grid_csvs,
    write_long_csv,
    write_matrix_csv,
    write_pgm,
)

# Floats whose shortest round-trip text is easy to get wrong: exponent
# forms at both ends, the smallest subnormal, a signed zero, a long mantissa.
AWKWARD = [1e-05, 1e16, 5e-324, -0.0, 0.30000000000000004, 0.1, 1.0, 0.0, 2.5e-07]


def test_grid_writers_match_per_value_formatting(tmp_path):
    axis = np.array([0.0, 1e-05, 0.30000000000000004])
    values = np.array(AWKWARD).reshape(3, 3)
    other = -values[::-1]

    write_matrix_csv(tmp_path / "matrix.csv", values, axis)
    write_csv(
        tmp_path / "matrix_ref.csv",
        ["p1"] + [repr(float(p2)) for p2 in axis],
        ([float(axis[i])] + [float(v) for v in values[i]] for i in range(3)),
    )
    assert (tmp_path / "matrix.csv").read_bytes() == (tmp_path / "matrix_ref.csv").read_bytes()

    fields = {"normal": values, "v1": other}
    write_long_csv(tmp_path / "long.csv", fields, axis)
    write_csv(
        tmp_path / "long_ref.csv",
        ["p1", "p2", "field", "value"],
        (
            [float(axis[i]), float(axis[j]), name, float(grid[i, j])]
            for i in range(3) for j in range(3) for name, grid in fields.items()
        ),
    )
    assert (tmp_path / "long.csv").read_bytes() == (tmp_path / "long_ref.csv").read_bytes()
    lines = (tmp_path / "long.csv").read_text().splitlines()
    assert lines[1] == "0.0,0.0,normal,1e-05"
    assert lines[7] == "1e-05,0.0,normal,-0.0"
    assert "5e-324" in (tmp_path / "matrix.csv").read_text()


def test_one_pass_writer_matches_the_per_file_writers(tmp_path):
    axis = np.array([0.0, 1e-05, 0.30000000000000004])
    values = np.array(AWKWARD).reshape(3, 3)
    fields = {"normal": values, "v1": -values[::-1], "v2": values.T}
    one, each = tmp_path / "one", tmp_path / "each"
    one.mkdir()
    each.mkdir()

    write_grid_csvs(fields, axis, {name: one / f"{name}.csv" for name in fields},
                    one / "combined.csv")
    for name, grid in fields.items():
        write_matrix_csv(each / f"{name}.csv", grid, axis)
    write_long_csv(each / "combined.csv", fields, axis)

    names = sorted(path.name for path in each.iterdir())
    assert names == ["combined.csv", "normal.csv", "v1.csv", "v2.csv"]
    assert sorted(path.name for path in one.iterdir()) == names
    for name in names:
        assert (one / name).read_bytes() == (each / name).read_bytes(), name


def test_pgm_orientation_clipping_and_rounding(tmp_path):
    # values[i, j] is the cell (p1 index i, p2 index j): p1 runs left to
    # right, p2 bottom to top; 2.0 and -1.0 clip, 0.5 * 255 rounds half to even.
    write_pgm(tmp_path / "grid.pgm", np.array([[0.0, 0.5, 2.0], [-1.0, 1.0, 0.2]]))
    assert (tmp_path / "grid.pgm").read_bytes() == b"P5\n2 3\n255\n" + bytes(
        [255, 51, 128, 255, 0, 0]
    )
